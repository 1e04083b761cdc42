//===- support/PipedProcess.h - line-framed bidirectional subprocess -----===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived child process with line-framed stdin/stdout pipes -- the
/// transport under the fleet coordinator/worker protocol (DESIGN.md
/// Section 16). Like runProcess's children, the child starts through
/// spawnProcess (support/Spawn.h): a failed exec fails start() instead of
/// looking like an instant exit, the child leads its own process group so
/// a kill reaps any subtree, and stdin writes run with SIGPIPE blocked so
/// a dead child surfaces as a failed write instead of killing the parent.
///
/// Unlike runProcess (one-shot, capture-everything, timeout-killed), a
/// PipedProcess stays interactive: the caller alternates writeLine /
/// readLine for as long as the protocol runs, then wait()s for the exit
/// status. stderr is inherited, so worker diagnostics land on the
/// coordinator's stderr unmodified.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_PIPEDPROCESS_H
#define SPE_SUPPORT_PIPEDPROCESS_H

#include <string>
#include <vector>

#include <sys/types.h>

namespace spe {

class PipedProcess {
public:
  PipedProcess() = default;
  /// A still-running child is SIGKILLed and reaped: a dropped handle must
  /// not leak processes or zombies.
  ~PipedProcess();

  PipedProcess(const PipedProcess &) = delete;
  PipedProcess &operator=(const PipedProcess &) = delete;

  /// Spawns \p Argv with fresh stdin/stdout pipes. \returns false with
  /// \p Err set when the pipe setup or the spawn fails (a bad binary path
  /// included).
  bool start(const std::vector<std::string> &Argv, std::string &Err);

  /// Writes \p Line plus a terminating newline to the child's stdin,
  /// blocking until fully written. \returns false when the child's stdin
  /// is gone (EPIPE -- the child died or closed its end).
  bool writeLine(const std::string &Line);

  /// Blocking read of the next newline-terminated line from the child's
  /// stdout (the newline is stripped). \returns false on EOF; a trailing
  /// unterminated fragment is discarded -- protocol lines are always
  /// newline-framed, so a fragment means the child died mid-line.
  bool readLine(std::string &Line);

  /// Closes the child's stdin so it reads EOF (the protocol's shutdown
  /// signal for workers that outlive their coordinator).
  void closeStdin();

  pid_t pid() const { return Pid; }
  bool started() const { return Pid > 0; }

  /// Sends \p Sig to the child's process group (falling back to the pid).
  void kill(int Sig);

  /// Reaps the child and \returns its raw waitpid status (memoized; safe
  /// to call repeatedly). Use WIFEXITED/WIFSIGNALED to decode.
  int wait();

private:
  void closeFds();

  pid_t Pid = -1;
  int InFd = -1;  ///< Write end of the child's stdin.
  int OutFd = -1; ///< Read end of the child's stdout.
  std::string Buf;
  bool Waited = false;
  int Status = 0;
};

} // namespace spe

#endif // SPE_SUPPORT_PIPEDPROCESS_H
