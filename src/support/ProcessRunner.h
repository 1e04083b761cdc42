//===- support/ProcessRunner.h - subprocess execution with timeouts ------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Subprocess runner for driving real host compilers and the binaries
/// they produce (compiler/ExternalBackend.h). One call runs one
/// argv to completion: both output streams are captured through pipes, a
/// wall-clock timeout hard-kills runaway children (the paper's campaigns
/// routinely produce variants that loop forever once miscompiled), and the
/// wait status is decoded into exit-vs-signal so the backend can tell a
/// compiler crash (SIGSEGV in cc1) from a mere rejection (exit 1 with
/// diagnostics).
///
/// Thread safety: safe to call concurrently from shard workers. The child
/// starts through spawnProcess (support/Spawn.h), which reports a failed
/// exec as a failed start instead of a fake exit code, so "compiler binary
/// missing" can never masquerade as a compile rejection.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_PROCESSRUNNER_H
#define SPE_SUPPORT_PROCESSRUNNER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace spe {

/// Knobs for one subprocess run.
struct ProcessOptions {
  /// Wall-clock budget in milliseconds; the child is SIGKILLed when it
  /// expires. 0 = no limit.
  uint64_t TimeoutMs = 0;
  /// Per-stream capture cap; output past it is drained but discarded, so a
  /// miscompiled infinite printf loop cannot exhaust harness memory.
  size_t MaxOutputBytes = 1 << 20;
  /// Bytes fed to the child's stdin (the differential matrix's input
  /// sweeps travel this way). Empty keeps the historical behavior
  /// byte-for-byte: stdin is /dev/null and reads EOF immediately. When
  /// non-empty the data is written through a pipe inside the capture poll
  /// loop, then the write end closes so the child still sees EOF; a child
  /// that exits without reading closes the pipe harmlessly (EPIPE is
  /// swallowed, never raised as SIGPIPE).
  std::string StdinData;
};

/// Decoded outcome of one subprocess run.
struct ProcessResult {
  enum class Status {
    Exited,      ///< Normal termination; ExitCode is WEXITSTATUS.
    Signaled,    ///< Killed by a signal; Signal names it.
    TimedOut,    ///< Wall-clock budget expired; the child was SIGKILLed.
    StartFailed, ///< The child never started; Error has the diagnostic.
  };
  Status St = Status::StartFailed;
  int ExitCode = 0; ///< Valid when St == Exited (low 8 bits by POSIX).
  int Signal = 0;   ///< Valid when St == Signaled.
  std::string Stdout;
  std::string Stderr;
  std::string Error; ///< Valid when St == StartFailed.

  bool exited() const { return St == Status::Exited; }
  bool exitedWith(int Code) const { return exited() && ExitCode == Code; }
};

/// Runs \p Argv (Argv[0] resolved through PATH) to completion with both
/// output streams captured; stdin carries Opts.StdinData then reads EOF
/// (plain EOF when it is empty). Never throws; every failure mode is
/// encoded in the returned status.
ProcessResult runProcess(const std::vector<std::string> &Argv,
                         const ProcessOptions &Opts = {});

} // namespace spe

#endif // SPE_SUPPORT_PROCESSRUNNER_H
