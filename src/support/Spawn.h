//===- support/Spawn.h - the one place a child process starts ------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every child process in the tree starts through spawnProcess(): the
/// one-shot runner (support/ProcessRunner.h), the line-framed fleet
/// transport (support/PipedProcess.h), and through the runner the process
/// pool (support/ProcessPool.h). It wraps the C library's spawn call, so
/// the parent's page tables are never copied and no C++ runs between the
/// child's start and its exec -- which is what makes spawning from many
/// threads at once safe.
///
/// The child it starts:
///  - gets exactly the caller's three descriptors on fds 0-2. Every pipe
///    in support/ is created O_CLOEXEC, so a child another thread spawns
///    concurrently never inherits them; the dup2 onto fds 0-2 clears the
///    flag where this child needs it.
///  - leads its own process group, so a kill of -pid also reaches the
///    subtree it starts (a cc driver's cc1 and as; a shell's hung loop).
///  - starts with an empty signal mask and every catchable signal at its
///    default action, whatever the spawning thread had blocked or ignored.
///  - reports a failed exec (missing binary, no permission) as a failed
///    spawn with the exec's errno, never as an exit code, and leaves no
///    zombie behind.
///
/// Two consequences of the spawn call, both measured (glibc 2.36): a
/// script without a `#!` line fails to start with ENOEXEC rather than
/// being run by /bin/sh, and glibc leaves its two internal signals (32 and
/// 33) ignored in the child.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_SPAWN_H
#define SPE_SUPPORT_SPAWN_H

#include <cstddef>
#include <string>
#include <vector>

#include <sys/types.h>

namespace spe {

/// The child's standard descriptors.
struct SpawnFds {
  int In = -1;  ///< Becomes fd 0; < 0 opens /dev/null (reads EOF).
  int Out = -1; ///< Becomes fd 1; < 0 inherits the parent's.
  int Err = -1; ///< Becomes fd 2; < 0 inherits the parent's.
};

/// Starts \p Argv (Argv[0] resolved through PATH) with \p Fds on fds 0-2.
/// \returns the child's pid, or -1 with \p Err set when the process could
/// not be started (exec failures included).
pid_t spawnProcess(const std::vector<std::string> &Argv, const SpawnFds &Fds,
                   std::string &Err);

/// Closes whichever ends of \p P are open (>= 0).
void closePipe(int P[2]);

/// waitpid(\p Pid) retrying on EINTR. \returns false when the child could
/// not be reaped; \p Status is the raw wait status otherwise.
bool reapProcess(pid_t Pid, int &Status);

/// One write(2) of up to \p N bytes with SIGPIPE blocked, so a reader that
/// went away surfaces as -1 with errno EPIPE instead of killing the
/// process. \returns the bytes written, or -1 with errno set.
ssize_t writeNoSigpipe(int Fd, const void *Data, size_t N);

} // namespace spe

#endif // SPE_SUPPORT_SPAWN_H
