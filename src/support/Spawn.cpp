//===- support/Spawn.cpp - the one place a child process starts ----------===//

#include "support/Spawn.h"

#include <cerrno>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <pthread.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spe;

pid_t spe::spawnProcess(const std::vector<std::string> &Argv,
                        const SpawnFds &Fds, std::string &Err) {
  if (Argv.empty()) {
    Err = "empty argv";
    return -1;
  }
  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  auto Fail = [&](int E) {
    Err = "spawn '" + Argv[0] + "': " + std::strerror(E);
    return pid_t(-1);
  };
  posix_spawn_file_actions_t Acts;
  if (int E = posix_spawn_file_actions_init(&Acts))
    return Fail(E);
  posix_spawnattr_t Attr;
  if (int E = posix_spawnattr_init(&Attr)) {
    posix_spawn_file_actions_destroy(&Acts);
    return Fail(E);
  }
  sigset_t Empty, All;
  sigemptyset(&Empty);
  sigfillset(&All);
  int E = Fds.In >= 0 ? posix_spawn_file_actions_adddup2(&Acts, Fds.In, 0)
                      : posix_spawn_file_actions_addopen(&Acts, 0, "/dev/null",
                                                         O_RDONLY, 0);
  if (E == 0 && Fds.Out >= 0)
    E = posix_spawn_file_actions_adddup2(&Acts, Fds.Out, 1);
  if (E == 0 && Fds.Err >= 0)
    E = posix_spawn_file_actions_adddup2(&Acts, Fds.Err, 2);
  // Pgroup 0: the child leads a new group named by its own pid.
  posix_spawnattr_setflags(&Attr, POSIX_SPAWN_SETPGROUP |
                                      POSIX_SPAWN_SETSIGMASK |
                                      POSIX_SPAWN_SETSIGDEF);
  posix_spawnattr_setpgroup(&Attr, 0);
  posix_spawnattr_setsigmask(&Attr, &Empty);
  posix_spawnattr_setsigdefault(&Attr, &All);
  pid_t Pid = -1;
  if (E == 0)
    E = posix_spawnp(&Pid, Args[0], &Acts, &Attr, Args.data(), environ);
  posix_spawnattr_destroy(&Attr);
  posix_spawn_file_actions_destroy(&Acts);
  return E == 0 ? Pid : Fail(E);
}

void spe::closePipe(int P[2]) {
  if (P[0] >= 0)
    close(P[0]);
  if (P[1] >= 0)
    close(P[1]);
}

bool spe::reapProcess(pid_t Pid, int &Status) {
  pid_t Reaped;
  do
    Reaped = waitpid(Pid, &Status, 0);
  while (Reaped < 0 && errno == EINTR);
  return Reaped == Pid;
}

ssize_t spe::writeNoSigpipe(int Fd, const void *Data, size_t N) {
  sigset_t PipeSet, Old;
  sigemptyset(&PipeSet);
  sigaddset(&PipeSet, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &PipeSet, &Old);
  ssize_t W;
  do
    W = write(Fd, Data, N);
  while (W < 0 && errno == EINTR);
  int E = errno;
  if (W < 0 && E == EPIPE) {
    // Consume the SIGPIPE the failed write queued: restoring the old mask
    // with it still pending would deliver the default (fatal) action to a
    // thread that had it unblocked.
    timespec Zero = {0, 0};
    sigtimedwait(&PipeSet, nullptr, &Zero);
  }
  pthread_sigmask(SIG_SETMASK, &Old, nullptr);
  errno = E;
  return W;
}
