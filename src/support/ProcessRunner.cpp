//===- support/ProcessRunner.cpp - subprocess execution with timeouts ----===//

#include "support/ProcessRunner.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>

#include <fcntl.h>
#include <poll.h>
#include <pthread.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spe;

namespace {

/// Monotonic milliseconds, immune to wall-clock adjustment mid-run.
uint64_t nowMs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000 +
         static_cast<uint64_t>(Ts.tv_nsec) / 1'000'000;
}

/// Drains one capture pipe into \p Out up to \p Cap bytes (excess is read
/// and dropped so the child never blocks on a full pipe). \returns false on
/// EOF or unrecoverable error, true while the pipe stays open.
bool drainPipe(int Fd, std::string &Out, size_t Cap) {
  char Buf[1 << 14];
  for (;;) {
    ssize_t Got = read(Fd, Buf, sizeof(Buf));
    if (Got > 0) {
      if (Out.size() < Cap)
        Out.append(Buf, Buf + std::min<size_t>(static_cast<size_t>(Got),
                                               Cap - Out.size()));
      continue;
    }
    if (Got == 0)
      return false;
    if (errno == EINTR)
      continue;
    return errno == EAGAIN; // Non-blocking pipe momentarily empty.
  }
}

/// Writes one chunk of stdin data with SIGPIPE blocked (a child that exits
/// without reading its stdin must surface as EPIPE here, not kill the
/// harness). \returns bytes written, 0 when the pipe is momentarily full,
/// or -1 when the pipe is dead and the caller should stop feeding it.
ssize_t writeStdinChunk(int Fd, const char *Data, size_t N) {
  sigset_t PipeSet, Old;
  sigemptyset(&PipeSet);
  sigaddset(&PipeSet, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &PipeSet, &Old);
  ssize_t W;
  do
    W = write(Fd, Data, N);
  while (W < 0 && errno == EINTR);
  if (W < 0 && errno == EPIPE) {
    // Consume the SIGPIPE the failed write queued; restoring the old mask
    // with it still pending would deliver the default fatal action to
    // threads that had it unblocked.
    timespec Zero = {0, 0};
    sigtimedwait(&PipeSet, nullptr, &Zero);
  }
  int E = errno;
  pthread_sigmask(SIG_SETMASK, &Old, nullptr);
  if (W >= 0)
    return W;
  return E == EAGAIN ? 0 : -1;
}

} // namespace

ProcessResult spe::runProcess(const std::vector<std::string> &Argv,
                              const ProcessOptions &Opts) {
  ProcessResult R;
  if (Argv.empty()) {
    R.Error = "empty argv";
    return R;
  }

  // Three pipes: the two captures plus the exec-errno channel. All are
  // CLOEXEC from creation, so a child another thread forks concurrently
  // never inherits them; dup2 onto fds 0-2 clears the flag where this
  // child needs it. A successful exec therefore closes the errno pipe
  // silently and the parent reads EOF; a failed exec writes errno before
  // _exit.
  int OutP[2], ErrP[2], ExecP[2];
  if (pipe2(OutP, O_CLOEXEC) != 0) {
    R.Error = "pipe: " + std::string(std::strerror(errno));
    return R;
  }
  if (pipe2(ErrP, O_CLOEXEC) != 0) {
    R.Error = "pipe: " + std::string(std::strerror(errno));
    close(OutP[0]), close(OutP[1]);
    return R;
  }
  if (pipe2(ExecP, O_CLOEXEC) != 0) {
    R.Error = "pipe: " + std::string(std::strerror(errno));
    close(OutP[0]), close(OutP[1]), close(ErrP[0]), close(ErrP[1]);
    return R;
  }
  // The stdin feed pipe only exists when there is data to feed; the empty
  // case keeps the /dev/null fast path untouched.
  int InP[2] = {-1, -1};
  if (!Opts.StdinData.empty() && pipe2(InP, O_CLOEXEC) != 0) {
    R.Error = "pipe: " + std::string(std::strerror(errno));
    close(OutP[0]), close(OutP[1]), close(ErrP[0]), close(ErrP[1]);
    close(ExecP[0]), close(ExecP[1]);
    return R;
  }

  std::vector<char *> Args;
  Args.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);

  pid_t Pid = fork();
  if (Pid < 0) {
    R.Error = "fork: " + std::string(std::strerror(errno));
    close(OutP[0]), close(OutP[1]), close(ErrP[0]), close(ErrP[1]);
    close(ExecP[0]), close(ExecP[1]);
    if (InP[0] >= 0)
      close(InP[0]), close(InP[1]);
    return R;
  }

  if (Pid == 0) {
    // Child: async-signal-safe territory only. A private process group, so
    // the timeout kill reaps the whole tree (cc drivers spawn cc1/as; sh
    // spawns the hung loop) -- otherwise a grandchild would keep the
    // capture pipes open long after the direct child died.
    setpgid(0, 0);
    if (InP[0] >= 0) {
      dup2(InP[0], STDIN_FILENO);
      close(InP[0]), close(InP[1]);
    } else {
      // stdin reads EOF so an unexpectedly interactive child terminates
      // instead of hanging.
      int DevNull = open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (DevNull >= 0)
        dup2(DevNull, STDIN_FILENO);
    }
    dup2(OutP[1], STDOUT_FILENO);
    dup2(ErrP[1], STDERR_FILENO);
    close(OutP[0]), close(OutP[1]), close(ErrP[0]), close(ErrP[1]);
    close(ExecP[0]);
    execvp(Args[0], Args.data());
    int E = errno;
    ssize_t Ignored = write(ExecP[1], &E, sizeof(E));
    (void)Ignored;
    _exit(127);
  }

  // Parent. Mirror the child's setpgid so the group exists from both
  // sides' perspective before any kill can race it (EACCES/ESRCH after
  // the exec are benign).
  setpgid(Pid, Pid);
  close(OutP[1]), close(ErrP[1]), close(ExecP[1]);
  if (InP[0] >= 0)
    close(InP[0]);
  fcntl(OutP[0], F_SETFL, O_NONBLOCK);
  fcntl(ErrP[0], F_SETFL, O_NONBLOCK);
  if (InP[1] >= 0)
    fcntl(InP[1], F_SETFL, O_NONBLOCK);

  const uint64_t Deadline =
      Opts.TimeoutMs == 0 ? 0 : nowMs() + Opts.TimeoutMs;
  uint64_t KilledAt = 0;
  bool Killed = false;
  bool OutOpen = true, ErrOpen = true;
  bool InOpen = InP[1] >= 0;
  size_t InPos = 0;
  while (OutOpen || ErrOpen) {
    pollfd Fds[3];
    nfds_t N = 0;
    if (OutOpen)
      Fds[N++] = {OutP[0], POLLIN, 0};
    if (ErrOpen)
      Fds[N++] = {ErrP[0], POLLIN, 0};
    if (InOpen)
      Fds[N++] = {InP[1], POLLOUT, 0};
    int Wait = -1;
    if (Deadline != 0) {
      uint64_t Now = nowMs();
      if (Now >= Deadline && !Killed) {
        // Hard kill of the whole group: a hung cc1 or a miscompiled
        // infinite loop holds its pipes open forever, and so would any
        // grandchild inheriting them; SIGKILL on the group is the only
        // reliable unblocker. EOF arrives as the kernel tears the last
        // write end down.
        if (kill(-Pid, SIGKILL) != 0)
          kill(Pid, SIGKILL);
        Killed = true;
        KilledAt = Now;
      }
      if (!Killed) {
        Wait = static_cast<int>(Deadline - Now);
      } else if (Now >= KilledAt + 2000) {
        break; // A detached grandchild escaped the group; stop waiting.
      } else {
        Wait = static_cast<int>(KilledAt + 2000 - Now);
      }
    }
    int Ready = poll(Fds, N, Wait);
    if (Ready < 0 && errno != EINTR)
      break;
    if (Ready <= 0)
      continue;
    for (nfds_t I = 0; I < N; ++I) {
      if (InOpen && Fds[I].fd == InP[1]) {
        if (!(Fds[I].revents & (POLLOUT | POLLHUP | POLLERR)))
          continue;
        ssize_t W = writeStdinChunk(InP[1], Opts.StdinData.data() + InPos,
                                    Opts.StdinData.size() - InPos);
        if (W > 0)
          InPos += static_cast<size_t>(W);
        // Done, or the child closed its end without reading: either way
        // close so the child sees EOF instead of a forever-open stdin.
        if (W < 0 || InPos >= Opts.StdinData.size()) {
          close(InP[1]);
          InOpen = false;
        }
        continue;
      }
      if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (Fds[I].fd == OutP[0])
        OutOpen = drainPipe(OutP[0], R.Stdout, Opts.MaxOutputBytes);
      else
        ErrOpen = drainPipe(ErrP[0], R.Stderr, Opts.MaxOutputBytes);
    }
  }
  close(OutP[0]), close(ErrP[0]);
  if (InOpen)
    close(InP[1]);

  int ExecErrno = 0;
  ssize_t Got;
  do
    Got = read(ExecP[0], &ExecErrno, sizeof(ExecErrno));
  while (Got < 0 && errno == EINTR);
  close(ExecP[0]);

  int WStatus = 0;
  pid_t Reaped;
  do
    Reaped = waitpid(Pid, &WStatus, 0);
  while (Reaped < 0 && errno == EINTR);

  if (Got == static_cast<ssize_t>(sizeof(ExecErrno))) {
    R.St = ProcessResult::Status::StartFailed;
    R.Error = "exec '" + Argv[0] + "': " + std::strerror(ExecErrno);
    return R;
  }
  if (Killed) {
    R.St = ProcessResult::Status::TimedOut;
    return R;
  }
  if (Reaped == Pid && WIFEXITED(WStatus)) {
    R.St = ProcessResult::Status::Exited;
    R.ExitCode = WEXITSTATUS(WStatus);
  } else if (Reaped == Pid && WIFSIGNALED(WStatus)) {
    R.St = ProcessResult::Status::Signaled;
    R.Signal = WTERMSIG(WStatus);
  } else {
    R.Error = "waitpid lost track of the child";
  }
  return R;
}
