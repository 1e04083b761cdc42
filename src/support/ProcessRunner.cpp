//===- support/ProcessRunner.cpp - subprocess execution with timeouts ----===//

#include "support/ProcessRunner.h"

#include "support/Spawn.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ctime>

#include <fcntl.h>
#include <poll.h>
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

} // namespace

ProcessResult spe::runProcess(const std::vector<std::string> &Argv,
                              const ProcessOptions &Opts) {
  ProcessResult R;
  // The two captures, plus a stdin feed pipe only when there is data to
  // feed (empty data keeps stdin on /dev/null). All are CLOEXEC from
  // creation; see support/Spawn.h.
  int OutP[2] = {-1, -1}, ErrP[2] = {-1, -1}, InP[2] = {-1, -1};
  if (pipe2(OutP, O_CLOEXEC) != 0 || pipe2(ErrP, O_CLOEXEC) != 0 ||
      (!Opts.StdinData.empty() && pipe2(InP, O_CLOEXEC) != 0)) {
    R.Error = "pipe: " + std::string(std::strerror(errno));
    closePipe(OutP), closePipe(ErrP), closePipe(InP);
    return R;
  }
  pid_t Pid = spawnProcess(Argv, {InP[0], OutP[1], ErrP[1]}, R.Error);
  close(OutP[1]), close(ErrP[1]);
  if (InP[0] >= 0)
    close(InP[0]);
  if (Pid < 0) {
    close(OutP[0]), close(ErrP[0]);
    if (InP[1] >= 0)
      close(InP[1]);
    return R;
  }
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
        // The pipe is non-blocking: EAGAIN means momentarily full.
        ssize_t W = writeNoSigpipe(InP[1], Opts.StdinData.data() + InPos,
                                   Opts.StdinData.size() - InPos);
        if (W > 0)
          InPos += static_cast<size_t>(W);
        // Done, or the child closed its end without reading: either way
        // close so the child sees EOF instead of a forever-open stdin.
        if ((W < 0 && errno != EAGAIN) || InPos >= Opts.StdinData.size()) {
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

  int WStatus = 0;
  bool Reaped = reapProcess(Pid, WStatus);
  if (Killed) {
    R.St = ProcessResult::Status::TimedOut;
    return R;
  }
  if (Reaped && WIFEXITED(WStatus)) {
    R.St = ProcessResult::Status::Exited;
    R.ExitCode = WEXITSTATUS(WStatus);
  } else if (Reaped && WIFSIGNALED(WStatus)) {
    R.St = ProcessResult::Status::Signaled;
    R.Signal = WTERMSIG(WStatus);
  } else {
    R.Error = "waitpid lost track of the child";
  }
  return R;
}
