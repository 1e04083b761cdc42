//===- support/ProcessPool.cpp - pre-forked subprocess broker pool -------===//

#include "support/ProcessPool.h"

#include <cassert>
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

uint64_t nowMs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000 +
         static_cast<uint64_t>(Ts.tv_nsec) / 1'000'000;
}

/// Upper bound on any framed string; a length beyond it can only be a
/// corrupt frame from a dying broker, never real compiler output (which
/// runProcess already caps).
constexpr uint64_t MaxFrameString = 1u << 28;

enum class IoStatus { Ok, Eof, Timeout, Error };

/// Reads exactly \p N bytes. \p DeadlineMs is an absolute monotonic
/// timestamp (0 = block forever).
IoStatus readFull(int Fd, void *Buf, size_t N, uint64_t DeadlineMs) {
  char *P = static_cast<char *>(Buf);
  while (N > 0) {
    if (DeadlineMs != 0) {
      uint64_t Now = nowMs();
      if (Now >= DeadlineMs)
        return IoStatus::Timeout;
      pollfd Pfd{Fd, POLLIN, 0};
      int Ready = poll(&Pfd, 1, static_cast<int>(DeadlineMs - Now));
      if (Ready < 0 && errno != EINTR)
        return IoStatus::Error;
      if (Ready <= 0)
        continue;
    }
    ssize_t Got = read(Fd, P, N);
    if (Got > 0) {
      P += Got;
      N -= static_cast<size_t>(Got);
      continue;
    }
    if (Got == 0)
      return IoStatus::Eof;
    if (errno != EINTR)
      return IoStatus::Error;
  }
  return IoStatus::Ok;
}

/// Writes exactly \p N bytes with SIGPIPE blocked for the duration, so a
/// write into a dead broker surfaces as EPIPE instead of killing the
/// harness.
bool writeFull(int Fd, const void *Buf, size_t N) {
  sigset_t PipeSet, Old;
  sigemptyset(&PipeSet);
  sigaddset(&PipeSet, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &PipeSet, &Old);
  const char *P = static_cast<const char *>(Buf);
  bool Ok = true;
  while (N > 0) {
    ssize_t W = write(Fd, P, N);
    if (W < 0) {
      if (errno == EINTR)
        continue;
      Ok = false;
      break;
    }
    P += W;
    N -= static_cast<size_t>(W);
  }
  if (!Ok) {
    // Consume the SIGPIPE the failed write may have queued; restoring the
    // old mask with it still pending would deliver the default (fatal)
    // action to threads that had it unblocked.
    timespec Zero{0, 0};
    sigtimedwait(&PipeSet, nullptr, &Zero);
  }
  pthread_sigmask(SIG_SETMASK, &Old, nullptr);
  return Ok;
}

void putU64(std::string &B, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void putStr(std::string &B, const std::string &S) {
  putU64(B, S.size());
  B += S;
}

IoStatus readU64(int Fd, uint64_t &V, uint64_t DeadlineMs) {
  unsigned char Buf[8];
  IoStatus S = readFull(Fd, Buf, 8, DeadlineMs);
  if (S != IoStatus::Ok)
    return S;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(Buf[I]) << (8 * I);
  return IoStatus::Ok;
}

IoStatus readStr(int Fd, std::string &S, uint64_t DeadlineMs) {
  uint64_t Len = 0;
  IoStatus St = readU64(Fd, Len, DeadlineMs);
  if (St != IoStatus::Ok)
    return St;
  if (Len > MaxFrameString)
    return IoStatus::Error;
  S.resize(Len);
  return Len == 0 ? IoStatus::Ok : readFull(Fd, &S[0], Len, DeadlineMs);
}

/// The broker child's main loop. Never returns; EOF on the job pipe (the
/// parent closed it or died) is the shutdown signal.
[[noreturn]] void brokerMain(int JobFd, int ResFd) {
  // The parent may vanish mid-reply; exit on EPIPE rather than die of
  // SIGPIPE so the wait-status the parent's reaper sees stays boring.
  struct sigaction Ign;
  std::memset(&Ign, 0, sizeof(Ign));
  Ign.sa_handler = SIG_IGN;
  sigaction(SIGPIPE, &Ign, nullptr);

  for (;;) {
    uint64_t NArgs = 0;
    if (readU64(JobFd, NArgs, 0) != IoStatus::Ok || NArgs > 4096)
      _exit(0);
    std::vector<std::string> Argv(NArgs);
    for (std::string &A : Argv)
      if (readStr(JobFd, A, 0) != IoStatus::Ok)
        _exit(0);
    ProcessOptions Opts;
    uint64_t MaxOut = 0;
    if (readU64(JobFd, Opts.TimeoutMs, 0) != IoStatus::Ok ||
        readU64(JobFd, MaxOut, 0) != IoStatus::Ok ||
        readStr(JobFd, Opts.StdinData, 0) != IoStatus::Ok)
      _exit(0);
    Opts.MaxOutputBytes = static_cast<size_t>(MaxOut);

    if (!Argv.empty() && Argv[0] == ProcessPool::WedgeArgv0)
      for (;;) // Test hook: wedge without answering; see WedgeArgv0.
        pause();

    ProcessResult R = runProcess(Argv, Opts);

    std::string Frame;
    putU64(Frame, static_cast<uint64_t>(R.St));
    putU64(Frame, static_cast<uint64_t>(static_cast<int64_t>(R.ExitCode)));
    putU64(Frame, static_cast<uint64_t>(static_cast<int64_t>(R.Signal)));
    putStr(Frame, R.Stdout);
    putStr(Frame, R.Stderr);
    putStr(Frame, R.Error);
    if (!writeFull(ResFd, Frame.data(), Frame.size()))
      _exit(0);
  }
}

/// Decodes one result frame. Any framing violation maps to Error, which
/// the reaper treats like broker death.
IoStatus readResultFrame(int Fd, uint64_t DeadlineMs, ProcessResult &R) {
  uint64_t St = 0, Exit = 0, Sig = 0;
  IoStatus S = readU64(Fd, St, DeadlineMs);
  if (S != IoStatus::Ok)
    return S;
  if (St > static_cast<uint64_t>(ProcessResult::Status::StartFailed))
    return IoStatus::Error;
  if ((S = readU64(Fd, Exit, DeadlineMs)) != IoStatus::Ok)
    return S;
  if ((S = readU64(Fd, Sig, DeadlineMs)) != IoStatus::Ok)
    return S;
  R.St = static_cast<ProcessResult::Status>(St);
  R.ExitCode = static_cast<int>(static_cast<int64_t>(Exit));
  R.Signal = static_cast<int>(static_cast<int64_t>(Sig));
  if ((S = readStr(Fd, R.Stdout, DeadlineMs)) != IoStatus::Ok)
    return S;
  if ((S = readStr(Fd, R.Stderr, DeadlineMs)) != IoStatus::Ok)
    return S;
  return readStr(Fd, R.Error, DeadlineMs);
}

ProcessResult unstartableResult(const char *Why) {
  ProcessResult R;
  R.St = ProcessResult::Status::StartFailed;
  R.Error = std::string("process pool: ") + Why;
  return R;
}

} // namespace

ProcessPool::ProcessPool(unsigned Workers, uint64_t SlackMs)
    : SlackMs(SlackMs) {
  {
    std::lock_guard<std::mutex> L(Mu);
    // Every pool pipe is CLOEXEC, so no exec'd job -- a broker's or one
    // another thread spawns -- inherits the pool's ends.
    int WP[2];
    if (pipe2(WP, O_CLOEXEC | O_NONBLOCK) == 0) {
      WakeRead = WP[0];
      WakeWrite = WP[1];
    }
    Brokers.resize(Workers == 0 ? 1 : Workers);
    for (Broker &B : Brokers)
      spawnBroker(B);
  }
  Reaper = std::thread([this] { reaperMain(); });
}

ProcessPool::~ProcessPool() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
    wakeReaper();
  }
  if (Reaper.joinable())
    Reaper.join();
  std::lock_guard<std::mutex> L(Mu);
  for (Broker &B : Brokers)
    destroyBroker(B, /*KillGroup=*/true);
  // Any job still pending at destruction can never finish; surface that
  // to (buggy) stragglers instead of letting them block forever.
  for (auto &[Id, J] : Pending)
    if (!J.Done) {
      J.Done = true;
      J.Result = unstartableResult("pool destroyed with the job pending");
    }
  JobDone.notify_all();
  if (WakeRead >= 0)
    close(WakeRead);
  if (WakeWrite >= 0)
    close(WakeWrite);
}

bool ProcessPool::spawnBroker(Broker &B) {
  int JP[2], RP[2];
  if (pipe2(JP, O_CLOEXEC) != 0)
    return false;
  if (pipe2(RP, O_CLOEXEC) != 0) {
    close(JP[0]), close(JP[1]);
    return false;
  }
  pid_t Pid = fork();
  if (Pid < 0) {
    close(JP[0]), close(JP[1]), close(RP[0]), close(RP[1]);
    return false;
  }
  if (Pid == 0) {
    // A private group so a wedged broker can be killed wholesale without
    // touching its siblings; drop every other broker's parent-side pipe
    // end so one broker's death delivers EOF to the parent regardless of
    // spawn order.
    setpgid(0, 0);
    for (Broker &O : Brokers) {
      if (O.JobFd >= 0)
        close(O.JobFd);
      if (O.ResFd >= 0)
        close(O.ResFd);
    }
    if (WakeRead >= 0)
      close(WakeRead);
    if (WakeWrite >= 0)
      close(WakeWrite);
    close(JP[1]), close(RP[0]);
    brokerMain(JP[0], RP[1]);
  }
  setpgid(Pid, Pid);
  close(JP[0]), close(RP[1]);
  B.Pid = Pid;
  B.JobFd = JP[1];
  B.ResFd = RP[0];
  return true;
}

void ProcessPool::destroyBroker(Broker &B, bool KillGroup) {
  if (B.Pid > 0) {
    if (!KillGroup || kill(-B.Pid, SIGKILL) != 0)
      kill(B.Pid, SIGKILL);
    int WStatus = 0;
    pid_t Reaped;
    do
      Reaped = waitpid(B.Pid, &WStatus, 0);
    while (Reaped < 0 && errno == EINTR);
  }
  if (B.JobFd >= 0)
    close(B.JobFd);
  if (B.ResFd >= 0)
    close(B.ResFd);
  B.Pid = -1;
  B.JobFd = -1;
  B.ResFd = -1;
}

bool ProcessPool::sendJob(Broker &B, const PendingJob &J) {
  if (B.JobFd < 0)
    return false;
  std::string Frame;
  putU64(Frame, J.Argv.size());
  for (const std::string &A : J.Argv)
    putStr(Frame, A);
  putU64(Frame, J.Opts.TimeoutMs);
  putU64(Frame, J.Opts.MaxOutputBytes);
  putStr(Frame, J.Opts.StdinData);
  return writeFull(B.JobFd, Frame.data(), Frame.size());
}

void ProcessPool::wakeReaper() {
  if (WakeWrite >= 0) {
    char C = 1;
    // Non-blocking: a full pipe already guarantees a pending wake-up.
    (void)!write(WakeWrite, &C, 1);
  }
}

void ProcessPool::dispatchTo(Broker &B, JobId Id) {
  auto It = Pending.find(Id);
  assert(It != Pending.end() && "dispatch of an unknown job");
  PendingJob &J = It->second;

  bool Sent = sendJob(B, J);
  if (!Sent) {
    // Broker found dead at dispatch: one respawn + resend before the job
    // is declared unstartable.
    destroyBroker(B, /*KillGroup=*/false);
    ++Respawns;
    Sent = spawnBroker(B) && sendJob(B, J);
  }
  if (!Sent) {
    J.Done = true;
    J.Result = unstartableResult("broker unavailable for job submission");
    JobDone.notify_all();
    B.Busy = false;
    return;
  }
  B.Busy = true;
  B.Current = Id;
  B.Attempt = 0;
  uint64_t Now = nowMs();
  if (J.StartMs == 0) {
    J.StartMs = Now;
    CumQueueWaitMs += Now >= J.EnqueueMs ? Now - J.EnqueueMs : 0;
  }
  B.DeadlineMs = J.Opts.TimeoutMs == 0 ? 0 : Now + J.Opts.TimeoutMs + SlackMs;
  wakeReaper();
}

void ProcessPool::completeJob(Broker &B, ProcessResult Result) {
  auto It = Pending.find(B.Current);
  if (It != Pending.end()) {
    It->second.Done = true;
    It->second.Result = std::move(Result);
    ++JobsCompleted;
    if (It->second.StartMs != 0) {
      uint64_t Now = nowMs();
      CumRunMs += Now >= It->second.StartMs ? Now - It->second.StartMs : 0;
    }
    JobDone.notify_all();
  }
  B.Busy = false;
  B.Current = 0;
  B.DeadlineMs = 0;
  B.Attempt = 0;
  while (!B.Busy && !Queue.empty()) {
    JobId Next = Queue.front();
    Queue.pop_front();
    dispatchTo(B, Next); // May fail the job and leave B free: keep going.
  }
}

void ProcessPool::failBroker(Broker &B, bool Wedged) {
  destroyBroker(B, /*KillGroup=*/Wedged);
  ++Respawns;
  JobId Id = B.Current;
  auto It = Pending.find(Id);
  bool Up = spawnBroker(B);

  if (Up && It != Pending.end() && B.Attempt == 0 && sendJob(B, It->second)) {
    // Retry exactly once, with a fresh deadline.
    B.Attempt = 1;
    B.DeadlineMs = It->second.Opts.TimeoutMs == 0
                       ? 0
                       : nowMs() + It->second.Opts.TimeoutMs + SlackMs;
    return;
  }

  ProcessResult R;
  R.St = ProcessResult::Status::StartFailed;
  R.Error = std::string("process pool: broker ") +
            (Wedged ? "wedged" : "died") +
            (B.Attempt == 0 ? " and could not be resubmitted"
                            : " twice; giving up");
  completeJob(B, std::move(R));
}

void ProcessPool::reaperMain() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    if (ShuttingDown)
      return;

    // Snapshot the busy brokers and the nearest wedge deadline.
    std::vector<pollfd> Pfds;
    std::vector<size_t> Idx;
    uint64_t MinDeadline = 0;
    for (size_t I = 0; I < Brokers.size(); ++I) {
      Broker &B = Brokers[I];
      if (!B.Busy || B.ResFd < 0)
        continue;
      Pfds.push_back({B.ResFd, POLLIN, 0});
      Idx.push_back(I);
      if (B.DeadlineMs != 0 &&
          (MinDeadline == 0 || B.DeadlineMs < MinDeadline))
        MinDeadline = B.DeadlineMs;
    }
    Pfds.push_back({WakeRead, POLLIN, 0});

    int TimeoutMs = -1;
    if (MinDeadline != 0) {
      uint64_t Now = nowMs();
      TimeoutMs = MinDeadline > Now ? static_cast<int>(MinDeadline - Now) : 0;
    }

    L.unlock();
    int Ready = poll(Pfds.data(), Pfds.size(), TimeoutMs);
    L.lock();
    if (ShuttingDown)
      return;
    if (Ready < 0 && errno != EINTR)
      continue;

    // Drain wake-up bytes.
    if (Pfds.back().revents & POLLIN) {
      char Buf[64];
      while (read(WakeRead, Buf, sizeof(Buf)) > 0)
        ;
    }

    for (size_t P = 0; P + 1 < Pfds.size(); ++P) {
      Broker &B = Brokers[Idx[P]];
      // The snapshot may be stale (a completion above re-fed the broker a
      // different job); only trust fds that still match.
      if (!B.Busy || B.ResFd != Pfds[P].fd)
        continue;
      if (Pfds[P].revents & (POLLIN | POLLHUP | POLLERR)) {
        // The frame is (being) written by an otherwise-idle broker; bound
        // the read by the job's own deadline so a mid-frame wedge cannot
        // hang the reaper. Reading without Mu would be fine -- only the
        // reaper touches result pipes -- but completions need the lock
        // anyway and frames arrive in one burst.
        ProcessResult R;
        uint64_t ReadDeadline =
            B.DeadlineMs != 0 ? B.DeadlineMs : nowMs() + 60'000;
        L.unlock();
        IoStatus S = readResultFrame(B.ResFd, ReadDeadline, R);
        L.lock();
        if (ShuttingDown)
          return;
        if (!B.Busy || B.ResFd != Pfds[P].fd)
          continue;
        if (S == IoStatus::Ok)
          completeJob(B, std::move(R));
        else
          failBroker(B, /*Wedged=*/S == IoStatus::Timeout);
      } else if (B.DeadlineMs != 0 && nowMs() >= B.DeadlineMs) {
        failBroker(B, /*Wedged=*/true);
      }
    }
  }
}

ProcessPool::JobId ProcessPool::submit(const std::vector<std::string> &Argv,
                                       const ProcessOptions &Opts) {
  std::lock_guard<std::mutex> L(Mu);
  JobId Id = NextId++;
  PendingJob J;
  J.Argv = Argv;
  J.Opts = Opts;
  J.EnqueueMs = nowMs();
  Pending.emplace(Id, std::move(J));
  ++JobsSubmitted;

  for (Broker &B : Brokers)
    if (!B.Busy) {
      dispatchTo(B, Id);
      return Id;
    }
  Queue.push_back(Id);
  if (Queue.size() > QueueHighWater)
    QueueHighWater = Queue.size();
  return Id;
}

ProcessResult ProcessPool::wait(JobId Id) {
  std::unique_lock<std::mutex> L(Mu);
  auto It = Pending.find(Id);
  assert(It != Pending.end() && "wait() on an unknown or already-claimed job");
  JobDone.wait(L, [&] { return It->second.Done; });
  ProcessResult R = std::move(It->second.Result);
  Pending.erase(It);
  return R;
}

unsigned ProcessPool::respawns() const {
  std::lock_guard<std::mutex> L(Mu);
  return Respawns;
}

ProcessPool::Stats ProcessPool::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  Stats S;
  S.JobsSubmitted = JobsSubmitted;
  S.JobsCompleted = JobsCompleted;
  S.Respawns = Respawns;
  S.QueueDepth = Queue.size();
  S.QueueHighWater = QueueHighWater;
  for (const Broker &B : Brokers)
    if (B.Busy)
      ++S.BusyBrokers;
  S.CumQueueWaitMs = CumQueueWaitMs;
  S.CumRunMs = CumRunMs;
  return S;
}

int ProcessPool::killBrokerForTest() {
  std::lock_guard<std::mutex> L(Mu);
  Broker *Victim = nullptr;
  for (Broker &B : Brokers)
    if (B.Pid > 0 && (Victim == nullptr || (B.Busy && !Victim->Busy)))
      Victim = &B;
  if (!Victim)
    return -1;
  kill(Victim->Pid, SIGKILL);
  return Victim->Pid;
}
