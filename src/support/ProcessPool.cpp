//===- support/ProcessPool.cpp - worker threads running subprocess jobs --===//

#include "support/ProcessPool.h"

#include <algorithm>
#include <cassert>
#include <ctime>

using namespace spe;

namespace {

uint64_t nowMs() {
  timespec Ts;
  clock_gettime(CLOCK_MONOTONIC, &Ts);
  return static_cast<uint64_t>(Ts.tv_sec) * 1000 +
         static_cast<uint64_t>(Ts.tv_nsec) / 1'000'000;
}

} // namespace

ProcessPool::ProcessPool(unsigned Workers)
    : NumWorkers(Workers == 0 ? 1 : Workers) {
  try {
    for (unsigned I = 0; I < NumWorkers; ++I)
      Threads.emplace_back([this] { workerMain(); });
  } catch (...) {
    stop();
    throw;
  }
}

ProcessPool::~ProcessPool() {
  stop();
  // A job still queued can never run; surface that to (buggy) stragglers
  // instead of letting them block forever.
  std::lock_guard<std::mutex> L(Mu);
  for (const QueuedJob &J : Queue) {
    ProcessResult R;
    R.St = ProcessResult::Status::StartFailed;
    R.Error = "process pool: destroyed with the job still queued";
    Results[J.Id] = std::move(R);
  }
  Queue.clear();
  JobDone.notify_all();
}

void ProcessPool::stop() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
  }
  JobReady.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

void ProcessPool::workerMain() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    JobReady.wait(L, [this] { return ShuttingDown || !Queue.empty(); });
    if (ShuttingDown)
      return;
    QueuedJob J = std::move(Queue.front());
    Queue.pop_front();
    ++Busy;
    uint64_t StartMs = nowMs();
    CumQueueWaitMs += StartMs - J.EnqueueMs;

    L.unlock();
    ProcessResult R = runProcess(J.Argv, J.Opts);
    L.lock();

    CumRunMs += nowMs() - StartMs;
    --Busy;
    ++JobsCompleted;
    Results[J.Id] = std::move(R);
    JobDone.notify_all();
  }
}

uint64_t ProcessPool::waitingLocked() const {
  size_t Idle = NumWorkers - Busy;
  return Queue.size() > Idle ? Queue.size() - Idle : 0;
}

ProcessPool::JobId ProcessPool::submit(const std::vector<std::string> &Argv,
                                       const ProcessOptions &Opts) {
  std::lock_guard<std::mutex> L(Mu);
  JobId Id = NextId++;
  Results.emplace(Id, std::nullopt);
  Queue.push_back({Id, Argv, Opts, nowMs()});
  ++JobsSubmitted;
  QueueHighWater = std::max(QueueHighWater, waitingLocked());
  JobReady.notify_one();
  return Id;
}

ProcessResult ProcessPool::wait(JobId Id) {
  std::unique_lock<std::mutex> L(Mu);
  auto It = Results.find(Id);
  assert(It != Results.end() && "wait() on an unknown or already-claimed job");
  JobDone.wait(L, [&] { return It->second.has_value(); });
  ProcessResult R = std::move(*It->second);
  Results.erase(It);
  return R;
}

ProcessPool::Stats ProcessPool::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  Stats S;
  S.JobsSubmitted = JobsSubmitted;
  S.JobsCompleted = JobsCompleted;
  S.QueueDepth = waitingLocked();
  S.QueueHighWater = QueueHighWater;
  S.BusyWorkers = Busy;
  S.CumQueueWaitMs = CumQueueWaitMs;
  S.CumRunMs = CumRunMs;
  return S;
}
