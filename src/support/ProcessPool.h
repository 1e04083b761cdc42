//===- support/ProcessPool.h - worker threads running subprocess jobs ----===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed set of worker threads that run subprocess jobs on behalf of the
/// harness, each job as one runProcess() call. The point is overlap, not
/// semantics: submit() never blocks, so a harness worker can hand the
/// compiler a batch and interpret the next batch's oracle on the VM while a
/// pool thread waits on cc; wait() later collects the result. Because a job
/// *is* a runProcess() call -- same spawn primitive, process-group timeout
/// kill and output caps -- wait() returns what a direct call would have,
/// by construction.
///
/// Jobs start in FIFO order as workers free up, and a worker parks each
/// result until its wait(). Callers may therefore hold finished but
/// unclaimed jobs while blocking on later ones -- the pipelined harness
/// does exactly that -- without stalling the pool.
///
/// Thread safety: submit() and wait() may be called from concurrent shard
/// workers.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_PROCESSPOOL_H
#define SPE_SUPPORT_PROCESSPOOL_H

#include "support/ProcessRunner.h"

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace spe {

/// A fixed-size pool of threads running subprocess jobs concurrently.
class ProcessPool {
public:
  using JobId = uint64_t;

  /// Starts \p Workers worker threads (at least 1).
  explicit ProcessPool(unsigned Workers);
  /// Jobs still queued fail as StartFailed; running jobs finish under their
  /// own TimeoutMs.
  ~ProcessPool();

  ProcessPool(const ProcessPool &) = delete;
  ProcessPool &operator=(const ProcessPool &) = delete;

  /// Registers \p Argv and returns a ticket for wait(). Never blocks: the
  /// job starts as soon as a worker is free, in FIFO order. (A blocking
  /// submit would deadlock the harness's pipelined callers, which submit
  /// the next batch's jobs before collecting the previous batch's results.)
  JobId submit(const std::vector<std::string> &Argv,
               const ProcessOptions &Opts = {});

  /// Blocks until job \p Id finishes and returns its runProcess() result.
  /// Each ticket is claimable exactly once.
  ProcessResult wait(JobId Id);

  /// Convenience: submit + wait, a drop-in for runProcess().
  ProcessResult run(const std::vector<std::string> &Argv,
                    const ProcessOptions &Opts = {}) {
    return wait(submit(Argv, Opts));
  }

  unsigned workers() const { return NumWorkers; }

  /// Lifetime pool statistics, snapshotted consistently under the pool
  /// mutex. Observability only (status feeds, benches): nothing here
  /// influences scheduling or results.
  struct Stats {
    uint64_t JobsSubmitted = 0;
    uint64_t JobsCompleted = 0;
    /// Always 0: nothing in the pool dies and restarts. Kept because
    /// status.json reports it (pools[].respawns).
    unsigned Respawns = 0;
    uint64_t QueueDepth = 0;     ///< Jobs waiting for a worker right now.
    uint64_t QueueHighWater = 0; ///< Most jobs ever waiting for a worker.
    unsigned BusyWorkers = 0;
    /// Total submit->start wait across started jobs, vs total
    /// start->completion run time: together they say whether the pool is
    /// starved (wait >> run) or oversized (run >> wait, queue empty).
    uint64_t CumQueueWaitMs = 0;
    uint64_t CumRunMs = 0;
  };
  Stats stats() const;

private:
  struct QueuedJob {
    JobId Id = 0;
    std::vector<std::string> Argv;
    ProcessOptions Opts;
    uint64_t EnqueueMs = 0; ///< submit() timestamp (stats only).
  };

  void workerMain();
  /// Stops and joins the workers; queued jobs stay queued.
  void stop();
  /// Queued jobs beyond what the idle workers are about to take. Callers
  /// hold Mu.
  uint64_t waitingLocked() const;

  const unsigned NumWorkers;
  mutable std::mutex Mu;
  /// Signals a queued job (or shutdown) to the workers.
  std::condition_variable JobReady;
  /// Signals a parked result to wait()ers.
  std::condition_variable JobDone;
  std::deque<QueuedJob> Queue;
  /// One entry per unclaimed ticket, empty until the job finishes.
  std::map<JobId, std::optional<ProcessResult>> Results;
  JobId NextId = 1;
  unsigned Busy = 0;
  /// Lifetime stats counters (guarded by Mu; see stats()).
  uint64_t JobsSubmitted = 0;
  uint64_t JobsCompleted = 0;
  uint64_t QueueHighWater = 0;
  uint64_t CumQueueWaitMs = 0;
  uint64_t CumRunMs = 0;
  bool ShuttingDown = false;
  std::vector<std::thread> Threads;
};

} // namespace spe

#endif // SPE_SUPPORT_PROCESSPOOL_H
