//===- tests/support_process_pool_test.cpp - process pool semantics ------===//
//
// The worker-thread pool under support/ProcessPool.h: result parity with a
// direct runProcess() call (the pool's whole contract), concurrent submits
// across workers, FIFO queueing beyond the workers, job timeouts leaving
// the pool serving, and the spawn primitive's promises on every path that
// starts a child (direct, pooled, piped): no child inherits another pipe's
// ends, and every child starts with the same clean signal state. Pure
// /bin/sh and grep jobs -- no compiler needed.
//
//===----------------------------------------------------------------------===//

#include "support/PipedProcess.h"
#include "support/ProcessPool.h"
#include "support/ProcessRunner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/types.h>

using namespace spe;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

TEST(ProcessPoolTest, ResultsMatchDirectRunProcess) {
  ProcessPool Pool(2);
  // Exit code plus both streams, byte for byte.
  ProcessResult R =
      Pool.run({"/bin/sh", "-c", "printf out; printf err >&2; exit 7"});
  ASSERT_EQ(R.St, ProcessResult::Status::Exited) << R.Error;
  EXPECT_EQ(R.ExitCode, 7);
  EXPECT_EQ(R.Stdout, "out");
  EXPECT_EQ(R.Stderr, "err");

  // Signal decoding survives the trip through the pool.
  R = Pool.run({"/bin/sh", "-c", "kill -SEGV $$"});
  ASSERT_EQ(R.St, ProcessResult::Status::Signaled) << R.Error;
  EXPECT_EQ(R.Signal, SIGSEGV);

  // StartFailed (exec errno discipline) is a status, not an exit code.
  R = Pool.run({"spe-no-such-binary-exists"});
  ASSERT_EQ(R.St, ProcessResult::Status::StartFailed);
  EXPECT_NE(R.Error.find("spe-no-such-binary-exists"), std::string::npos);

  // The output cap applies in the pool exactly as it does directly.
  ProcessOptions O;
  O.MaxOutputBytes = 512;
  R = Pool.run({"/bin/sh", "-c",
                "i=0; while [ $i -lt 5000 ]; do echo aaaaaaaaaa; "
                "i=$((i+1)); done"},
               O);
  ASSERT_EQ(R.St, ProcessResult::Status::Exited) << R.Error;
  EXPECT_EQ(R.Stdout.size(), 512u);
}

TEST(ProcessPoolTest, OverlappingSubmitsRunConcurrently) {
  // Two workers, two 400ms sleeps submitted back to back: if they truly
  // overlap the pair finishes in well under 800ms.
  ProcessPool Pool(2);
  auto T0 = std::chrono::steady_clock::now();
  ProcessPool::JobId A = Pool.submit({"/bin/sh", "-c", "sleep 0.4; exit 11"});
  ProcessPool::JobId B = Pool.submit({"/bin/sh", "-c", "sleep 0.4; exit 22"});
  ProcessResult RA = Pool.wait(A);
  ProcessResult RB = Pool.wait(B);
  double Secs = secondsSince(T0);
  EXPECT_TRUE(RA.exitedWith(11)) << RA.Error;
  EXPECT_TRUE(RB.exitedWith(22)) << RB.Error;
  EXPECT_LT(Secs, 0.75) << "two 0.4s jobs on two workers took " << Secs
                        << "s -- they did not overlap";

  // Lifetime stats: both jobs accounted, pool idle again, and the
  // cumulative run time reflects two ~400ms jobs even though they
  // overlapped on the wall clock.
  ProcessPool::Stats S = Pool.stats();
  EXPECT_EQ(S.JobsSubmitted, 2u);
  EXPECT_EQ(S.JobsCompleted, 2u);
  EXPECT_EQ(S.QueueDepth, 0u);
  EXPECT_EQ(S.BusyWorkers, 0u);
  EXPECT_GE(S.CumRunMs, 700u) << "per-job run time should sum, not overlap";
}

TEST(ProcessPoolTest, ManyJobsQueueAcrossFewWorkersFromManyThreads) {
  // More threads than workers: every job must come back with its own
  // (correct) result.
  ProcessPool Pool(2);
  const int N = 12;
  std::vector<std::thread> Threads;
  std::vector<ProcessResult> Results(N);
  for (int I = 0; I < N; ++I)
    Threads.emplace_back([&Pool, &Results, I] {
      Results[I] = Pool.run(
          {"/bin/sh", "-c", "exit " + std::to_string(40 + I)});
    });
  for (auto &T : Threads)
    T.join();
  for (int I = 0; I < N; ++I)
    EXPECT_TRUE(Results[I].exitedWith(40 + I))
        << "job " << I << ": " << Results[I].Error;

  // Every job was claimed, so the pool is idle again. (Whether the jobs
  // ever had to queue depends on how the threads overlap; the burst test
  // below pins queueing deterministically.)
  ProcessPool::Stats S = Pool.stats();
  EXPECT_EQ(S.JobsSubmitted, static_cast<uint64_t>(N));
  EXPECT_EQ(S.JobsCompleted, static_cast<uint64_t>(N));
  EXPECT_EQ(S.QueueDepth, 0u);
  EXPECT_EQ(S.BusyWorkers, 0u);
  EXPECT_EQ(S.Respawns, 0u);
}

TEST(ProcessPoolTest, BurstBeyondTheWorkersQueuesFifo) {
  // Six jobs submitted from one thread before any wait(), on two workers:
  // at the last submit at most two can have started, so at least four
  // were waiting for a worker. Deterministic, unlike threads that may or
  // may not overlap.
  ProcessPool Pool(2);
  const int N = 6;
  std::vector<ProcessPool::JobId> Ids;
  for (int I = 0; I < N; ++I)
    Ids.push_back(Pool.submit(
        {"/bin/sh", "-c", "sleep 0.2; exit " + std::to_string(60 + I)}));
  for (int I = 0; I < N; ++I) {
    ProcessResult R = Pool.wait(Ids[I]);
    EXPECT_TRUE(R.exitedWith(60 + I)) << "job " << I << ": " << R.Error;
  }

  ProcessPool::Stats S = Pool.stats();
  EXPECT_EQ(S.JobsSubmitted, static_cast<uint64_t>(N));
  EXPECT_EQ(S.JobsCompleted, static_cast<uint64_t>(N));
  EXPECT_GE(S.QueueHighWater, 4u);
  EXPECT_EQ(S.QueueDepth, 0u);
  EXPECT_EQ(S.BusyWorkers, 0u);
}

TEST(ProcessPoolTest, JobTimeoutLeavesThePoolServing) {
  // The job's own wall-clock kill happens inside runProcess; the worker
  // reports TimedOut and serves the next job.
  ProcessPool Pool(1);
  ProcessOptions O;
  O.TimeoutMs = 250;
  ProcessResult R = Pool.run({"/bin/sh", "-c", "sleep 30"}, O);
  EXPECT_EQ(R.St, ProcessResult::Status::TimedOut);

  R = Pool.run({"/bin/sh", "-c", "exit 3"});
  EXPECT_TRUE(R.exitedWith(3)) << R.Error;
}

TEST(ProcessPoolTest, ChildrenInheritOnlyTheStandardFds) {
  // Regression: pipes were created without CLOEXEC, so a child held the
  // parent-side ends of every pipe open at its fork -- a live sibling
  // PipedProcess's stdin and stdout (the fleet's missing-EOF hang). Next to
  // a live PipedProcess and a 2-worker pool, children spawned from four
  // threads at once -- piped, direct and pooled -- must each hold exactly
  // fds 0, 1 and 2.
  //
  // Descriptors the test runner left open (ctest passes one) are not this
  // code's leak: mark them CLOEXEC so only pipes created below can show.
  std::vector<int> Open;
  for (const auto &E : std::filesystem::directory_iterator("/proc/self/fd"))
    Open.push_back(std::stoi(E.path().filename().string()));
  for (int Fd : Open)
    if (Fd > 2)
      fcntl(Fd, F_SETFD, FD_CLOEXEC);

  PipedProcess Cat;
  std::string Err;
  ASSERT_TRUE(Cat.start({"cat"}, Err)) << Err;
  ProcessPool Pool(2);

  const std::vector<std::string> ListFds = {"/bin/sh", "-c",
                                            "ls /proc/$$/fd"};
  auto OneLine = [](std::string S) {
    std::replace(S.begin(), S.end(), '\n', ' ');
    return S;
  };
  constexpr int NumThreads = 4, Rounds = 5;
  // Per thread: one fd listing per spawn, lines joined by spaces.
  std::vector<std::vector<std::string>> Listings(NumThreads);
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < Rounds; ++I) {
        PipedProcess P;
        std::string E, Line, Joined;
        if (P.start(ListFds, E))
          while (P.readLine(Line))
            Joined += Line + " ";
        P.wait();
        Listings[T].push_back("piped: " + Joined);
        Listings[T].push_back("direct: " + OneLine(runProcess(ListFds).Stdout));
        Listings[T].push_back("pooled: " + OneLine(Pool.run(ListFds).Stdout));
      }
    });
  for (std::thread &T : Threads)
    T.join();

  const char *Paths[] = {"piped: ", "direct: ", "pooled: "};
  for (const std::vector<std::string> &PerThread : Listings) {
    ASSERT_EQ(PerThread.size(), 3u * Rounds);
    for (size_t I = 0; I < PerThread.size(); ++I)
      EXPECT_EQ(PerThread[I], std::string(Paths[I % 3]) + "0 1 2 ");
  }
}

TEST(ProcessPoolTest, ChildrenStartWithTheSameSignalStateOnEveryPath) {
  // Regression: a direct child inherited the spawning thread's signal mask
  // (SIGPIPE blocked), and a pooled child inherited the pool's SIGPIPE
  // SIG_IGN, which survives exec. Spawned from a thread with SIGPIPE
  // blocked -- the pool created there too, so its worker inherits the
  // mask -- every path must start its child with SIGPIPE neither blocked
  // nor ignored, and all three must report one signal state. grep runs
  // directly: a shell would reset its own mask and hide the leak.
  const std::vector<std::string> Argv = {"grep", "-E", "^Sig(Ign|Blk)",
                                         "/proc/self/status"};
  std::string Direct, Pooled, Piped;
  std::thread Spawner([&] {
    sigset_t PipeSet;
    sigemptyset(&PipeSet);
    sigaddset(&PipeSet, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &PipeSet, nullptr);
    ProcessPool Pool(1);
    Direct = runProcess(Argv).Stdout;
    Pooled = Pool.run(Argv).Stdout;
    PipedProcess P;
    std::string Err, Line;
    if (P.start(Argv, Err))
      while (P.readLine(Line))
        Piped += Line + "\n";
    P.wait();
  });
  Spawner.join();

  // /proc/self/status lines read "SigBlk:\t<16 hex digits>".
  auto Mask = [](const std::string &Status, const std::string &Key) {
    size_t At = Status.find(Key + ":");
    return At == std::string::npos
               ? ~uint64_t(0)
               : std::stoull(Status.substr(At + Key.size() + 1), nullptr, 16);
  };
  const uint64_t SigpipeBit = uint64_t(1) << (SIGPIPE - 1);
  const std::pair<const char *, const std::string *> Paths[] = {
      {"direct", &Direct}, {"pooled", &Pooled}, {"piped", &Piped}};
  for (const auto &[Path, Out] : Paths) {
    EXPECT_EQ(Mask(*Out, "SigBlk") & SigpipeBit, 0u) << Path << ":\n" << *Out;
    EXPECT_EQ(Mask(*Out, "SigIgn") & SigpipeBit, 0u) << Path << ":\n" << *Out;
  }
  EXPECT_EQ(Pooled, Direct);
  EXPECT_EQ(Piped, Direct);
}
