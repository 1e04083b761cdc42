//===- tests/support_process_pool_test.cpp - broker pool semantics -------===//
//
// The warm pre-forked broker pool under support/ProcessPool.h: result
// parity with a direct runProcess() call (the pool's whole contract),
// concurrent submits across brokers, job timeouts staying inside the
// broker (no respawn), broker death respawned with the in-flight job
// retried exactly once, and a wedged broker group-killed within the job's
// wall-clock budget plus slack, and fd hygiene: no child, whichever spawn
// path started it, inherits another pipe's ends. Pure /bin/sh jobs -- no
// compiler needed.
//
//===----------------------------------------------------------------------===//

#include "support/PipedProcess.h"
#include "support/ProcessPool.h"
#include "support/ProcessRunner.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <thread>
#include <vector>

#include <fcntl.h>
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

  // Signal decoding travels through the result frame intact.
  R = Pool.run({"/bin/sh", "-c", "kill -SEGV $$"});
  ASSERT_EQ(R.St, ProcessResult::Status::Signaled) << R.Error;
  EXPECT_EQ(R.Signal, SIGSEGV);

  // StartFailed (exec errno discipline) is a status, not an exit code.
  R = Pool.run({"spe-no-such-binary-exists"});
  ASSERT_EQ(R.St, ProcessResult::Status::StartFailed);
  EXPECT_NE(R.Error.find("spe-no-such-binary-exists"), std::string::npos);

  // The output cap applies inside the broker exactly as it does directly.
  ProcessOptions O;
  O.MaxOutputBytes = 512;
  R = Pool.run({"/bin/sh", "-c",
                "i=0; while [ $i -lt 5000 ]; do echo aaaaaaaaaa; "
                "i=$((i+1)); done"},
               O);
  ASSERT_EQ(R.St, ProcessResult::Status::Exited) << R.Error;
  EXPECT_EQ(R.Stdout.size(), 512u);

  EXPECT_EQ(Pool.respawns(), 0u);
}

TEST(ProcessPoolTest, OverlappingSubmitsRunConcurrently) {
  // Two brokers, two 400ms sleeps submitted back to back: if they truly
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
  EXPECT_LT(Secs, 0.75) << "two 0.4s jobs on two brokers took " << Secs
                        << "s -- they did not overlap";

  // Lifetime stats: both jobs accounted, pool idle again, and the
  // cumulative run time reflects two ~400ms jobs even though they
  // overlapped on the wall clock.
  ProcessPool::Stats S = Pool.stats();
  EXPECT_EQ(S.JobsSubmitted, 2u);
  EXPECT_EQ(S.JobsCompleted, 2u);
  EXPECT_EQ(S.QueueDepth, 0u);
  EXPECT_EQ(S.BusyBrokers, 0u);
  EXPECT_GE(S.CumRunMs, 700u) << "per-job run time should sum, not overlap";
}

TEST(ProcessPoolTest, ManyJobsQueueAcrossFewBrokersFromManyThreads) {
  // More threads than brokers: submit() must block for a free broker and
  // every job must come back with its own (correct) result.
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
  EXPECT_EQ(Pool.respawns(), 0u);

  // 12 jobs over 2 brokers cannot all dispatch immediately: the FIFO
  // queue must have been exercised and fully drained by the joins.
  ProcessPool::Stats S = Pool.stats();
  EXPECT_EQ(S.JobsSubmitted, static_cast<uint64_t>(N));
  EXPECT_EQ(S.JobsCompleted, static_cast<uint64_t>(N));
  EXPECT_GE(S.QueueHighWater, 1u);
  EXPECT_EQ(S.QueueDepth, 0u);
  EXPECT_EQ(S.BusyBrokers, 0u);
  EXPECT_EQ(S.Respawns, 0u);
}

TEST(ProcessPoolTest, JobTimeoutIsHandledInsideTheBrokerWithoutRespawn) {
  // The job's own wall-clock kill happens inside the broker's runProcess;
  // the broker answers TimedOut and stays alive for the next job.
  ProcessPool Pool(1);
  ProcessOptions O;
  O.TimeoutMs = 250;
  ProcessResult R = Pool.run({"/bin/sh", "-c", "sleep 30"}, O);
  EXPECT_EQ(R.St, ProcessResult::Status::TimedOut);
  EXPECT_EQ(Pool.respawns(), 0u);

  // Same broker, next job: still functional.
  R = Pool.run({"/bin/sh", "-c", "exit 3"});
  EXPECT_TRUE(R.exitedWith(3)) << R.Error;
  EXPECT_EQ(Pool.respawns(), 0u);
}

TEST(ProcessPoolTest, DeadBrokerIsRespawnedAndTheJobRetriedOnce) {
  ProcessPool Pool(1);
  // Kill the (idle) broker; the next submit discovers the corpse on the
  // pipe, respawns, and the job still succeeds.
  ASSERT_GT(Pool.killBrokerForTest(), 0);
  // Give the SIGKILL a moment to land so the write actually fails.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ProcessResult R = Pool.run({"/bin/sh", "-c", "exit 9"});
  EXPECT_TRUE(R.exitedWith(9)) << R.Error;
  EXPECT_GE(Pool.respawns(), 1u);

  // stats() reports the same respawn count, and the retried job counts
  // once -- a retry is the same submission, not a new one.
  ProcessPool::Stats S = Pool.stats();
  EXPECT_EQ(S.Respawns, Pool.respawns());
  EXPECT_EQ(S.JobsSubmitted, 1u);
  EXPECT_EQ(S.JobsCompleted, 1u);
}

TEST(ProcessPoolTest, DeathMidJobRetriesWithoutDuplicatingTheJob) {
  ProcessPool Pool(1);
  // A job that appends a line to a file, then sleeps long enough for the
  // test to kill its broker mid-flight. The retry must run the job again
  // -- so after the dust settles the file shows the retry's write, and the
  // final result is the retry's result, delivered exactly once.
  std::string Marker = "pool_test_marker_" + std::to_string(::getpid());
  std::string Path = "/tmp/" + Marker;
  ::unlink(Path.c_str());
  ProcessPool::JobId Id = Pool.submit(
      {"/bin/sh", "-c", "echo ran >> " + Path + "; sleep 0.6; exit 5"});
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_GT(Pool.killBrokerForTest(), 0);
  ProcessResult R = Pool.wait(Id);
  EXPECT_TRUE(R.exitedWith(5)) << R.Error;
  EXPECT_GE(Pool.respawns(), 1u);

  // wait() claims a ticket exactly once; the retry result above is the one
  // and only delivery. (The file may legitimately hold one or two "ran"
  // lines -- the first attempt may or may not have reached the echo --
  // which is exactly why the harness layers solo re-verification on top:
  // side effects of a killed attempt are invisible to findings.)
  ProcessResult Next = Pool.run({"/bin/sh", "-c", "exit 1"});
  EXPECT_TRUE(Next.exitedWith(1)) << Next.Error;
  ::unlink(Path.c_str());
}

TEST(ProcessPoolTest, WedgedBrokerIsGroupKilledWithinTheSlackBudget) {
  // WedgeArgv0 makes the broker accept the job and hang forever. With a
  // 300ms job budget and 700ms slack, wait() must declare the broker
  // wedged, group-kill it, retry once (the retry wedges too), and give up
  // -- all well inside a few seconds, never hanging.
  ProcessPool Pool(1, /*SlackMs=*/700);
  ProcessOptions O;
  O.TimeoutMs = 300;
  auto T0 = std::chrono::steady_clock::now();
  ProcessResult R = Pool.run({ProcessPool::WedgeArgv0}, O);
  double Secs = secondsSince(T0);
  EXPECT_EQ(R.St, ProcessResult::Status::StartFailed);
  EXPECT_NE(R.Error.find("wedged"), std::string::npos) << R.Error;
  EXPECT_LT(Secs, 5.0) << "wedged-broker handling took " << Secs << "s";
  EXPECT_GE(Pool.respawns(), 1u);

  // The replacement broker works.
  ProcessResult Next = Pool.run({"/bin/sh", "-c", "exit 2"});
  EXPECT_TRUE(Next.exitedWith(2)) << Next.Error;
}

TEST(ProcessPoolTest, WedgedBrokerPidIsActuallyDead) {
  ProcessPool Pool(1, /*SlackMs=*/500);
  ProcessOptions O;
  O.TimeoutMs = 200;
  // Grab the current broker pid by killing nothing: killBrokerForTest
  // would interfere, so instead submit the wedge and verify afterwards
  // that whatever broker exists now is a *different* process serving jobs.
  (void)Pool.run({ProcessPool::WedgeArgv0}, O);
  unsigned RespawnsAfterWedge = Pool.respawns();
  EXPECT_GE(RespawnsAfterWedge, 1u);
  // A wedged broker that survived its group-kill would still hold the job
  // pipe and the pool would hang here; a served job proves the pool freed
  // the slot and a fresh broker took over.
  ProcessResult R = Pool.run({"/bin/sh", "-c", "exit 6"});
  EXPECT_TRUE(R.exitedWith(6)) << R.Error;
}

TEST(ProcessPoolTest, ChildrenInheritOnlyTheStandardFds) {
  // Regression: pipes were created without CLOEXEC, so a child held the
  // parent-side ends of every pipe open at its fork -- a live sibling
  // PipedProcess's stdin and stdout (the fleet's missing-EOF hang) and the
  // pool's wake and broker pipes. Next to a live PipedProcess and a
  // 2-broker pool, children spawned from four threads at once must each
  // hold exactly fds 0, 1 and 2.
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
        std::string Direct = runProcess(ListFds).Stdout;
        std::replace(Direct.begin(), Direct.end(), '\n', ' ');
        Listings[T].push_back("direct: " + Direct);
      }
    });
  for (std::thread &T : Threads)
    T.join();

  for (const std::vector<std::string> &PerThread : Listings) {
    ASSERT_EQ(PerThread.size(), 2u * Rounds);
    for (size_t I = 0; I < PerThread.size(); ++I)
      EXPECT_EQ(PerThread[I], std::string(I % 2 ? "direct: " : "piped: ") +
                                  "0 1 2 ");
  }
}
