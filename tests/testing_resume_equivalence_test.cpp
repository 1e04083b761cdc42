//===- tests/testing_resume_equivalence_test.cpp - kill-point battery ----===//
//
// The headline guarantee of the persistence layer: a campaign killed at an
// *arbitrary* instant and resumed from its last on-disk checkpoint ends
// with a CampaignResult -- unique bugs, raw findings, coverage, triage,
// and every deterministic counter -- bit-identical to the uninterrupted
// run, at 1, 2, and 4 worker threads, and when the resume runs on another
// thread count than the killed campaign. The battery interrupts a campaign
// at every checkpoint boundary and at randomized fuzz points, with and
// without the oracle cache + on-disk store, and kills the second of two
// persona campaigns that share one cache and one store; it also pins the
// rejection paths (option/seed-list skew, missing snapshots) and that
// checkpointing itself does not perturb results.
//
//===----------------------------------------------------------------------===//

#include "compiler/Passes.h"
#include "persist/Checkpoint.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>

using namespace spe;

namespace {

/// Small-but-busy campaign shape: two distinct seeds plus a repeat of the
/// first, so the oracle cache sees real cross-seed hits whose counters the
/// resume must reproduce exactly.
std::vector<std::string> testSeeds() {
  const std::vector<std::string> &Embedded = embeddedSeeds();
  return {Embedded[0], Embedded[2], Embedded[0]};
}

HarnessOptions baseOptions(unsigned Threads) {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Opts.VariantBudget = 30;
  Opts.Threads = Threads;
  Opts.CheckpointEveryN = 5; // Small cadence: many boundaries to kill at.
  return Opts;
}

struct TempDir {
  std::string Dir;
  explicit TempDir(const std::string &Name) : Dir("resume_test_tmp/" + Name) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  std::string path(const char *File) const { return Dir + "/" + File; }
};

struct RunOutput {
  CampaignResult Result;
  CoverageRegistry Cov;
};

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// The uninterrupted reference: checkpointing on (it must not perturb
/// anything), no crash.
RunOutput referenceRun(unsigned Threads, bool UseCache, bool UseTriage,
                       const std::string &Tag) {
  TempDir T("ref_" + Tag);
  RunOutput Out;
  registerPassCoverageCatalog(Out.Cov);
  OracleCache Cache;
  HarnessOptions Opts = baseOptions(Threads);
  Opts.Cov = &Out.Cov;
  Opts.CheckpointPath = T.path("campaign.ck");
  Opts.Triage = UseTriage;
  if (UseCache) {
    Opts.Cache = &Cache;
    Opts.OracleStorePath = T.path("oracle.log");
  }
  Out.Result = DifferentialHarness(Opts).runCampaign(testSeeds());
  return Out;
}

/// Kill the campaign after \p KillAfter variants, then resume from disk,
/// at \p ResumeThreads threads when set (else at \p Threads again). Fresh
/// cache/coverage objects stand in for the new process's state.
RunOutput killAndResume(uint64_t KillAfter, unsigned Threads, bool UseCache,
                        bool UseTriage, const std::string &Tag,
                        unsigned ResumeThreads = 0) {
  TempDir T("kill_" + Tag);
  std::vector<std::string> Seeds = testSeeds();

  {
    CoverageRegistry CrashCov;
    registerPassCoverageCatalog(CrashCov);
    OracleCache CrashCache;
    HarnessOptions Opts = baseOptions(Threads);
    Opts.Cov = &CrashCov;
    Opts.CheckpointPath = T.path("campaign.ck");
    Opts.Triage = UseTriage;
    if (UseCache) {
      Opts.Cache = &CrashCache;
      Opts.OracleStorePath = T.path("oracle.log");
    }
    Opts.SimulateCrashAfter = KillAfter;
    // The "crashed process": its return value and in-memory state die here.
    DifferentialHarness(Opts).runCampaign(Seeds);
  }

  RunOutput Out;
  registerPassCoverageCatalog(Out.Cov);
  OracleCache ResumeCache;
  HarnessOptions Opts =
      baseOptions(ResumeThreads != 0 ? ResumeThreads : Threads);
  Opts.Cov = &Out.Cov;
  Opts.CheckpointPath = T.path("campaign.ck");
  Opts.Triage = UseTriage;
  if (UseCache) {
    Opts.Cache = &ResumeCache;
    Opts.OracleStorePath = T.path("oracle.log");
  }
  std::string Err;
  EXPECT_TRUE(DifferentialHarness(Opts).resumeCampaign(Seeds, Out.Result,
                                                       Err))
      << Err;
  return Out;
}

void expectIdentical(const RunOutput &Resumed, const RunOutput &Reference,
                     const std::string &Tag) {
  EXPECT_TRUE(Resumed.Result == Reference.Result)
      << Tag << ": resumed result diverged ("
      << Resumed.Result.VariantsEnumerated << "/"
      << Reference.Result.VariantsEnumerated << " variants, "
      << Resumed.Result.UniqueBugs.size() << "/"
      << Reference.Result.UniqueBugs.size() << " bugs, "
      << Resumed.Result.OracleExecutions << "/"
      << Reference.Result.OracleExecutions << " oracle execs, "
      << Resumed.Result.OracleCacheHits << "/"
      << Reference.Result.OracleCacheHits << " cache hits)";
  EXPECT_EQ(Resumed.Cov.hitSet(), Reference.Cov.hitSet()) << Tag;
}

} // namespace

TEST(ResumeEquivalenceTest, CheckpointingItselfDoesNotPerturbResults) {
  // A checkpointed campaign must equal the plain one bit for bit, and the
  // final snapshot must be marked complete.
  HarnessOptions Plain = baseOptions(1);
  CampaignResult Reference = DifferentialHarness(Plain).runCampaign(testSeeds());
  ASSERT_GT(Reference.VariantsEnumerated, 0u);

  for (unsigned Threads : {1u, 2u, 4u}) {
    RunOutput Checkpointed =
        referenceRun(Threads, false, false, "perturb_t" +
                                                std::to_string(Threads));
    EXPECT_TRUE(Checkpointed.Result == Reference) << Threads << " threads";
  }
}

TEST(ResumeEquivalenceTest, KillAtEveryCheckpointBoundary) {
  // Kill exactly at each multiple of the publish cadence -- plus K=1,
  // death before the first publish (the crash-before-any-checkpoint
  // recovery path; K=0 would mean "simulation off", not "die at once") --
  // and resume; repeat per thread count.
  for (unsigned Threads : {1u, 2u, 4u}) {
    std::string Tag = "bound_t" + std::to_string(Threads);
    RunOutput Reference = referenceRun(Threads, false, false, Tag);
    uint64_t Total = Reference.Result.VariantsEnumerated;
    ASSERT_GT(Total, 10u);
    std::vector<uint64_t> KillPoints = {1};
    for (uint64_t K = 5; K < Total; K += 5)
      KillPoints.push_back(K);
    for (uint64_t K : KillPoints) {
      std::string Point = Tag + "_k" + std::to_string(K);
      RunOutput Resumed = killAndResume(K, Threads, false, false, Point);
      expectIdentical(Resumed, Reference, Point);
    }
  }
}

TEST(ResumeEquivalenceTest, KillAtRandomizedFuzzPoints) {
  // >= 20 randomized interrupt points spread over the thread counts, off
  // the checkpoint cadence on purpose.
  std::mt19937_64 Rng(0xC0FFEE);
  for (unsigned Threads : {1u, 2u, 4u}) {
    std::string Tag = "fuzz_t" + std::to_string(Threads);
    RunOutput Reference = referenceRun(Threads, false, false, Tag);
    uint64_t Total = Reference.Result.VariantsEnumerated;
    ASSERT_GT(Total, 2u);
    for (int I = 0; I < 8; ++I) {
      uint64_t K = 1 + Rng() % (Total - 1);
      std::string Point = Tag + "_k" + std::to_string(K) + "_i" +
                          std::to_string(I);
      RunOutput Resumed = killAndResume(K, Threads, false, false, Point);
      expectIdentical(Resumed, Reference, Point);
    }
  }
}

TEST(ResumeEquivalenceTest, KillPointsWithOracleCacheAndStore) {
  // With the memoizing cache + on-disk store active the resume must also
  // reproduce OracleExecutions / OracleCacheHits exactly: the store is
  // truncated to the snapshot's recorded length, so verdicts computed
  // after the last publish are recomputed exactly like the uninterrupted
  // run computed them. The repeated seed guarantees real cache traffic.
  std::mt19937_64 Rng(0xFEEDFACE);
  for (unsigned Threads : {1u, 2u, 4u}) {
    std::string Tag = "cache_t" + std::to_string(Threads);
    RunOutput Reference = referenceRun(Threads, true, false, Tag);
    ASSERT_GT(Reference.Result.OracleCacheHits, 0u)
        << "the repeated seed should produce cache hits";
    uint64_t Total = Reference.Result.VariantsEnumerated;
    for (int I = 0; I < 4; ++I) {
      uint64_t K = 1 + Rng() % (Total - 1);
      std::string Point = Tag + "_k" + std::to_string(K) + "_i" +
                          std::to_string(I);
      RunOutput Resumed = killAndResume(K, Threads, true, false, Point);
      expectIdentical(Resumed, Reference, Point);
    }
  }
}

TEST(ResumeEquivalenceTest, SnapshotResumesAtAnotherThreadCount) {
  // Threads is result-neutral: a snapshot's in-flight section lists the
  // seed's rank chunks, cut the same way at every thread count, so a
  // campaign killed at one thread count resumes at another -- to the
  // uninterrupted single-thread result, oracle-cost counters included.
  RunOutput Reference = referenceRun(1, true, false, "rethread_ref");
  uint64_t Total = Reference.Result.VariantsEnumerated;
  ASSERT_GT(Total, 20u);
  struct Switch {
    unsigned Written, Resumed;
  };
  for (Switch S : {Switch{2, 3}, Switch{1, 4}}) {
    std::string Tag = "rethread_" + std::to_string(S.Written) + "to" +
                      std::to_string(S.Resumed);
    for (uint64_t K : {uint64_t(1), uint64_t(7), Total / 3, Total / 2,
                       Total - 3}) {
      std::string Point = Tag + "_k" + std::to_string(K);
      RunOutput Resumed =
          killAndResume(K, S.Written, true, false, Point, S.Resumed);
      expectIdentical(Resumed, Reference, Point);
    }
  }
}

namespace {

/// A campaign with coverage on at \p BatchSize, killed after \p KillAfter
/// variants: the snapshot it left on disk, and (when \p Resume) the
/// result of resuming from it.
struct BatchedKill {
  CampaignCheckpoint Snap;
  RunOutput Resumed;
};

BatchedKill killBatched(uint64_t KillAfter, unsigned Threads,
                        size_t BatchSize, bool Resume, const std::string &Tag) {
  TempDir T("batch_" + Tag);
  std::vector<std::string> Seeds = testSeeds();
  HarnessOptions Opts = baseOptions(Threads);
  Opts.BatchSize = BatchSize;
  Opts.CheckpointPath = T.path("campaign.ck");
  BatchedKill Out;
  {
    CoverageRegistry CrashCov;
    registerPassCoverageCatalog(CrashCov);
    HarnessOptions Doomed = Opts;
    Doomed.Cov = &CrashCov;
    Doomed.SimulateCrashAfter = KillAfter;
    DifferentialHarness(Doomed).runCampaign(Seeds);
  }
  std::string Err;
  EXPECT_TRUE(CampaignCheckpoint::loadFrom(Opts.CheckpointPath, Out.Snap, Err))
      << Tag << ": " << Err;
  if (Resume) {
    registerPassCoverageCatalog(Out.Resumed.Cov);
    Opts.Cov = &Out.Resumed.Cov;
    EXPECT_TRUE(DifferentialHarness(Opts).resumeCampaign(
        Seeds, Out.Resumed.Result, Err))
        << Tag << ": " << Err;
  }
  return Out;
}

} // namespace

TEST(ResumeEquivalenceTest, BatchesAcrossChunksKeepEachChunksCoverage) {
  // Batched, a chunk's last rows may still be queued when the next chunk's
  // first rows join them, and the chunk's final publish -- which writes
  // the file once the cadence is due -- runs when those rows are
  // recorded. Every chunk slot a kill leaves on disk must hold what the
  // unbatched run's slot holds in the same cursor state, coverage hits
  // included; otherwise a kill between one chunk's final write and the
  // next chunk's publish resumes without coverage that only the first
  // chunk's last rows reach. Kills after every variant of the campaign.
  for (unsigned Threads : {1u, 2u}) {
    std::string Tag = "t" + std::to_string(Threads);
    RunOutput Reference = referenceRun(Threads, false, false, "batch_" + Tag);
    uint64_t Total = Reference.Result.VariantsEnumerated;
    ASSERT_GT(Total, 20u);
    unsigned FinishedSlotsCompared = 0;
    for (uint64_t K = 1; K < Total; ++K) {
      std::string Point = Tag + "_k" + std::to_string(K);
      BatchedKill Unbatched =
          killBatched(K, Threads, 1, false, Point + "_b1");
      BatchedKill Batched = killBatched(K, Threads, 4, true, Point + "_b4");
      expectIdentical(Batched.Resumed, Reference, Point);
      const CampaignCheckpoint &U = Unbatched.Snap, &B = Batched.Snap;
      if (!U.InFlight || !B.InFlight || U.NextSeed != B.NextSeed)
        continue;
      ASSERT_EQ(U.Workers.size(), B.Workers.size()) << Point;
      for (size_t C = 0; C < U.Workers.size(); ++C) {
        const WorkerCheckpoint &UC = U.Workers[C], &BC = B.Workers[C];
        if (UC.Finished != BC.Finished || !(UC.Cursor == BC.Cursor))
          continue;
        EXPECT_TRUE(UC.Partial == BC.Partial) << Point << " chunk " << C;
        EXPECT_EQ(UC.CovHits, BC.CovHits) << Point << " chunk " << C;
        FinishedSlotsCompared += UC.Finished;
      }
    }
    EXPECT_GT(FinishedSlotsCompared, 0u) << Tag;
  }
}

namespace {

/// The version-sweep corpus: the embedded seeds plus 40 generated programs
/// with uninitialized locals.
std::vector<std::string> sweepSeeds() {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(2000, 40, Opts);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  return Seeds;
}

/// The gcc-sim 4.8 and clang-sim 3.6 campaigns over \p Seeds through one
/// shared cache, so the second replays the first one's verdicts. A
/// non-empty \p Dir gives each persona a checkpoint and both one oracle
/// store; a nonzero \p KillAfter kills the second persona after that many
/// variants and resumes it with a fresh cache, warm only from the store.
CampaignResult twoPersonaSweep(const std::vector<std::string> &Seeds,
                               const std::string &Dir, uint64_t KillAfter) {
  OracleCache Cache;
  CampaignResult Total;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    HarnessOptions Opts;
    Opts.Configs =
        HarnessOptions::crashMatrix(P, P == Persona::GccSim ? 48 : 36);
    Opts.VariantBudget = 400;
    Opts.Cache = &Cache;
    if (!Dir.empty()) {
      Opts.CheckpointPath =
          Dir + (P == Persona::GccSim ? "/gcc.ck" : "/clang.ck");
      Opts.OracleStorePath = Dir + "/oracle.log";
      Opts.CheckpointEveryN = 1000;
    }
    if (KillAfter == 0 || P == Persona::GccSim) {
      Total.merge(DifferentialHarness(Opts).runCampaign(Seeds));
      continue;
    }
    HarnessOptions Doomed = Opts;
    Doomed.SimulateCrashAfter = KillAfter;
    DifferentialHarness(Doomed).runCampaign(Seeds);
    OracleCache FreshCache;
    Opts.Cache = &FreshCache;
    CampaignResult Resumed;
    std::string Err;
    EXPECT_TRUE(DifferentialHarness(Opts).resumeCampaign(Seeds, Resumed, Err))
        << Err;
    Total.merge(Resumed);
  }
  return Total;
}

} // namespace

TEST(ResumeEquivalenceTest, PersonaSweepSharingOneCacheAndStoreResumesExactly) {
  // Two persona campaigns share one cache and one store. Checkpointing
  // them, or killing the second at a quarter of all variants and resuming
  // it in a fresh process, must leave the result bit-identical to the
  // plain run, oracle-cost counters included. A second generation over
  // the complete store starts warm, so only its findings must match.
  std::vector<std::string> Seeds = sweepSeeds();
  CampaignResult Plain = twoPersonaSweep(Seeds, "", 0);
  ASSERT_GT(Plain.OracleCacheHits, 0u);

  TempDir Checkpointed("sweep_checkpointed");
  EXPECT_TRUE(twoPersonaSweep(Seeds, Checkpointed.Dir, 0) == Plain)
      << "checkpointing perturbed the sweep";

  TempDir Killed("sweep_killed");
  CampaignResult Resumed =
      twoPersonaSweep(Seeds, Killed.Dir, Plain.VariantsEnumerated / 4);
  EXPECT_TRUE(Resumed == Plain)
      << Resumed.OracleExecutions << "/" << Plain.OracleExecutions
      << " oracle execs, " << Resumed.OracleCacheHits << "/"
      << Plain.OracleCacheHits << " cache hits";

  std::filesystem::remove(Killed.path("gcc.ck"));
  std::filesystem::remove(Killed.path("clang.ck"));
  CampaignResult Gen2 = twoPersonaSweep(Seeds, Killed.Dir, 0);
  EXPECT_TRUE(Gen2.UniqueBugs == Plain.UniqueBugs);
  EXPECT_TRUE(Gen2.RawFindings == Plain.RawFindings);
  EXPECT_EQ(Gen2.VariantsTested, Plain.VariantsTested);
}

TEST(ResumeEquivalenceTest, SparseCheckpointCadencesStillResumeExactly) {
  // Cadences coarser than a seed (commit writes amortized across seeds)
  // and coarser than the whole campaign (nothing on disk but the initial
  // snapshot at kill time) must still resume bit-identically -- they just
  // redo more work.
  std::mt19937_64 Rng(0xBADC0DE);
  for (uint64_t EveryN : {40u, 100000u}) {
    for (unsigned Threads : {1u, 2u}) {
      std::string Tag = "sparse_n" + std::to_string(EveryN) + "_t" +
                        std::to_string(Threads);
      TempDir RefT("ref_" + Tag);
      RunOutput Reference;
      registerPassCoverageCatalog(Reference.Cov);
      HarnessOptions RefOpts = baseOptions(Threads);
      RefOpts.CheckpointEveryN = EveryN;
      RefOpts.Cov = &Reference.Cov;
      RefOpts.CheckpointPath = RefT.path("campaign.ck");
      Reference.Result =
          DifferentialHarness(RefOpts).runCampaign(testSeeds());

      uint64_t Total = Reference.Result.VariantsEnumerated;
      uint64_t K = 1 + Rng() % (Total - 1);
      TempDir T("kill_" + Tag);
      {
        CoverageRegistry Cov;
        registerPassCoverageCatalog(Cov);
        HarnessOptions Opts = baseOptions(Threads);
        Opts.CheckpointEveryN = EveryN;
        Opts.Cov = &Cov;
        Opts.CheckpointPath = T.path("campaign.ck");
        Opts.SimulateCrashAfter = K;
        DifferentialHarness(Opts).runCampaign(testSeeds());
      }
      RunOutput Resumed;
      registerPassCoverageCatalog(Resumed.Cov);
      HarnessOptions Opts = baseOptions(Threads);
      Opts.CheckpointEveryN = EveryN;
      Opts.Cov = &Resumed.Cov;
      Opts.CheckpointPath = T.path("campaign.ck");
      std::string Err;
      ASSERT_TRUE(DifferentialHarness(Opts).resumeCampaign(
          testSeeds(), Resumed.Result, Err))
          << Tag << ": " << Err;
      expectIdentical(Resumed, Reference, Tag + "_k" + std::to_string(K));
    }
  }
}

TEST(ResumeEquivalenceTest, TriageOutputIsIdenticalAfterResume) {
  // Triage (dedup + reduction + rank minimization) runs post-campaign; a
  // resumed campaign must produce the identical triaged report, including
  // the reduction cost accounting.
  RunOutput Reference = referenceRun(2, true, true, "triage");
  ASSERT_FALSE(Reference.Result.Triaged.empty());
  uint64_t Total = Reference.Result.VariantsEnumerated;
  for (uint64_t K : {Total / 3, Total / 2}) {
    std::string Point = "triage_k" + std::to_string(K);
    RunOutput Resumed = killAndResume(K, 2, true, true, Point);
    expectIdentical(Resumed, Reference, Point);
    EXPECT_EQ(Resumed.Result.Triaged.size(), Reference.Result.Triaged.size());
    EXPECT_TRUE(Resumed.Result.Reduction == Reference.Result.Reduction);
  }
}

TEST(ResumeEquivalenceTest, ResumeOfACompletedCampaignReturnsTheFinalResult) {
  TempDir T("complete");
  std::vector<std::string> Seeds = testSeeds();
  CoverageRegistry Cov1;
  registerPassCoverageCatalog(Cov1);
  HarnessOptions Opts = baseOptions(2);
  Opts.Cov = &Cov1;
  Opts.CheckpointPath = T.path("campaign.ck");
  CampaignResult Reference = DifferentialHarness(Opts).runCampaign(Seeds);

  CoverageRegistry Cov2;
  registerPassCoverageCatalog(Cov2);
  HarnessOptions ResumeOpts = baseOptions(2);
  ResumeOpts.Cov = &Cov2;
  ResumeOpts.CheckpointPath = T.path("campaign.ck");
  CampaignResult Result;
  std::string Err;
  std::string Before = fileBytes(T.path("campaign.ck"));
  ASSERT_TRUE(
      DifferentialHarness(ResumeOpts).resumeCampaign(Seeds, Result, Err))
      << Err;
  EXPECT_TRUE(Result == Reference);
  EXPECT_EQ(Cov2.hitSet(), Cov1.hitSet());
  // The resume runs the ordinary campaign tail with no seeds left, which
  // rewrites the Complete snapshot -- byte for byte unchanged.
  EXPECT_EQ(fileBytes(T.path("campaign.ck")), Before);
}

TEST(ResumeEquivalenceTest, ResumeRejectsSkewedInputs) {
  TempDir T("reject");
  std::vector<std::string> Seeds = testSeeds();
  HarnessOptions Opts = baseOptions(2);
  Opts.CheckpointPath = T.path("campaign.ck");
  Opts.SimulateCrashAfter = 12;
  DifferentialHarness(Opts).runCampaign(Seeds);

  CampaignResult Result;
  std::string Err;
  auto SnapshotBytes = [&] { return fileBytes(T.path("campaign.ck")); };
  std::string Before = SnapshotBytes();

  // Different budget: options fingerprint mismatch.
  HarnessOptions BadBudget = Opts;
  BadBudget.SimulateCrashAfter = 0;
  BadBudget.VariantBudget = 31;
  EXPECT_FALSE(
      DifferentialHarness(BadBudget).resumeCampaign(Seeds, Result, Err));
  EXPECT_NE(Err.find("options"), std::string::npos) << Err;
  // A rejected resume must leave the snapshot untouched: it is exactly
  // the state a corrected retry needs.
  EXPECT_EQ(SnapshotBytes(), Before);

  // Coverage registry attached where the snapshot ran without one:
  // options fingerprint mismatch (the snapshot recorded no hit sets to
  // restore, so proceeding would silently skew coverage).
  CoverageRegistry LateCov;
  registerPassCoverageCatalog(LateCov);
  HarnessOptions BadCov = Opts;
  BadCov.SimulateCrashAfter = 0;
  BadCov.Cov = &LateCov;
  EXPECT_FALSE(
      DifferentialHarness(BadCov).resumeCampaign(Seeds, Result, Err));
  EXPECT_NE(Err.find("options"), std::string::npos) << Err;

  // Different corpus: seed-list fingerprint mismatch.
  HarnessOptions Good = Opts;
  Good.SimulateCrashAfter = 0;
  std::vector<std::string> OtherSeeds = Seeds;
  OtherSeeds.pop_back();
  EXPECT_FALSE(
      DifferentialHarness(Good).resumeCampaign(OtherSeeds, Result, Err));
  EXPECT_NE(Err.find("seed-list"), std::string::npos) << Err;

  // Missing snapshot.
  HarnessOptions NoFile = Good;
  NoFile.CheckpointPath = T.path("nonexistent.ck");
  EXPECT_FALSE(
      DifferentialHarness(NoFile).resumeCampaign(Seeds, Result, Err));

  // No checkpoint path configured at all.
  HarnessOptions NoPath = Good;
  NoPath.CheckpointPath.clear();
  EXPECT_FALSE(
      DifferentialHarness(NoPath).resumeCampaign(Seeds, Result, Err));

  // And the unskewed resume still works.
  ASSERT_TRUE(DifferentialHarness(Good).resumeCampaign(Seeds, Result, Err))
      << Err;
}

TEST(ResumeEquivalenceTest, CorruptSnapshotIsRejectedNotMisread) {
  TempDir T("corrupt");
  std::vector<std::string> Seeds = testSeeds();
  HarnessOptions Opts = baseOptions(1);
  Opts.CheckpointPath = T.path("campaign.ck");
  Opts.SimulateCrashAfter = 9;
  DifferentialHarness(Opts).runCampaign(Seeds);
  Opts.SimulateCrashAfter = 0;

  // Truncate the snapshot file (as a torn write outside the atomic rename
  // protocol would): resume must reject it.
  auto Bytes = std::filesystem::file_size(T.path("campaign.ck"));
  std::filesystem::resize_file(T.path("campaign.ck"), Bytes / 2);
  CampaignResult Result;
  std::string Err;
  EXPECT_FALSE(DifferentialHarness(Opts).resumeCampaign(Seeds, Result, Err));
  EXPECT_NE(Err.find("checksum"), std::string::npos) << Err;
}
