//===- tests/testing_harness_parallel_test.cpp - parallel campaign tests -===//
//
// The load-bearing property of the multi-threaded campaign: a campaign
// whose rank chunks N threads claim must produce a CampaignResult
// identical to the single-threaded run -- same counters, same unique bugs,
// same witness programs -- and the merged coverage registry must match
// too.
//
//===----------------------------------------------------------------------===//

#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

HarnessOptions baseOptions() {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  std::vector<CompilerConfig> Clang =
      HarnessOptions::crashMatrix(Persona::ClangSim, 36);
  Opts.Configs.insert(Opts.Configs.end(), Clang.begin(), Clang.end());
  Opts.VariantBudget = 150;
  return Opts;
}

std::vector<std::string> testSeeds() {
  const std::vector<std::string> &Embedded = embeddedSeeds();
  std::vector<std::string> Seeds(Embedded.begin(),
                                 Embedded.begin() +
                                     std::min<size_t>(Embedded.size(), 4));
  return Seeds;
}

} // namespace

TEST(HarnessParallelTest, MultiThreadedCampaignIsDeterministic) {
  // One campaign input per row. The last rows run a seed whose inner x
  // shadows the outer one, so many of its classes print the same text and
  // ranks of different chunks share oracle cache keys. With a shared cache
  // only the cache's claims keep OracleExecutions and OracleCacheHits at
  // the 1-thread values when two chunks reach one text at once; that race
  // is a matter of timing, so those rows run 20 times, each on a fresh
  // cache.
  struct Input {
    std::string Name;
    std::vector<std::string> Seeds;
    ScopeModel Model;
    bool SharedCache;
    int Runs;
  };
  const std::vector<std::string> Shadowing = {
      "int main(void) { int x = 1; int y = 2; { int x = y + 3; y = y / x; "
      "} return x - y; }\n"};
  const std::vector<Input> Inputs = {
      {"embedded seeds", testSeeds(), ScopeModel::PaperMerged, false, 1},
      {"shadowing, PaperMerged", Shadowing, ScopeModel::PaperMerged, true, 20},
      {"shadowing, Lexical", Shadowing, ScopeModel::Lexical, true, 20},
      {"shadowing, DeclRegion", Shadowing, ScopeModel::DeclRegion, true, 20},
  };
  for (const Input &In : Inputs) {
    SCOPED_TRACE(In.Name);
    OracleCache SerialCache;
    HarnessOptions Serial = baseOptions();
    Serial.Threads = 1;
    Serial.Extract.Model = In.Model;
    if (In.SharedCache)
      Serial.Cache = &SerialCache;
    CampaignResult Reference =
        DifferentialHarness(Serial).runCampaign(In.Seeds);
    EXPECT_GT(Reference.VariantsEnumerated, 0u);
    if (In.SharedCache) {
      EXPECT_GT(Reference.OracleCacheHits, 0u);
    }

    for (unsigned Threads : {2u, 3u, 4u}) {
      for (int Run = 0; Run < In.Runs; ++Run) {
        OracleCache Cache;
        HarnessOptions Parallel = Serial;
        Parallel.Threads = Threads;
        if (In.SharedCache)
          Parallel.Cache = &Cache;
        CampaignResult Result =
            DifferentialHarness(Parallel).runCampaign(In.Seeds);
        EXPECT_TRUE(Result == Reference)
            << "threads=" << Threads << " run " << Run << ": "
            << Result.VariantsEnumerated << "/"
            << Reference.VariantsEnumerated << " variants, "
            << Result.UniqueBugs.size() << "/" << Reference.UniqueBugs.size()
            << " bugs, " << Result.OracleExecutions << "/"
            << Reference.OracleExecutions << " oracle execs, "
            << Result.OracleCacheHits << "/" << Reference.OracleCacheHits
            << " cache hits";
      }
    }
  }
}

TEST(HarnessParallelTest, WitnessProgramsMatchAcrossThreadCounts) {
  // Witnesses are the first finding in rank order; sharding must not change
  // which variant gets credited.
  std::vector<std::string> Seeds = testSeeds();
  HarnessOptions Serial = baseOptions();
  CampaignResult Reference = DifferentialHarness(Serial).runCampaign(Seeds);

  HarnessOptions Parallel = baseOptions();
  Parallel.Threads = 4;
  CampaignResult Result = DifferentialHarness(Parallel).runCampaign(Seeds);

  ASSERT_EQ(Result.UniqueBugs.size(), Reference.UniqueBugs.size());
  for (const auto &[Id, Bug] : Reference.UniqueBugs) {
    auto It = Result.UniqueBugs.find(Id);
    ASSERT_NE(It, Result.UniqueBugs.end()) << "bug " << Id;
    EXPECT_EQ(It->second.WitnessProgram, Bug.WitnessProgram) << "bug " << Id;
  }
}

TEST(HarnessParallelTest, CoverageMergesDeterministically) {
  std::vector<std::string> Seeds = testSeeds();

  CoverageRegistry SerialCov;
  HarnessOptions Serial = baseOptions();
  Serial.Cov = &SerialCov;
  DifferentialHarness(Serial).runCampaign(Seeds);

  CoverageRegistry ParallelCov;
  HarnessOptions Parallel = baseOptions();
  Parallel.Threads = 4;
  Parallel.Cov = &ParallelCov;
  DifferentialHarness(Parallel).runCampaign(Seeds);

  EXPECT_EQ(ParallelCov.hitSet(), SerialCov.hitSet());
  EXPECT_EQ(ParallelCov.totalPoints(), SerialCov.totalPoints());
  EXPECT_GT(ParallelCov.hitPoints(), 0u);
}

TEST(HarnessParallelTest, ZeroThreadsMeansHardwareConcurrency) {
  // Threads = 0 must run (one worker per hardware thread) and still agree
  // with the serial result.
  std::vector<std::string> Seeds = testSeeds();
  HarnessOptions Serial = baseOptions();
  CampaignResult Reference = DifferentialHarness(Serial).runCampaign(Seeds);

  HarnessOptions Auto = baseOptions();
  Auto.Threads = 0;
  CampaignResult Result = DifferentialHarness(Auto).runCampaign(Seeds);
  EXPECT_TRUE(Result == Reference);
}

TEST(HarnessParallelTest, ThreadsBeyondBudgetAreHarmless) {
  // A seed of budget 3 has 3 rank chunks, and no seed has more than 16,
  // so 17 threads run as 16 -- with a warning -- and 3 per seed.
  std::vector<std::string> Seeds = testSeeds();
  HarnessOptions Tiny = baseOptions();
  Tiny.VariantBudget = 3;
  CampaignResult Reference = DifferentialHarness(Tiny).runCampaign(Seeds);

  HarnessOptions Wide = baseOptions();
  Wide.VariantBudget = 3;
  Wide.Threads = 17;
  testing::internal::CaptureStderr();
  CampaignResult Result = DifferentialHarness(Wide).runCampaign(Seeds);
  std::string Err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(Result == Reference);
  EXPECT_LE(Result.VariantsEnumerated, 3u * Seeds.size());
  EXPECT_NE(Err.find("Threads = 17"), std::string::npos) << Err;
  EXPECT_NE(Err.find("runs on 16 threads"), std::string::npos) << Err;
}

TEST(HarnessParallelTest, ExactModeIsTheDefault) {
  EXPECT_EQ(HarnessOptions().Mode, SpeMode::Exact);
}
