//===- tests/testing_oracle_cache_test.cpp - cache cap + stats -----------===//
//
// Unit tests for the OracleCache size cap (FIFO eviction, eviction
// accounting, cap shrinking) and for the cache/store lifetime stats the
// harness surfaces on CampaignResult at campaign end.
//
//===----------------------------------------------------------------------===//

#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"

#include "gtest/gtest.h"

#include <filesystem>

using namespace spe;

namespace {

OracleCache::Entry entry(int64_t Exit) {
  OracleCache::Entry E;
  E.FrontendOk = true;
  E.Status = ExecStatus::Ok;
  E.ExitCode = Exit;
  return E;
}

} // namespace

TEST(OracleCacheCapTest, UnboundedByDefault) {
  OracleCache Cache;
  for (int I = 0; I < 100; ++I)
    Cache.insert("k" + std::to_string(I), entry(I));
  EXPECT_EQ(Cache.size(), 100u);
  EXPECT_EQ(Cache.evictions(), 0u);
}

TEST(OracleCacheCapTest, CapEvictsOldestFirst) {
  OracleCache Cache;
  Cache.setCapacity(3);
  for (int I = 0; I < 5; ++I)
    Cache.insert("k" + std::to_string(I), entry(I));
  EXPECT_EQ(Cache.size(), 3u);
  EXPECT_EQ(Cache.evictions(), 2u);

  OracleCache::Entry E;
  // k0 and k1 (the two oldest) are gone; k2..k4 survive.
  EXPECT_FALSE(Cache.lookup("k0", E));
  EXPECT_FALSE(Cache.lookup("k1", E));
  ASSERT_TRUE(Cache.lookup("k2", E));
  EXPECT_EQ(E.ExitCode, 2);
  EXPECT_TRUE(Cache.lookup("k3", E));
  EXPECT_TRUE(Cache.lookup("k4", E));
}

TEST(OracleCacheCapTest, DuplicateInsertDoesNotEvict) {
  OracleCache Cache;
  Cache.setCapacity(2);
  Cache.insert("a", entry(1));
  Cache.insert("b", entry(2));
  // First-writer-wins re-insert must neither grow the cache nor evict.
  Cache.insert("a", entry(99));
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.evictions(), 0u);
  OracleCache::Entry E;
  ASSERT_TRUE(Cache.lookup("a", E));
  EXPECT_EQ(E.ExitCode, 1);
  EXPECT_TRUE(Cache.lookup("b", E));
}

TEST(OracleCacheCapTest, ShrinkingTheCapEvictsImmediately) {
  OracleCache Cache;
  for (int I = 0; I < 6; ++I)
    Cache.insert("k" + std::to_string(I), entry(I));
  // Enabling a cap on an uncapped population orders by sorted key, so the
  // survivors are deterministic regardless of hash iteration order.
  Cache.setCapacity(2);
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(Cache.evictions(), 4u);
  OracleCache::Entry E;
  EXPECT_TRUE(Cache.lookup("k4", E));
  EXPECT_TRUE(Cache.lookup("k5", E));
  EXPECT_FALSE(Cache.lookup("k0", E));
}

TEST(OracleCacheCapTest, ClearResetsEvictionAccounting) {
  OracleCache Cache;
  Cache.setCapacity(1);
  Cache.insert("a", entry(1));
  Cache.insert("b", entry(2));
  EXPECT_EQ(Cache.evictions(), 1u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.evictions(), 0u);
}

TEST(OracleCacheCapTest, CampaignSurfacesEvictionAndStoreStats) {
  // A single-threaded campaign with a tightly capped cache: the eviction
  // count and the on-disk store size must land on CampaignResult, and a
  // capped cache must not change what the campaign finds.
  std::filesystem::create_directories("oracle_cache_test_tmp");
  std::string Dir = "oracle_cache_test_tmp";
  std::vector<std::string> Seeds(embeddedSeeds().begin(),
                                 embeddedSeeds().begin() + 2);

  HarnessOptions Plain;
  Plain.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Plain.VariantBudget = 40;
  CampaignResult Reference = DifferentialHarness(Plain).runCampaign(Seeds);

  OracleCache Capped;
  Capped.setCapacity(5);
  HarnessOptions Opts = Plain;
  Opts.Cache = &Capped;
  Opts.CheckpointPath = Dir + "/campaign.ck";
  Opts.OracleStorePath = Dir + "/oracle.log";
  std::filesystem::remove(Opts.CheckpointPath);
  std::filesystem::remove(Opts.OracleStorePath);
  CampaignResult Result = DifferentialHarness(Opts).runCampaign(Seeds);

  // Same bugs and coverage-visible outcomes despite the tiny cap.
  EXPECT_EQ(Result.UniqueBugs, Reference.UniqueBugs);
  EXPECT_EQ(Result.VariantsTested, Reference.VariantsTested);

  EXPECT_EQ(Result.OracleCacheEvictions, Capped.evictions());
  EXPECT_GT(Result.OracleCacheEvictions, 0u);
  EXPECT_GT(Result.OracleStoreBytes, 0u);
  EXPECT_EQ(Result.OracleStoreBytes,
            std::filesystem::file_size(Opts.OracleStorePath));
}

TEST(OracleCacheKeyTest, CampaignsWithDifferentBudgetsShareOneCache) {
  // The fleet test's seed: retargeting the loop bound onto m gives a
  // variant that ends after about 240K interpreter steps, so its verdict
  // is Timeout at 100K steps and Ok at 2M.
  const std::string Seed = "int main(void) {\n"
                           "  int n = 3;\n"
                           "  int m = 20000;\n"
                           "  int i = 0;\n"
                           "  while (i < n)\n"
                           "    i = i + 1;\n"
                           "  return i;\n"
                           "}\n";
  HarnessOptions Wide;
  Wide.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Wide.VariantBudget = 100;
  HarnessOptions Tight = Wide;
  Tight.OracleMaxSteps = 100'000;
  const CampaignResult TightRef = DifferentialHarness(Tight).runCampaign({Seed});
  const CampaignResult WideRef = DifferentialHarness(Wide).runCampaign({Seed});
  ASSERT_GT(TightRef.VariantsOracleExcluded, WideRef.VariantsOracleExcluded);

  // Whichever campaign fills the cache first, each gets its own verdicts.
  for (bool TightFirst : {true, false}) {
    OracleCache Shared;
    Tight.Cache = &Shared;
    Wide.Cache = &Shared;
    CampaignResult First = DifferentialHarness(TightFirst ? Tight : Wide)
                               .runCampaign({Seed});
    CampaignResult Second = DifferentialHarness(TightFirst ? Wide : Tight)
                                .runCampaign({Seed});
    const CampaignResult &T = TightFirst ? First : Second;
    const CampaignResult &W = TightFirst ? Second : First;
    EXPECT_EQ(T.VariantsOracleExcluded, TightRef.VariantsOracleExcluded);
    EXPECT_EQ(T.VariantsTested, TightRef.VariantsTested);
    EXPECT_EQ(W.VariantsOracleExcluded, WideRef.VariantsOracleExcluded);
    EXPECT_EQ(W.VariantsTested, WideRef.VariantsTested);
  }
}
