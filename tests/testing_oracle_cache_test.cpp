//===- tests/testing_oracle_cache_test.cpp - cache + store stats ---------===//
//
// Unit tests for OracleCache (first-writer-wins inserts, clear(), claims
// that make concurrent misses of one key compute it once, the
// budget-salted verdict key) and for the store size the harness surfaces
// on CampaignResult at campaign end.
//
//===----------------------------------------------------------------------===//

#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

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

TEST(OracleCacheTest, UnboundedByDefault) {
  OracleCache Cache;
  for (int I = 0; I < 100; ++I)
    Cache.insert("k" + std::to_string(I), entry(I));
  EXPECT_EQ(Cache.size(), 100u);
}

TEST(OracleCacheTest, DuplicateInsertKeepsTheFirstVerdict) {
  OracleCache Cache;
  Cache.insert("a", entry(1));
  Cache.insert("b", entry(2));
  // First-writer-wins re-insert must neither grow the cache nor replace.
  Cache.insert("a", entry(99));
  EXPECT_EQ(Cache.size(), 2u);
  OracleCache::Entry E;
  ASSERT_TRUE(Cache.lookup("a", E));
  EXPECT_EQ(E.ExitCode, 1);
  EXPECT_TRUE(Cache.lookup("b", E));
}

TEST(OracleCacheTest, ClearEmptiesTheCache) {
  OracleCache Cache;
  Cache.insert("a", entry(1));
  Cache.insert("b", entry(2));
  OracleCache::Entry E;
  EXPECT_TRUE(Cache.lookup("a", E));
  EXPECT_FALSE(Cache.lookup("c", E));
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.hits(), 0u);
  EXPECT_EQ(Cache.misses(), 0u);
}

TEST(OracleCacheTest, ConcurrentLookupsOfOneKeyComputeItOnce) {
  // Four threads reach each key at once. The first lookup claims it; the
  // others wait for its verdict and count as hits, so every key is
  // computed exactly once whatever the interleaving.
  constexpr int Threads = 4;
  constexpr int Keys = 50;
  OracleCache Cache;
  std::atomic<int> Computed{0};
  std::atomic<int> Ready{0};
  std::vector<std::thread> Workers;
  for (int T = 0; T < Threads; ++T)
    Workers.emplace_back([&] {
      ++Ready;
      while (Ready < Threads)
        std::this_thread::yield();
      for (int K = 0; K < Keys; ++K) {
        std::string Key = "k" + std::to_string(K);
        OracleCache::Entry E;
        OracleCache::Claim Miss;
        if (Cache.lookup(Key, E, &Miss)) {
          EXPECT_EQ(E.ExitCode, K);
          continue;
        }
        ++Computed;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        Miss.fill(entry(K));
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(Computed, Keys);
  EXPECT_EQ(Cache.misses(), uint64_t(Keys));
  EXPECT_EQ(Cache.hits(), uint64_t(Keys * (Threads - 1)));
}

TEST(OracleCacheTest, AbandonedClaimPassesToAWaiter) {
  // A claim destroyed unfilled releases its key: a lookup waiting on it
  // misses and claims the key itself, and nothing waits forever.
  OracleCache Cache;
  OracleCache::Entry E;
  auto First = std::make_unique<OracleCache::Claim>();
  ASSERT_FALSE(Cache.lookup("k", E, First.get()));
  bool WaiterHit = true;
  std::thread Waiter([&] {
    OracleCache::Entry W;
    OracleCache::Claim Second;
    WaiterHit = Cache.lookup("k", W, &Second);
    if (!WaiterHit)
      Second.fill(entry(7));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  First.reset();
  Waiter.join();
  EXPECT_FALSE(WaiterHit);
  ASSERT_TRUE(Cache.lookup("k", E));
  EXPECT_EQ(E.ExitCode, 7);
  EXPECT_EQ(Cache.misses(), 2u);
}

TEST(OracleCacheTest, CampaignSurfacesStoreBytes) {
  // The on-disk store size must land on CampaignResult, and a cache
  // backed by a store must not change what the campaign finds.
  std::filesystem::create_directories("oracle_cache_test_tmp");
  std::string Dir = "oracle_cache_test_tmp";
  std::vector<std::string> Seeds(embeddedSeeds().begin(),
                                 embeddedSeeds().begin() + 2);

  HarnessOptions Plain;
  Plain.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Plain.VariantBudget = 40;
  CampaignResult Reference = DifferentialHarness(Plain).runCampaign(Seeds);

  OracleCache Cache;
  HarnessOptions Opts = Plain;
  Opts.Cache = &Cache;
  Opts.CheckpointPath = Dir + "/campaign.ck";
  Opts.OracleStorePath = Dir + "/oracle.log";
  std::filesystem::remove(Opts.CheckpointPath);
  std::filesystem::remove(Opts.OracleStorePath);
  CampaignResult Result = DifferentialHarness(Opts).runCampaign(Seeds);

  EXPECT_EQ(Result.UniqueBugs, Reference.UniqueBugs);
  EXPECT_EQ(Result.VariantsTested, Reference.VariantsTested);

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
