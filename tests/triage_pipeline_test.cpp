//===- tests/triage_pipeline_test.cpp - post-campaign triage acceptance --===//
//
// The acceptance bar of the triage subsystem, measured on the two-persona
// corpus campaign (the generated c-torture-style corpus, both personas at
// trunk over the paper's crash matrix):
//
//   * signature clustering collapses the raw per-configuration finding
//     stream into fewer clusters (dedup ratio > 1) without losing any
//     ground-truth bug id;
//   * the triaged report is bit-identical at 1, 2, and 4 worker threads
//     (and so is the full CampaignResult, UniqueBugs included);
//   * every reduced reproducer still triggers its original signature AND
//     its original injected ground-truth bug;
//   * the mean reproducer token count shrinks by >= 40% versus the raw
//     representative witness.
//
//===----------------------------------------------------------------------===//

#include "compiler/Compiler.h"
#include "lang/Parser.h"
#include "reduce/BugRepro.h"
#include "reduce/SkeletonReducer.h"
#include "sema/Sema.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"
#include "triage/Deduper.h"

#include "gtest/gtest.h"

#include <memory>
#include <set>

using namespace spe;

namespace {

std::vector<std::string> corpusSeeds() {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  return generateCorpus(3000, 32, Opts);
}

/// The two-persona trunk campaign over the paper's crash matrix; triage is
/// run explicitly on the merged result so both personas share one report.
CampaignResult twoPersonaCampaign(const std::vector<std::string> &Seeds,
                                  OracleCache *Cache, unsigned Threads) {
  CampaignResult Total;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    HarnessOptions Opts;
    Opts.Configs =
        HarnessOptions::crashMatrix(P, P == Persona::GccSim ? 70 : 40);
    Opts.VariantBudget = 150;
    Opts.Cache = Cache;
    Opts.Threads = Threads;
    Total.merge(DifferentialHarness(Opts).runCampaign(Seeds));
  }
  return Total;
}

bool triggersGroundTruth(const std::string &Source, const FoundBug &Bug) {
  auto Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, *Ctx, Diags))
    return false;
  Sema Analysis(*Ctx, Diags);
  if (!Analysis.run())
    return false;
  MiniCompiler CC({Bug.P, Bug.Version, Bug.OptLevel, Bug.Mode64});
  CompileResult R = CC.compile(*Ctx);
  if (Bug.Effect == BugEffect::Crash)
    return R.crashed() && R.CrashBugId == Bug.BugId;
  for (int Id : R.FiredBugs)
    if (Id == Bug.BugId)
      return true;
  return false;
}

} // namespace

TEST(TriagePipelineTest, SignatureClusteringCollapsesConfigDuplicates) {
  OracleCache Cache;
  CampaignResult Campaign = twoPersonaCampaign(corpusSeeds(), &Cache, 1);
  ASSERT_FALSE(Campaign.UniqueBugs.empty());
  ASSERT_GT(Campaign.RawFindings.size(), Campaign.UniqueBugs.size())
      << "the raw stream must carry per-config duplicates";

  HarnessOptions Opts;
  Opts.Cache = &Cache;
  triageCampaign(Campaign, Opts);

  ASSERT_FALSE(Campaign.Triaged.empty());
  EXPECT_EQ(Campaign.Reduction.RawBugs, Campaign.RawFindings.size());
  EXPECT_EQ(Campaign.Reduction.Clusters, Campaign.Triaged.size());
  EXPECT_GT(Campaign.Reduction.dedupRatio(), 1.0)
      << "triage must collapse duplicate findings into signature clusters";

  // No ground-truth bug id may be lost by clustering, and the clusters'
  // signatures must be unique and sorted.
  std::set<int> Covered;
  for (size_t I = 0; I < Campaign.Triaged.size(); ++I) {
    const TriagedBug &Cluster = Campaign.Triaged[I];
    EXPECT_GE(Cluster.RawCount, Cluster.MemberIds.size());
    Covered.insert(Cluster.MemberIds.begin(), Cluster.MemberIds.end());
    if (I > 0)
      EXPECT_TRUE(Campaign.Triaged[I - 1].Sig < Cluster.Sig);
  }
  std::set<int> Expected;
  for (const auto &[Id, Bug] : Campaign.UniqueBugs)
    Expected.insert(Id);
  EXPECT_EQ(Covered, Expected);
}

TEST(TriagePipelineTest, TriagedReportIsThreadCountInvariant) {
  std::vector<std::string> Seeds = corpusSeeds();

  // One fresh cache per thread-count run (shared across that run's shards
  // and its triage pass), so even the oracle-cost counters must coincide.
  OracleCache CacheOne;
  CampaignResult AtOne = twoPersonaCampaign(Seeds, &CacheOne, 1);
  HarnessOptions OptsOne;
  OptsOne.Cache = &CacheOne;
  triageCampaign(AtOne, OptsOne);
  ASSERT_FALSE(AtOne.Triaged.empty());

  for (unsigned Threads : {2u, 4u}) {
    OracleCache Cache;
    CampaignResult At = twoPersonaCampaign(Seeds, &Cache, Threads);
    HarnessOptions Opts;
    Opts.Cache = &Cache;
    triageCampaign(At, Opts);
    EXPECT_TRUE(At.Triaged == AtOne.Triaged) << "threads=" << Threads;
    EXPECT_TRUE(At == AtOne) << "threads=" << Threads;
  }

  // The harness's own opt-in pass produces the same per-persona clusters.
  HarnessOptions HOpts;
  HOpts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 70);
  HOpts.VariantBudget = 150;
  HOpts.Cache = &CacheOne;
  HOpts.Triage = true;
  CampaignResult ViaHarness = DifferentialHarness(HOpts).runCampaign(Seeds);
  ASSERT_FALSE(ViaHarness.Triaged.empty());
  EXPECT_GT(ViaHarness.Reduction.ReductionProbes, 0u);
  for (const TriagedBug &Cluster : ViaHarness.Triaged)
    EXPECT_EQ(Cluster.Sig.P, Persona::GccSim);
}

TEST(TriagePipelineTest, ReducedReproducersStayFaithfulAndShrink40Percent) {
  OracleCache Cache;
  CampaignResult Campaign = twoPersonaCampaign(corpusSeeds(), &Cache, 1);

  HarnessOptions Opts;
  Opts.Cache = &Cache;
  triageCampaign(Campaign, Opts);
  ASSERT_FALSE(Campaign.Triaged.empty());

  double ReductionSum = 0.0;
  for (const TriagedBug &Cluster : Campaign.Triaged) {
    const FoundBug &Rep = Cluster.Representative;

    // Faithfulness: the reduced reproducer still shows the cluster's
    // normalized signature and still fires the original injected bug.
    ReproSpec Spec;
    Spec.Config = {Rep.P, Rep.Version, Rep.OptLevel, Rep.Mode64};
    Spec.Effect = Rep.Effect;
    Spec.SignatureKey = Cluster.Sig.Key;
    ReproOracle Check(Spec, &Cache);
    EXPECT_TRUE(Check.reproduces(Rep.WitnessProgram))
        << Cluster.Sig.str() << "\n"
        << Rep.WitnessProgram;
    EXPECT_TRUE(triggersGroundTruth(Rep.WitnessProgram, Rep))
        << Cluster.Sig.str();

    EXPECT_EQ(Cluster.TokensAfter, tokenCount(Rep.WitnessProgram));
    ASSERT_GT(Cluster.TokensBefore, 0u);
    ReductionSum += 1.0 - static_cast<double>(Cluster.TokensAfter) /
                              static_cast<double>(Cluster.TokensBefore);
  }

  double MeanReduction =
      ReductionSum / static_cast<double>(Campaign.Triaged.size());
  EXPECT_GE(MeanReduction, 0.40)
      << "mean reproducer token shrink below the acceptance bar";
  EXPECT_GE(Campaign.Reduction.tokenReduction(), 0.40);
  EXPECT_GT(Campaign.Reduction.OracleRuns + Campaign.Reduction.OracleCacheHits,
            0u);
}

TEST(TriagePipelineTest, EmbeddedSeedCampaignTriagesEverySignature) {
  // The embedded handwritten seeds reach more of the bug population; the
  // pipeline must stay faithful there too (no 40% bar: these witnesses are
  // handcrafted minimal figures to begin with).
  OracleCache Cache;
  CampaignResult Total;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    HarnessOptions Opts;
    Opts.Configs =
        HarnessOptions::crashMatrix(P, P == Persona::GccSim ? 70 : 40);
    for (const CompilerConfig &C : HarnessOptions::optLevelSweep(
             P, P == Persona::GccSim ? 70 : 40))
      Opts.Configs.push_back(C);
    Opts.VariantBudget = 150;
    Opts.Cache = &Cache;
    Total.merge(DifferentialHarness(Opts).runCampaign(embeddedSeeds()));
  }
  ASSERT_GE(Total.UniqueBugs.size(), 4u);

  HarnessOptions Opts;
  Opts.Cache = &Cache;
  triageCampaign(Total, Opts);
  EXPECT_GT(Total.Reduction.dedupRatio(), 1.0);
  EXPECT_LT(Total.Reduction.TokensAfter, Total.Reduction.TokensBefore);
  for (const TriagedBug &Cluster : Total.Triaged) {
    const FoundBug &Rep = Cluster.Representative;
    ReproSpec Spec;
    Spec.Config = {Rep.P, Rep.Version, Rep.OptLevel, Rep.Mode64};
    Spec.Effect = Rep.Effect;
    Spec.SignatureKey = Cluster.Sig.Key;
    ReproOracle Check(Spec, &Cache);
    EXPECT_TRUE(Check.reproduces(Rep.WitnessProgram)) << Cluster.Sig.str();
  }
}
