//===- tests/testing_validity_property_test.cpp - pruning soundness ------===//
//
// End-to-end soundness of the validity-pruning pipeline over real seeds:
//
//   * Pruned enumeration must yield exactly the same set of oracle-valid
//     variants as brute-force filtering the unpruned cursor -- every variant
//     pruning drops must be rejected by the variant frontend or by the
//     reference oracle. Checked for all embedded handwritten seeds plus 50
//     generated corpus programs (with the uninitialized-local knob on, so
//     the def-before-use layer actually fires), and for one seed whose
//     invalid spans are wider than one rank, so the span decoder's widths
//     decide what is skipped.
//
//   * A pruned, a memoized, and a pruned + memoized campaign must each
//     produce the bit-identical deduped FoundBug set, identical coverage,
//     and identical VariantsTested (the pruned one at 1, 2, and 4 worker
//     threads) -- and pruning plus memoization must reduce reference-oracle
//     executions by at least 30% on the two-persona corpus campaign (the
//     acceptance bar).
//
//   * Both properties repeated on the loop/call corpus (bounded while/do
//     loops and rich helper bodies), where the pruned facts come from the
//     CFG dataflow layer rather than a straight-line prefix walk, and some
//     enumerated variants diverge and are excluded by the oracle's step
//     budget. The battery asserts the corpus does not silently degenerate
//     to loop-free programs, and that its 12-seed campaign prunes and
//     runs the oracle at least 20% fewer times with the same findings.
//
//===----------------------------------------------------------------------===//

#include "compiler/Passes.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"

#include "gtest/gtest.h"

#include <algorithm>

using namespace spe;

namespace {

std::vector<std::string> propertySeeds(unsigned CorpusCount,
                                       uint64_t CorpusBase = 3000) {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(CorpusBase, CorpusCount, Opts);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  return Seeds;
}

/// Seeds exercising the CFG validity layer end to end: bounded while/do
/// loops in main, helper functions with uninitialized locals and loops of
/// their own, and the uninitialized-local knob kept nonzero so layer 2 has
/// something to prove.
std::vector<std::string> loopSeeds(unsigned CorpusCount) {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  Opts.BoundedLoopProb = 0.6;
  Opts.RichHelperProb = 0.6;
  return generateCorpus(8000, CorpusCount, Opts);
}

/// The loop/call corpus must not silently degenerate into the loop-free
/// shape the old straight-line analysis already covered.
void assertLoopCorpusShape(const std::vector<std::string> &Seeds) {
  unsigned WithLoop = 0, WithHelper = 0;
  for (const std::string &S : Seeds) {
    if (S.find("while (") != std::string::npos ||
        S.find("do {") != std::string::npos)
      ++WithLoop;
    if (S.find("helper") != std::string::npos)
      ++WithHelper;
  }
  ASSERT_GE(WithLoop, Seeds.size() / 3) << "loop corpus degenerated";
  ASSERT_GE(WithHelper, 1u) << "loop corpus has no helper calls";
}

/// \returns true when the variant parses, passes Sema, and the reference
/// oracle accepts it -- i.e. it would reach differential testing.
bool oracleAccepts(const std::string &Source) {
  auto Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, *Ctx, Diags))
    return false;
  Sema Analysis(*Ctx, Diags);
  if (!Analysis.run())
    return false;
  return interpret(*Ctx).ok();
}

/// The two-persona crash-hunting campaign the acceptance criterion is
/// measured on; both personas share \p Cache when non-null.
CampaignResult twoPersonaCampaign(const std::vector<std::string> &Seeds,
                                  bool Prune, OracleCache *Cache,
                                  CoverageRegistry *Cov, unsigned Threads,
                                  uint64_t VariantBudget = 150,
                                  uint64_t VariantThreshold = 10'000,
                                  uint64_t OracleMaxSteps = 2'000'000) {
  // Register the real pass catalog so the coverage comparisons below are
  // over genuine per-point hit sets, not the synthetic-fallback entry.
  if (Cov)
    registerPassCoverageCatalog(*Cov);
  CampaignResult Total;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    HarnessOptions Opts;
    Opts.Configs =
        HarnessOptions::crashMatrix(P, P == Persona::GccSim ? 48 : 36);
    Opts.VariantBudget = VariantBudget;
    Opts.VariantThreshold = VariantThreshold;
    Opts.OracleMaxSteps = OracleMaxSteps;
    Opts.PruneInvalid = Prune;
    Opts.Cache = Cache;
    Opts.Cov = Cov;
    Opts.Threads = Threads;
    Total.merge(DifferentialHarness(Opts).runCampaign(Seeds));
  }
  return Total;
}

/// Aggregate evidence from the exact-set sweep below.
struct PruneSweepStats {
  uint64_t Variants = 0;
  uint64_t Dropped = 0;
  unsigned SeedsWithFacts = 0;
  /// The widest invalid span (invalidSpanEnd minus the rank) that starts at
  /// a dropped rank.
  uint64_t WidestSpan = 0;
};

/// The soundness core, applied to each seed of \p Seeds: the pruned cursor
/// must emit an ordered subsequence of the unpruned stream, the pruned
/// counter must balance, and every dropped variant must be frontend- or
/// oracle-rejected.
PruneSweepStats checkExactOracleValidSet(const std::vector<std::string> &Seeds,
                                         uint64_t RankCap) {
  PruneSweepStats Stats;
  for (const std::string &Seed : Seeds) {
    auto Ctx = std::make_unique<ASTContext>();
    DiagnosticEngine Diags;
    if (!Parser::parse(Seed, *Ctx, Diags)) {
      ADD_FAILURE() << "seed does not parse:\n" << Seed;
      continue;
    }
    Sema Analysis(*Ctx, Diags);
    if (!Analysis.run()) {
      ADD_FAILURE() << "seed fails Sema:\n" << Seed;
      continue;
    }
    SkeletonExtractor Extractor(*Ctx, Analysis, {});
    std::vector<SkeletonUnit> Units = Extractor.extract();

    std::vector<ValidityConstraints> Validity =
        analyzeValidity(*Ctx, Analysis, Units);
    std::vector<const ValidityConstraints *> Ptrs;
    uint64_t Facts = 0;
    for (const ValidityConstraints &C : Validity) {
      Ptrs.push_back(&C);
      Facts += C.forbiddenPairs();
    }
    if (Facts)
      ++Stats.SeedsWithFacts;

    ProgramCursor All(Units, SpeMode::Exact);
    ProgramCursor Pruned(Units, SpeMode::Exact);
    Pruned.setConstraints(Ptrs);
    All.setEnd(BigInt(RankCap));
    Pruned.setEnd(BigInt(RankCap));

    VariantRenderer Renderer(*Ctx, Units);
    std::vector<std::string> AllTexts, PrunedTexts;
    std::string Buffer;
    while (const ProgramAssignment *PA = All.next()) {
      Renderer.renderInto(*PA, Buffer);
      AllTexts.push_back(Buffer);
    }
    while (const ProgramAssignment *PA = Pruned.next()) {
      Renderer.renderInto(*PA, Buffer);
      PrunedTexts.push_back(Buffer);
    }
    Stats.Variants += AllTexts.size();

    // The pruned stream must be an ordered subsequence of the unpruned one,
    // the arithmetic must balance, and -- the soundness core -- everything
    // dropped must be frontend- or oracle-rejected.
    if (!Pruned.pruned().fitsInUint64()) {
      ADD_FAILURE() << "pruned count overflow for seed:\n" << Seed;
      continue;
    }
    EXPECT_EQ(PrunedTexts.size() + Pruned.pruned().toUint64(),
              AllTexts.size())
        << Seed;
    size_t PI = 0;
    for (size_t Rank = 0; Rank < AllTexts.size(); ++Rank) {
      const std::string &Text = AllTexts[Rank];
      if (PI < PrunedTexts.size() && PrunedTexts[PI] == Text) {
        ++PI;
        continue;
      }
      ++Stats.Dropped;
      BigInt Span =
          Pruned.invalidSpanEnd(BigInt(Rank), Ptrs) - BigInt(Rank);
      if (Span.fitsInUint64())
        Stats.WidestSpan = std::max(Stats.WidestSpan, Span.toUint64());
      EXPECT_FALSE(oracleAccepts(Text))
          << "pruning dropped an oracle-valid variant of seed:\n"
          << Seed << "\nvariant:\n"
          << Text;
    }
    EXPECT_EQ(PI, PrunedTexts.size())
        << "pruned stream is not a subsequence for seed:\n"
        << Seed;
  }
  return Stats;
}

} // namespace

TEST(ValidityPropertyTest, PrunedEnumerationKeepsExactlyTheOracleValidSet) {
  // Per-seed enumeration cap of 1200 keeps CI fast.
  PruneSweepStats Stats = checkExactOracleValidSet(propertySeeds(50), 1200);

  // The analysis must actually bite on this corpus, not vacuously pass.
  EXPECT_GE(Stats.SeedsWithFacts, 20u);
  EXPECT_GT(Stats.Dropped, 0u);
  EXPECT_GT(Stats.Variants, 1000u);

  // Every invalid span of this corpus and of the loop corpus is one rank
  // wide, so the one-rank rule settles them and the span decoder never
  // decides what is skipped. Here a read of the uninitialized `u` makes every completion
  // of that choice invalid: of 14 ranks, 0-9 drop in spans of 5, 3 and 2,
  // and 10-13 are valid, so a decoder that reports a span one rank too
  // long skips rank 10.
  PruneSweepStats Wide = checkExactOracleValidSet(
      {"int main(void) { int u; { int a = 1; int b = 2; "
       "return a + b + a; } }"},
      1200);
  EXPECT_EQ(Wide.Variants, 14u);
  EXPECT_EQ(Wide.Dropped, 10u);
  EXPECT_GT(Wide.WidestSpan, 1u)
      << "the seed's invalid spans degraded to one rank";
}

TEST(ValidityPropertyTest, LoopCorpusPrunedEnumerationKeepsOracleValidSet) {
  // The same exact-set property on the loop/call corpus, where the pruned
  // facts come from must-execute loop bodies, post-loop joins, and
  // must-called helper summaries, and where some unpruned variants diverge
  // (retargeted counter updates) and cost the oracle its full step budget.
  std::vector<std::string> Seeds = loopSeeds(10);
  assertLoopCorpusShape(Seeds);

  PruneSweepStats Stats = checkExactOracleValidSet(Seeds, 600);
  EXPECT_GE(Stats.SeedsWithFacts, 3u);
  EXPECT_GT(Stats.Dropped, 0u);
  EXPECT_GT(Stats.Variants, 200u);
}

TEST(ValidityPropertyTest, PrunedCampaignMatchesUnprunedAtAllThreadCounts) {
  std::vector<std::string> Seeds = propertySeeds(8);

  CoverageRegistry UnprunedCov;
  CampaignResult Unpruned =
      twoPersonaCampaign(Seeds, /*Prune=*/false, nullptr, &UnprunedCov, 1);
  ASSERT_GT(Unpruned.VariantsTested, 0u);
  ASSERT_FALSE(Unpruned.UniqueBugs.empty());

  CampaignResult PrunedAtOne;
  for (unsigned Threads : {1u, 2u, 4u}) {
    CoverageRegistry Cov;
    CampaignResult Pruned =
        twoPersonaCampaign(Seeds, /*Prune=*/true, nullptr, &Cov, Threads);

    // The deduped FoundBug set (ids, personas, signatures, witnesses) and
    // every oracle-visible counter must be bit-identical to the unpruned
    // run; only enumeration-cost counters may differ.
    EXPECT_TRUE(Pruned.UniqueBugs == Unpruned.UniqueBugs)
        << "threads=" << Threads;
    EXPECT_EQ(Pruned.VariantsTested, Unpruned.VariantsTested);
    EXPECT_EQ(Pruned.CrashObservations, Unpruned.CrashObservations);
    EXPECT_EQ(Pruned.WrongCodeObservations, Unpruned.WrongCodeObservations);
    EXPECT_EQ(Pruned.VariantsEnumerated + Pruned.VariantsPruned,
              Unpruned.VariantsEnumerated);
    EXPECT_EQ(Cov.hitSet(), UnprunedCov.hitSet()) << "threads=" << Threads;
    EXPECT_EQ(Cov.totalPoints(), UnprunedCov.totalPoints());

    // And the pruned campaign itself must be thread-count invariant.
    if (Threads == 1)
      PrunedAtOne = Pruned;
    else
      EXPECT_TRUE(Pruned == PrunedAtOne) << "threads=" << Threads;
  }
}

TEST(ValidityPropertyTest, LoopCorpusPrunedCampaignMatchesUnprunedAtAllThreads) {
  // The acceptance battery on the loop/call corpus: pruning guided by the
  // CFG dataflow facts must leave the deduped FoundBug set, coverage, and
  // VariantsTested bit-identical to the unpruned campaign at 1, 2, and 4
  // worker threads, with diverging variants (Timeout) in the mix. A small
  // per-seed budget keeps the diverging interpretations affordable. Loop
  // seeds carry far more holes than the straight-line corpus, so their SPE
  // counts sail past the paper's 10K skip threshold; the campaign raises
  // the threshold (the per-seed budget still bounds the work actually done)
  // so the loop seeds are admitted rather than skipped.
  std::vector<std::string> Seeds = loopSeeds(5);
  assertLoopCorpusShape(Seeds);

  // A 100K-step oracle budget keeps diverging variants cheap while leaving
  // orders of magnitude of headroom for any terminating variant of these
  // small seeds (trip bounds are literal 2..5).
  const uint64_t Budget = 60;
  const uint64_t Threshold = 1'000'000'000'000'000ull;
  const uint64_t MaxSteps = 100'000;
  CoverageRegistry UnprunedCov;
  CampaignResult Unpruned = twoPersonaCampaign(Seeds, /*Prune=*/false,
                                               nullptr, &UnprunedCov, 1,
                                               Budget, Threshold, MaxSteps);
  ASSERT_GT(Unpruned.VariantsTested, 0u);
  ASSERT_GT(Unpruned.VariantsOracleExcluded, 0u)
      << "no diverging/rejected variants -- the loop corpus is not "
         "exercising the oracle exclusion path";

  CampaignResult PrunedAtOne;
  for (unsigned Threads : {1u, 2u, 4u}) {
    CoverageRegistry Cov;
    CampaignResult Pruned = twoPersonaCampaign(Seeds, /*Prune=*/true,
                                               nullptr, &Cov, Threads,
                                               Budget, Threshold, MaxSteps);

    EXPECT_TRUE(Pruned.UniqueBugs == Unpruned.UniqueBugs)
        << "threads=" << Threads;
    EXPECT_EQ(Pruned.VariantsTested, Unpruned.VariantsTested);
    EXPECT_EQ(Pruned.CrashObservations, Unpruned.CrashObservations);
    EXPECT_EQ(Pruned.WrongCodeObservations, Unpruned.WrongCodeObservations);
    EXPECT_EQ(Pruned.VariantsEnumerated + Pruned.VariantsPruned,
              Unpruned.VariantsEnumerated);
    EXPECT_EQ(Cov.hitSet(), UnprunedCov.hitSet()) << "threads=" << Threads;

    if (Threads == 1)
      PrunedAtOne = Pruned;
    else
      EXPECT_TRUE(Pruned == PrunedAtOne) << "threads=" << Threads;
  }
}

TEST(ValidityPropertyTest, LoopCorpusCampaignKeepsItsLoopsAndPrunes) {
  // The loop/call campaign behind DESIGN.md's oracle-cost figures means
  // something only while its 12 seeds keep their loops (at least 4,
  // Seeds.size() / 3). Its pruned, memoized two-persona run at budget 200
  // and 100K steps must prune, find the bare run's bugs and coverage from
  // the same tested variants, and run the oracle at least 20% fewer times
  // (3716 -> 1858 when written).
  std::vector<std::string> Seeds = loopSeeds(12);
  assertLoopCorpusShape(Seeds);

  const uint64_t Budget = 200;
  const uint64_t Threshold = 1'000'000'000'000'000ull;
  const uint64_t MaxSteps = 100'000;
  CoverageRegistry BareCov;
  CampaignResult Bare = twoPersonaCampaign(Seeds, /*Prune=*/false, nullptr,
                                           &BareCov, 1, Budget, Threshold,
                                           MaxSteps);
  ASSERT_GT(Bare.OracleExecutions, 0u);

  OracleCache Cache;
  CoverageRegistry Cov;
  CampaignResult R = twoPersonaCampaign(Seeds, /*Prune=*/true, &Cache, &Cov,
                                        1, Budget, Threshold, MaxSteps);
  EXPECT_GT(R.VariantsPruned, 0u) << "the loop corpus campaign pruned nothing";
  EXPECT_TRUE(R.UniqueBugs == Bare.UniqueBugs);
  EXPECT_EQ(R.VariantsTested, Bare.VariantsTested);
  EXPECT_EQ(Cov.hitSet(), BareCov.hitSet());
  double Reduction = 1.0 - static_cast<double>(R.OracleExecutions) /
                               static_cast<double>(Bare.OracleExecutions);
  EXPECT_GE(Reduction, 0.20)
      << R.OracleExecutions << " vs " << Bare.OracleExecutions
      << " oracle executions";
}

TEST(ValidityPropertyTest, PruningPlusMemoizationCutsOracleExecutions) {
  // The acceptance bar, on the generated-corpus campaign (two personas
  // over the same seeds, the shape every version-sweep bench runs):
  // pruning, oracle memoization, and both together must each leave bugs,
  // coverage, and tested-variant counts bit-identical to the bare
  // campaign, and both together must cut reference-oracle executions by
  // >= 30%. Two corpora: 16 programs at budget 150, and the 40 programs at
  // budget 200 behind DESIGN.md's oracle-cost figures (4704 -> 2048 when
  // written).
  struct Corpus {
    const char *Name;
    std::vector<std::string> Seeds;
    uint64_t Budget;
  };
  const Corpus Corpora[] = {{"base 3000 x 16", propertySeeds(16), 150},
                            {"base 2000 x 40", propertySeeds(40, 2000), 200}};
  for (const Corpus &C : Corpora) {
    SCOPED_TRACE(C.Name);
    CoverageRegistry BaseCov;
    CampaignResult Base = twoPersonaCampaign(C.Seeds, /*Prune=*/false,
                                             nullptr, &BaseCov, 1, C.Budget);
    ASSERT_GT(Base.OracleExecutions, 0u);
    EXPECT_EQ(Base.OracleCacheHits, 0u);
    EXPECT_EQ(Base.VariantsPruned, 0u);

    struct Arm {
      const char *Name;
      bool Prune, Memoize;
    };
    CampaignResult Opt;
    std::set<std::string> OptHits;
    for (Arm A : {Arm{"prune", true, false}, Arm{"memoize", false, true},
                  Arm{"prune+memoize", true, true}}) {
      SCOPED_TRACE(A.Name);
      OracleCache Cache;
      CoverageRegistry Cov;
      CampaignResult R = twoPersonaCampaign(
          C.Seeds, A.Prune, A.Memoize ? &Cache : nullptr, &Cov, 1, C.Budget);
      EXPECT_TRUE(R.UniqueBugs == Base.UniqueBugs);
      EXPECT_EQ(R.VariantsTested, Base.VariantsTested);
      EXPECT_EQ(R.VariantsEnumerated + R.VariantsPruned,
                Base.VariantsEnumerated);
      EXPECT_LE(R.VariantsOracleExcluded, Base.VariantsOracleExcluded)
          << "pruned variants can only come out of the oracle-rejected pool";
      EXPECT_EQ(Cov.hitSet(), BaseCov.hitSet());
      EXPECT_EQ(R.OracleCacheHits, Cache.hits());
      if (A.Prune && A.Memoize) {
        Opt = R;
        OptHits = Cov.hitSet();
      }
    }

    double Reduction = 1.0 - static_cast<double>(Opt.OracleExecutions) /
                                 static_cast<double>(Base.OracleExecutions);
    EXPECT_GE(Reduction, 0.30)
        << Opt.OracleExecutions << " vs " << Base.OracleExecutions
        << " oracle executions";

    // The cached campaign must also stay deterministic across thread
    // counts.
    OracleCache Cache4;
    CoverageRegistry Cov4;
    CampaignResult Opt4 =
        twoPersonaCampaign(C.Seeds, true, &Cache4, &Cov4, 4, C.Budget);
    EXPECT_TRUE(Opt4 == Opt);
    EXPECT_EQ(Cov4.hitSet(), OptHits);
  }
}
