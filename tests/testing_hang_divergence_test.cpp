//===- tests/testing_hang_divergence_test.cpp - hang-divergence recording ===//
//
// Regression battery for the silently-dropped hang divergence: a compiled
// module that exceeds its execution budget while the reference oracle
// terminated is a genuine wrong-code observation (the classic "miscompiled
// loop never exits" bug class), but the harness used to `continue` past it
// with no trace. These tests pin the fixed behavior: the new
// CampaignResult::ExecutionTimeouts counter, the "miscompilation (hang)"
// signature, attribution to the fired ground-truth bug, and survival of
// the finding through merge and the reduction pipeline's repro oracle.
//
//===----------------------------------------------------------------------===//

#include "reduce/BugRepro.h"
#include "testing/Harness.h"
#include "triage/Deduper.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

/// gcc-sim bug #7 (rtl-optimization, NegateFirstCondBr, versions 46..65,
/// -O1+) fires on IdenticalCmpOperands + a loop. The first conditional
/// branch is the `while` guard: the seed's loop body is never entered
/// (10 < 5), so the oracle returns fast, while the mutilated module takes
/// the inverted branch and counts upward forever -- the VM step budget
/// expires long before the increment wraps.
const char *HangSeed = "int main(void) {\n"
                       "  int i = 10;\n"
                       "  int n = 5;\n"
                       "  while (i < n)\n"
                       "    i = i + 1;\n"
                       "  if (i == i)\n"
                       "    n = 2;\n"
                       "  return n;\n"
                       "}\n";

/// A configuration where the NegateFirstCondBr bug is live...
CompilerConfig buggyConfig() { return {Persona::GccSim, 60, 2, true, {}}; }
/// ...and one where no injected bug fires on this program at all, so the
/// hang manifests under exactly one persona.
CompilerConfig cleanConfig() { return {Persona::ClangSim, 40, 2, true, {}}; }

} // namespace

TEST(HangDivergenceTest, ExecutionTimeoutIsRecordedNotDropped) {
  HarnessOptions Opts;
  Opts.Configs = {buggyConfig(), cleanConfig()};
  DifferentialHarness Harness(Opts);
  CampaignResult Result;
  Harness.testProgram(HangSeed, Result);

  ASSERT_EQ(Result.VariantsTested, 1u) << "seed must be oracle-clean";
  // Pre-fix, all three of these were zero: the timeout was `continue`d.
  EXPECT_EQ(Result.ExecutionTimeouts, 1u);
  EXPECT_EQ(Result.WrongCodeObservations, 1u);
  ASSERT_EQ(Result.UniqueBugs.size(), 1u);

  const FoundBug &Bug = Result.UniqueBugs.begin()->second;
  EXPECT_EQ(Bug.Effect, BugEffect::WrongCode);
  EXPECT_EQ(Bug.Signature, "miscompilation (hang)");
  EXPECT_EQ(Bug.P, Persona::GccSim);
  const InjectedBug *Truth = findBug(Bug.BugId);
  ASSERT_NE(Truth, nullptr);
  EXPECT_EQ(Truth->Mut, Mutilation::NegateFirstCondBr);

  // The clean persona executed the same variant without diverging: the
  // hang is attributed to one compiler, not to the program.
  EXPECT_EQ(Result.bugCount(Persona::ClangSim), 0u);
}

TEST(HangDivergenceTest, HangCountersSurviveMergeAndEquality) {
  HarnessOptions Opts;
  Opts.Configs = {buggyConfig()};
  DifferentialHarness Harness(Opts);
  CampaignResult A, B;
  Harness.testProgram(HangSeed, A);
  Harness.testProgram(HangSeed, B);

  CampaignResult Merged;
  Merged.merge(A);
  EXPECT_TRUE(Merged == A) << "merge into empty must reproduce the result";
  Merged.merge(B);
  EXPECT_EQ(Merged.ExecutionTimeouts, 2u);
  EXPECT_FALSE(Merged == A) << "== must see the ExecutionTimeouts delta";
}

TEST(HangDivergenceTest, HangSignatureNormalizesToItself) {
  // "(hang)" carries no variant-specific payload, so normalization must
  // keep it intact -- that is what makes hang findings one stable cluster.
  EXPECT_EQ(normalizeSignature(BugEffect::WrongCode, "miscompilation (hang)"),
            "miscompilation (hang)");
}

TEST(HangDivergenceTest, ReproOracleAcceptsAHangReproducer) {
  // The reduction pipeline must be able to re-probe a hang finding: a
  // candidate that still hangs under the finding's configuration
  // reproduces it; under the clean configuration it must not.
  ReproSpec Spec;
  Spec.Config = buggyConfig();
  Spec.Effect = BugEffect::WrongCode;
  Spec.SignatureKey = "miscompilation (hang)";
  ReproOracle Oracle(Spec);
  EXPECT_TRUE(Oracle.reproduces(HangSeed));

  ReproSpec CleanSpec = Spec;
  CleanSpec.Config = cleanConfig();
  ReproOracle CleanOracle(CleanSpec);
  EXPECT_FALSE(CleanOracle.reproduces(HangSeed));
}

TEST(HangDivergenceTest, TriageClustersTheHangFinding) {
  HarnessOptions Opts;
  Opts.Configs = {buggyConfig(), cleanConfig()};
  Opts.Triage = true;
  DifferentialHarness Harness(Opts);
  CampaignResult Result;
  Harness.testProgram(HangSeed, Result);
  triageCampaign(Result);

  ASSERT_EQ(Result.Triaged.size(), 1u);
  const TriagedBug &Cluster = Result.Triaged[0];
  EXPECT_EQ(Cluster.Sig.Effect, BugEffect::WrongCode);
  EXPECT_EQ(Cluster.Sig.Key, "miscompilation (hang)");
  // The reduced representative must still hang under its configuration.
  ReproSpec Spec;
  Spec.Config = {Cluster.Representative.P, Cluster.Representative.Version,
                 Cluster.Representative.OptLevel,
                 Cluster.Representative.Mode64, {}};
  Spec.Effect = BugEffect::WrongCode;
  Spec.SignatureKey = Cluster.Sig.Key;
  ReproOracle Oracle(Spec);
  EXPECT_TRUE(Oracle.reproduces(Cluster.Representative.WitnessProgram));
}
