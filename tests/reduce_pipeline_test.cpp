//===- tests/reduce_pipeline_test.cpp - reducer + minimizer --------------===//
//
// The reduction half of the triage pipeline, bottom up:
//
//   * the AstPrinter hooks it rides on (statement elision, top-level decl
//     deletion, expression replacement) render exactly what they promise
//     and re-parse cleanly;
//   * ReproOracle accepts the original finding and rejects programs that
//     are invalid or show a different signature, memoizing through a shared
//     OracleCache;
//   * SkeletonReducer shrinks real campaign witnesses while -- the core
//     soundness property -- the reduced witness still triggers the original
//     ground-truth bug under its original configuration;
//   * the diverging probes a reduction meets (a loop's counter update
//     deleted) are proven non-terminating at the loop head and rejected;
//   * VariantMinimizer returns a reproducer at the lowest triggering rank
//     of the witness's own skeleton, deterministically.
//
//===----------------------------------------------------------------------===//

#include "compiler/Compiler.h"
#include "interp/Interpreter.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "reduce/BugRepro.h"
#include "reduce/SkeletonReducer.h"
#include "reduce/VariantMinimizer.h"
#include "sema/Sema.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"
#include "triage/BugSignature.h"

#include "gtest/gtest.h"

#include <memory>

using namespace spe;

namespace {

std::unique_ptr<ASTContext> parseAndAnalyze(const std::string &Source,
                                            std::unique_ptr<Sema> &Analysis) {
  auto Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, *Ctx, Diags))
    return nullptr;
  Analysis = std::make_unique<Sema>(*Ctx, Diags);
  if (!Analysis->run())
    return nullptr;
  return Ctx;
}

/// Runs the embedded-seed two-persona campaign once and returns its result.
CampaignResult embeddedCampaign() {
  OracleCache Cache;
  CampaignResult Total;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    HarnessOptions Opts;
    Opts.Configs =
        HarnessOptions::crashMatrix(P, P == Persona::GccSim ? 70 : 40);
    Opts.VariantBudget = 200;
    Opts.Cache = &Cache;
    Total.merge(DifferentialHarness(Opts).runCampaign(embeddedSeeds()));
  }
  return Total;
}

ReproSpec specOf(const FoundBug &Bug) {
  ReproSpec Spec;
  Spec.Config = {Bug.P, Bug.Version, Bug.OptLevel, Bug.Mode64, {}};
  Spec.Effect = Bug.Effect;
  Spec.SignatureKey = normalizeSignature(Bug.Effect, Bug.Signature);
  return Spec;
}

/// Ground-truth check: compiling \p Source under \p Bug's configuration
/// re-fires the same injected bug id.
bool triggersGroundTruth(const std::string &Source, const FoundBug &Bug) {
  std::unique_ptr<Sema> Analysis;
  auto Ctx = parseAndAnalyze(Source, Analysis);
  if (!Ctx)
    return false;
  MiniCompiler CC({Bug.P, Bug.Version, Bug.OptLevel, Bug.Mode64, {}});
  CompileResult R = CC.compile(*Ctx);
  if (Bug.Effect == BugEffect::Crash)
    return R.crashed() && R.CrashBugId == Bug.BugId;
  for (int Id : R.FiredBugs)
    if (Id == Bug.BugId)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// AstPrinter reduction hooks
//===----------------------------------------------------------------------===//

TEST(PrinterHooksTest, ElidedStatementsDisappear) {
  const char *Source = "int main(void)\n{\n  int x = 1;\n  int y = 2;\n"
                       "  x = y;\n  return x;\n}\n";
  std::unique_ptr<Sema> Analysis;
  auto Ctx = parseAndAnalyze(Source, Analysis);
  ASSERT_TRUE(Ctx);

  // Find the id of the `x = y;` statement (third child of main's body).
  CompoundStmt *Body = Ctx->functions()[0]->body();
  ASSERT_EQ(Body->body().size(), 4u);
  int AssignId = Body->body()[2]->stmtId();
  ASSERT_GE(AssignId, 0);

  AstPrinter P;
  P.setDeletedStmts({AssignId});
  std::string WithSemi = P.print(*Ctx);
  EXPECT_NE(WithSemi.find("  ;\n"), std::string::npos);
  EXPECT_EQ(WithSemi.find("x = y"), std::string::npos);

  P.setElideDeletedStmts(true);
  std::string Elided = P.print(*Ctx);
  EXPECT_EQ(Elided.find("  ;\n"), std::string::npos);
  EXPECT_EQ(Elided.find("x = y"), std::string::npos);
  EXPECT_LT(tokenCount(Elided), tokenCount(WithSemi));

  // A deleted non-compound if-branch still needs its `;` placeholder.
  const char *Branchy = "int main(void)\n{\n  int x = 1;\n  if (x)\n"
                        "    x = 0;\n  return x;\n}\n";
  std::unique_ptr<Sema> Analysis2;
  auto Ctx2 = parseAndAnalyze(Branchy, Analysis2);
  ASSERT_TRUE(Ctx2);
  auto *If = cast<IfStmt>(Ctx2->functions()[0]->body()->body()[1]);
  AstPrinter P2;
  P2.setDeletedStmts({If->thenStmt()->stmtId()});
  P2.setElideDeletedStmts(true);
  std::string Out = P2.print(*Ctx2);
  EXPECT_NE(Out.find("if (x)\n    ;"), std::string::npos) << Out;
  std::unique_ptr<Sema> Reparse;
  EXPECT_TRUE(parseAndAnalyze(Out, Reparse));
}

TEST(PrinterHooksTest, DeletedDeclsAndReplacedExprs) {
  const char *Source = "int g = 7;\nint h = 8;\nint main(void)\n{\n"
                       "  return h + (3 * 4);\n}\n";
  std::unique_ptr<Sema> Analysis;
  auto Ctx = parseAndAnalyze(Source, Analysis);
  ASSERT_TRUE(Ctx);

  AstPrinter P;
  P.setDeletedDecls({Ctx->TopLevel[0]});
  std::string NoG = P.print(*Ctx);
  EXPECT_EQ(NoG.find("int g"), std::string::npos);
  EXPECT_NE(NoG.find("int h"), std::string::npos);
  std::unique_ptr<Sema> Reparse;
  EXPECT_TRUE(parseAndAnalyze(NoG, Reparse));

  // Replace the whole return value with a literal; bare texts print without
  // parentheses, compound texts gain them.
  auto *Ret = cast<ReturnStmt>(Ctx->functions()[0]->body()->body()[0]);
  AstPrinter PBare;
  PBare.setReplacedExprs({{Ret->value(), "0"}});
  EXPECT_NE(PBare.print(*Ctx).find("return 0;"), std::string::npos);
  AstPrinter PComp;
  PComp.setReplacedExprs({{Ret->value(), "1 + 2"}});
  std::string Comp = PComp.print(*Ctx);
  EXPECT_NE(Comp.find("return (1 + 2);"), std::string::npos);
  std::unique_ptr<Sema> Reparse2;
  EXPECT_TRUE(parseAndAnalyze(Comp, Reparse2));
}

//===----------------------------------------------------------------------===//
// ReproOracle
//===----------------------------------------------------------------------===//

TEST(ReproOracleTest, AcceptsOriginalRejectsOthers) {
  CampaignResult Campaign = embeddedCampaign();
  ASSERT_FALSE(Campaign.UniqueBugs.empty());
  const FoundBug &Bug = Campaign.UniqueBugs.begin()->second;

  OracleCache Cache;
  ReproOracle Oracle(specOf(Bug), &Cache);
  EXPECT_TRUE(Oracle.reproduces(Bug.WitnessProgram));
  // A harmless program shows no signature.
  EXPECT_FALSE(Oracle.reproduces("int main(void)\n{\n  return 0;\n}\n"));
  // Frontend-invalid and oracle-rejected candidates never reproduce.
  EXPECT_FALSE(Oracle.reproduces("int main(void) { return x; }"));
  EXPECT_FALSE(
      Oracle.reproduces("int main(void)\n{\n  int z;\n  return z;\n}\n"));

  // Repeat probes answer from the memo, not the oracle.
  ReproStats Before = Oracle.stats();
  EXPECT_TRUE(Oracle.reproduces(Bug.WitnessProgram));
  EXPECT_EQ(Oracle.stats().MemoHits, Before.MemoHits + 1);
  EXPECT_EQ(Oracle.stats().OracleRuns, Before.OracleRuns);

  // A fresh oracle sharing the cache replays verdicts instead of re-running
  // the interpreter.
  ReproOracle Second(specOf(Bug), &Cache);
  EXPECT_TRUE(Second.reproduces(Bug.WitnessProgram));
  EXPECT_EQ(Second.stats().OracleRuns, 0u);
  EXPECT_EQ(Second.stats().OracleCacheHits, 1u);
}

TEST(ReproOracleTest, ProbesRunTheCampaignStepBudget) {
  // About 5,000 interpreter steps: Ok under the default budget, Timeout
  // (an excluded candidate) under a campaign budget of 1,000.
  const std::string Source = "int main(void) {\n"
                             "  int i = 0;\n"
                             "  while (i < 400)\n"
                             "    i = i + 1;\n"
                             "  return 0;\n"
                             "}\n";
  ReproSpec Spec;
  Spec.Effect = BugEffect::WrongCode;
  Spec.OracleMaxSteps = 1'000;
  ReproOracle Oracle(Spec);
  EXPECT_FALSE(Oracle.reproduces(Source));
  EXPECT_EQ(Oracle.stats().OracleRuns, 1u);
  EXPECT_EQ(Oracle.stats().TimeoutRuns, 1u);

  ReproOracle Default(ReproSpec{});
  EXPECT_FALSE(Default.reproduces(Source)); // Runs; shows no signature.
  EXPECT_EQ(Default.stats().OracleRuns, 1u);
  EXPECT_EQ(Default.stats().TimeoutRuns, 0u);
}

//===----------------------------------------------------------------------===//
// SkeletonReducer
//===----------------------------------------------------------------------===//

TEST(SkeletonReducerTest, ShrinksCampaignWitnessesAndPreservesGroundTruth) {
  CampaignResult Campaign = embeddedCampaign();
  ASSERT_FALSE(Campaign.UniqueBugs.empty());

  OracleCache Cache;
  SkeletonReducer Reducer(&Cache);
  uint64_t TotalBefore = 0, TotalAfter = 0;
  for (const auto &[Id, Bug] : Campaign.UniqueBugs) {
    ReproSpec Spec = specOf(Bug);
    ReductionOutcome Out = Reducer.reduce(Bug.WitnessProgram, Spec);
    TotalBefore += Out.TokensBefore;
    TotalAfter += Out.TokensAfter;
    EXPECT_LE(Out.TokensAfter, Out.TokensBefore) << "bug " << Id;

    // Soundness: the reduced witness still reproduces the normalized
    // signature *and* still fires the original injected bug.
    ReproOracle Check(Spec, &Cache);
    EXPECT_TRUE(Check.reproduces(Out.Reduced)) << "bug " << Id;
    EXPECT_TRUE(triggersGroundTruth(Out.Reduced, Bug)) << "bug " << Id;

    // Determinism: reducing the same witness again is bit-identical.
    EXPECT_EQ(Reducer.reduce(Bug.WitnessProgram, Spec).Reduced, Out.Reduced);
  }
  // The pass must actually bite across the set, not just not regress.
  EXPECT_LT(TotalAfter, TotalBefore);
}

TEST(SkeletonReducerTest, DivergingProbesAreProvenAtTheLoopHead) {
  // A witness whose crash feature (identical conditional arms, the
  // operand_equal_p ICE) sits inside a bounded counter loop. ddmin's
  // natural first move -- delete the counter update, keep the loop --
  // produces probes that diverge. The oracle rejects them like any other
  // non-terminating variant, and proves them divergent as soon as the
  // loop-head state repeats instead of spending the step budget.
  const std::string Witness = "int main(void)\n{\n"
                              "  int x = 1;\n"
                              "  int y = 2;\n"
                              "  int n = 3;\n"
                              "  while (n > 0)\n"
                              "  {\n"
                              "    x = y > 0 ? x : x;\n"
                              "    n = n - 1;\n"
                              "  }\n"
                              "  return x;\n}\n";
  ReproSpec Spec;
  Spec.Config = {Persona::GccSim, 70, 0, true, {}};
  Spec.Effect = BugEffect::Crash;
  Spec.SignatureKey = normalizeSignature(
      BugEffect::Crash,
      "internal compiler error: in operand_equal_p, at fold-const.c:2977");

  // Sanity: the witness itself reproduces the signature.
  {
    ReproOracle Check(Spec);
    ASSERT_TRUE(Check.reproduces(Witness));
  }

  // The probe ddmin meets: the counter update deleted, under the default
  // step budget.
  std::string Diverging = Witness;
  const std::string Update = "    n = n - 1;\n";
  size_t At = Diverging.find(Update);
  ASSERT_NE(At, std::string::npos);
  Diverging.erase(At, Update.size());
  std::unique_ptr<Sema> Analysis;
  std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Diverging, Analysis);
  ASSERT_TRUE(Ctx);
  ExecResult Run = interpret(*Ctx);
  EXPECT_EQ(Run.Status, ExecStatus::Timeout);
  EXPECT_EQ(Run.Reason, TimeoutReason::Repeat)
      << "the counter-free loop was not proven divergent at its head";

  ReductionOutcome Out = SkeletonReducer().reduce(Witness, Spec);
  EXPECT_GT(Out.Oracle.TimeoutRuns, 0u)
      << "deleting the counter update never produced a diverging probe -- "
         "the scenario is not being exercised";

  // Rejecting diverging probes costs shrinks, never soundness: the reduced
  // witness still reproduces, and it shrank.
  ReproOracle Check(Spec);
  EXPECT_TRUE(Check.reproduces(Out.Reduced));
  EXPECT_LT(Out.TokensAfter, Out.TokensBefore);
}

TEST(SkeletonReducerTest, NonReproducingWitnessIsReturnedUnchanged) {
  ReproSpec Spec;
  Spec.Config = {Persona::GccSim, 70, 3, true, {}};
  Spec.Effect = BugEffect::Crash;
  Spec.SignatureKey = "no such signature";
  SkeletonReducer Reducer;
  const std::string Benign = "int main(void)\n{\n  return 0;\n}\n";
  ReductionOutcome Out = Reducer.reduce(Benign, Spec);
  EXPECT_EQ(Out.Reduced, Benign);
  EXPECT_EQ(Out.TokensBefore, Out.TokensAfter);
  EXPECT_EQ(Out.StatementsDeleted, 0u);
}

//===----------------------------------------------------------------------===//
// VariantMinimizer
//===----------------------------------------------------------------------===//

TEST(VariantMinimizerTest, FindsLowestTriggeringRank) {
  CampaignResult Campaign = embeddedCampaign();
  ASSERT_FALSE(Campaign.UniqueBugs.empty());

  OracleCache Cache;
  VariantMinimizer Minimizer(&Cache);
  unsigned Checked = 0;
  for (const auto &[Id, Bug] : Campaign.UniqueBugs) {
    ReproSpec Spec = specOf(Bug);
    MinimizeOutcome Out = Minimizer.minimize(Bug.WitnessProgram, Spec);
    ASSERT_FALSE(Out.Minimized.empty());

    // Whatever came back still reproduces (the witness itself always does).
    ReproOracle Check(Spec, &Cache);
    EXPECT_TRUE(Check.reproduces(Out.Minimized)) << "bug " << Id;

    // Alpha-renaming invariance of the skeleton: rank search never changes
    // the token count, only the variable choice.
    EXPECT_EQ(tokenCount(Out.Minimized), tokenCount(Bug.WitnessProgram));

    // Determinism.
    MinimizeOutcome Again = Minimizer.minimize(Bug.WitnessProgram, Spec);
    EXPECT_EQ(Again.Minimized, Out.Minimized);
    EXPECT_EQ(Again.Rank, Out.Rank);
    if (Out.FoundAtRank)
      ++Checked;
  }
  EXPECT_GT(Checked, 0u);
}
