//===- tests/skeleton_variant_binder_test.cpp - bound variant battery ----===//
//
// The battery behind skeleton/VariantBinder.h. A campaign interprets and
// lowers each variant's bound AST instead of parsing its text, so the
// bound AST must be the AST that parse builds:
//
//   * golden: over every budgeted, unpruned variant of the default corpus
//     and the loop corpus, at the primary and held-out base of each (built
//     as the campaign benchmark builds them), the binder accepts the
//     variant, prints it byte for byte as the renderer renders it, and
//     interprets, lowers and extracts features exactly as a fresh parse
//     of the text does. A silent fallback to the parse fails here;
//   * fallback: on hand-written seeds whose skeletons let a hole name a
//     variable its spelling does not reach (a local shadowing a global, a
//     local declared after the hole, a block-local shadow), bind() refuses
//     exactly the assignments whose text Sema resolves elsewhere or
//     nowhere, and campaigns record what testProgram records over the same
//     rendered variants, with validity pruning on and off;
//   * threads: a 4-thread campaign, each shard binding its own AST, equals
//     the 1-thread campaign (CI runs this file under ThreadSanitizer).
//
//===----------------------------------------------------------------------===//

#include "compiler/Features.h"
#include "compiler/IRGen.h"
#include "interp/Interpreter.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantBinder.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <map>
#include <memory>

using namespace spe;

namespace {

/// One seed after the front end, as the harness plans it.
struct SeedPlan {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<Sema> Analysis;
  std::vector<SkeletonUnit> Units;
  std::vector<ValidityConstraints> Validity;
};

std::unique_ptr<SeedPlan> plan(const std::string &Source,
                               const ExtractorOptions &Opts = {}) {
  auto P = std::make_unique<SeedPlan>();
  if (!Parser::parse(Source, P->Ctx, P->Diags))
    return nullptr;
  P->Analysis = std::make_unique<Sema>(P->Ctx, P->Diags);
  if (!P->Analysis->run())
    return nullptr;
  P->Units = SkeletonExtractor(P->Ctx, *P->Analysis, Opts).extract();
  P->Validity = analyzeValidity(P->Ctx, *P->Analysis, P->Units);
  return P;
}

/// "" when the two runs agree in every field, else the first that does
/// not.
std::string firstExecDiff(const ExecResult &A, const ExecResult &B) {
  if (A.Status != B.Status)
    return "Status";
  if (A.ExitCode != B.ExitCode)
    return "ExitCode";
  if (A.Output != B.Output)
    return "Output";
  if (A.Message != B.Message)
    return "Message";
  if (A.Reason != B.Reason)
    return "Reason";
  if (A.ExecutedStmts != B.ExecutedStmts)
    return "ExecutedStmts";
  return "";
}

std::string featureString(const ProgramFeatures &F) {
  std::string S;
  for (bool B :
       {F.IdenticalSubOperands, F.IdenticalDivOperands,
        F.IdenticalCmpOperands, F.IdenticalBitOperands, F.IdenticalCondArms,
        F.SelfAssignment, F.RepeatedCallArg, F.AliasedPointers,
        F.SelfAddressOfInit, F.BackwardGoto, F.GotoIntoLoop,
        F.CondWithSameVarAsArm, F.ShiftBySelf, F.IndexBySelf,
        F.UninitUseLikely, F.LoopBoundIsInductionVar})
    S += B ? '1' : '0';
  for (unsigned N : {F.NumLoops, F.NumGotos, F.NumDerefs, F.NumCalls,
                     F.NumStructAccesses})
    S += " " + std::to_string(N);
  return S;
}

/// "" when \p Bound is what parsing \p Text builds, as far as anything
/// downstream can tell; else what differs. Interpretation and IRGen run
/// on the bound AST in the order a campaign runs them, so its type table
/// carries every earlier variant's interned types.
std::string diffFromParse(ASTContext &Bound, const std::string &Text,
                          uint64_t MaxSteps) {
  if (AstPrinter().print(Bound) != Text)
    return "printed text";
  std::unique_ptr<ASTContext> Fresh = parseAndAnalyze(Text);
  if (!Fresh)
    return "frontend verdict";
  for (const char *Input : {"", "7 11"}) {
    InterpOptions IO;
    IO.MaxSteps = MaxSteps;
    IO.Input = Input;
    std::string Diff =
        firstExecDiff(interpret(Bound, IO), interpret(*Fresh, IO));
    if (!Diff.empty())
      return Diff + " under input '" + Input + "'";
  }
  IRGenResult A = generateIR(Bound);
  IRGenResult B = generateIR(*Fresh);
  if (A.Ok != B.Ok || A.Error != B.Error ||
      printModule(A.Module) != printModule(B.Module))
    return "IRGen module";
  if (featureString(extractFeatures(Bound)) !=
      featureString(extractFeatures(*Fresh)))
    return "features";
  return "";
}

/// One benchmark corpus at one base, with the campaign's threshold,
/// budget and oracle step budget.
struct Workload {
  std::string Name;
  uint64_t Base;
  std::vector<std::string> Seeds;
  uint64_t Threshold;
  uint64_t Budget;
  uint64_t MaxSteps;
};

std::vector<std::string> defaultCorpus(uint64_t Base) {
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(Base, 40, CO);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  return Seeds;
}

std::vector<std::string> loopCorpus(uint64_t Base) {
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  CO.BoundedLoopProb = 0.6;
  CO.RichHelperProb = 0.6;
  return generateCorpus(Base, 12, CO);
}

} // namespace

TEST(VariantBinderTest, EveryCorpusVariantBindsToItsTextsParse) {
  std::vector<Workload> Workloads;
  for (uint64_t Base : {2000u, 3000u})
    Workloads.push_back(
        {"corpus2p", Base, defaultCorpus(Base), 10'000, 400, 2'000'000});
  for (uint64_t Base : {8000u, 8500u})
    Workloads.push_back({"loops_ckpt", Base, loopCorpus(Base),
                         1'000'000'000'000'000'000ull, 200, 100'000});
  for (const Workload &W : Workloads) {
    std::string Tag = W.Name + " base " + std::to_string(W.Base);
    uint64_t Variants = 0, Fallbacks = 0, Reported = 0;
    for (const std::string &Source : W.Seeds) {
      std::unique_ptr<SeedPlan> P = plan(Source);
      if (!P)
        continue;
      if (ProgramEnumerator(P->Units, SpeMode::Exact).countSpe() >
          BigInt(W.Threshold))
        continue;
      ProgramCursor Cursor(P->Units, SpeMode::Exact);
      Cursor.setConstraints(constraintPtrs(P->Validity));
      Cursor.setEnd(BigInt(W.Budget));
      VariantRenderer Renderer(P->Ctx, P->Units);
      VariantBinder Binder(Renderer, P->Units, ExtractorOptions());
      std::string Text;
      while (const ProgramAssignment *PA = Cursor.next()) {
        ++Variants;
        Renderer.renderInto(*PA, Text);
        ASTContext *Bound = Binder.bind(*PA);
        if (!Bound) {
          if (Fallbacks++ < 5)
            ADD_FAILURE() << Tag << ": bind() refused\n" << Text;
          continue;
        }
        std::string Diff = diffFromParse(*Bound, Text, W.MaxSteps);
        if (!Diff.empty() && Reported++ < 5)
          ADD_FAILURE() << Tag << ": " << Diff << " differs from a parse of\n"
                        << Text;
      }
    }
    std::printf("%s: %llu variants bound, %llu fallbacks\n", Tag.c_str(),
                static_cast<unsigned long long>(Variants - Fallbacks),
                static_cast<unsigned long long>(Fallbacks));
    EXPECT_EQ(Fallbacks, 0u) << Tag;
    EXPECT_EQ(Reported, 0u) << Tag;
    EXPECT_GT(Variants, 1000u) << Tag;
  }
}

namespace {

/// Seeds whose skeletons let a hole name a variable its spelling does not
/// reach from the hole's site. Each also carries shifts, whose self-shift
/// variants crash gcc-sim 4.8 at -O3 -m32, so campaigns over them record
/// findings. A skeleton's canonical assignment names its first variable
/// at its first hole, so each first hole reaches that variable.
const char *const ShadowedGlobal = "int a = 3;\n"
                                   "int f(int x) {\n"
                                   "  int b = a + x;\n"
                                   "  int a = b << x;\n"
                                   "  return b / a;\n"
                                   "}\n"
                                   "int main(void) {\n"
                                   "  return f(a);\n"
                                   "}\n";
const char *const LaterLocal = "int c = 5;\n"
                               "int main(void) {\n"
                               "  int a = 3;\n"
                               "  int b = a + 1;\n"
                               "  int c = b - a;\n"
                               "  return c / b + (a << c);\n"
                               "}\n";
const char *const BlockShadow = "int main(void) {\n"
                                "  int x = 1;\n"
                                "  int y = x + 2;\n"
                                "  {\n"
                                "    int x = y + 3;\n"
                                "    y = y << x;\n"
                                "  }\n"
                                "  return x - y;\n"
                                "}\n";

/// Sema's declarations of one parse, by position: (scope, index in the
/// scope's declaration list). Two parses of texts that differ only in
/// identifier spellings build the same scopes and declare in the same
/// order, so a position names the same declaration in both.
std::map<const VarDecl *, std::pair<size_t, size_t>>
declPositions(const Sema &Analysis) {
  std::map<const VarDecl *, std::pair<size_t, size_t>> Pos;
  for (size_t S = 0; S < Analysis.scopes().size(); ++S)
    for (size_t I = 0; I < Analysis.scopes()[S].Vars.size(); ++I)
      Pos[Analysis.scopes()[S].Vars[I]] = {S, I};
  return Pos;
}

/// The variable uses of \p Ctx in printed order.
std::vector<const DeclRefExpr *> printedNames(const ASTContext &Ctx) {
  std::vector<AstPrinter::NameSite> Log;
  AstPrinter Printer;
  Printer.setNameLog(&Log);
  std::string Out;
  Printer.printTo(Ctx, Out);
  std::vector<const DeclRefExpr *> Refs;
  for (const AstPrinter::NameSite &N : Log)
    Refs.push_back(N.Ref);
  return Refs;
}

/// Whether the text path reads \p Text as \p PA: parsed and analysed on
/// its own, each hole's name resolves to the declaration \p PA chose
/// (matched by position, see declPositions).
bool textResolvesAsChosen(const SeedPlan &P, const ProgramAssignment &PA,
                          const std::string &Text) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  if (!Parser::parse(Text, Ctx, Diags))
    return false;
  Sema Analysis(Ctx, Diags);
  Analysis.run(); // Resolves every use it can, errors or not.
  std::map<const VarDecl *, std::pair<size_t, size_t>> SeedPos =
      declPositions(*P.Analysis);
  std::map<const VarDecl *, std::pair<size_t, size_t>> TextPos =
      declPositions(Analysis);
  std::vector<const DeclRefExpr *> SeedNames = printedNames(P.Ctx);
  std::vector<const DeclRefExpr *> TextNames = printedNames(Ctx);
  if (SeedNames.size() != TextNames.size())
    return false;
  std::map<const DeclRefExpr *, const DeclRefExpr *> TextSite;
  for (size_t I = 0; I < SeedNames.size(); ++I)
    TextSite[SeedNames[I]] = TextNames[I];
  for (size_t U = 0; U < P.Units.size(); ++U)
    for (size_t H = 0; H < PA[U].size(); ++H) {
      const VarDecl *Resolved = TextSite.at(P.Units[U].HoleSites[H])->decl();
      if (!Resolved ||
          TextPos.at(Resolved) != SeedPos.at(P.Units[U].AstVars[PA[U][H]]))
        return false;
    }
  return true;
}

std::vector<CompilerConfig> twoPersonaMatrix() {
  std::vector<CompilerConfig> Configs =
      HarnessOptions::crashMatrix(Persona::GccSim, 48);
  std::vector<CompilerConfig> Clang =
      HarnessOptions::crashMatrix(Persona::ClangSim, 39);
  Configs.insert(Configs.end(), Clang.begin(), Clang.end());
  return Configs;
}

} // namespace

TEST(VariantBinderTest, RefusesExactlyWhatTheTextResolvesElsewhere) {
  for (ScopeModel Model :
       {ScopeModel::PaperMerged, ScopeModel::Lexical, ScopeModel::DeclRegion})
    for (const char *Seed : {ShadowedGlobal, LaterLocal, BlockShadow}) {
      ExtractorOptions Opts;
      Opts.Model = Model;
      std::unique_ptr<SeedPlan> P = plan(Seed, Opts);
      ASSERT_TRUE(P) << Seed;
      std::string Tag =
          "model " + std::to_string(static_cast<int>(Model)) + "\n" + Seed;
      ProgramCursor Cursor(P->Units, SpeMode::Exact);
      VariantRenderer Renderer(P->Ctx, P->Units);
      VariantBinder Binder(Renderer, P->Units, Opts);
      std::string Text;
      uint64_t Bound = 0, Refused = 0, Wrong = 0;
      while (const ProgramAssignment *PA = Cursor.next()) {
        Renderer.renderInto(*PA, Text);
        bool Binds = Binder.bind(*PA) != nullptr;
        (Binds ? Bound : Refused) += 1;
        if (Binds != textResolvesAsChosen(*P, *PA, Text) && Wrong++ < 5)
          ADD_FAILURE() << Tag << "bind() " << (Binds ? "accepted" : "refused")
                        << "\n"
                        << Text;
      }
      EXPECT_EQ(Wrong, 0u) << Tag;
      EXPECT_GT(Bound, 0u) << Tag;
      // Only PaperMerged lets a hole name a later local; every model lets
      // one name a shadowed variable.
      EXPECT_GT(Refused, 0u) << Tag;
    }
}

TEST(VariantBinderTest, CampaignsRecordWhatTestProgramRecords) {
  // Bound or parsed, a variant is tested exactly as testProgram tests its
  // text: the campaign's tested/excluded counts and raw findings equal
  // testProgram's over the variants the campaign's cursor renders.
  for (bool Prune : {true, false})
    for (const char *Seed : {ShadowedGlobal, LaterLocal, BlockShadow}) {
      HarnessOptions Opts;
      Opts.Configs = twoPersonaMatrix();
      Opts.PruneInvalid = Prune;
      Opts.VariantBudget = 0;
      DifferentialHarness Harness(Opts);
      CampaignResult Campaign = Harness.runCampaign({Seed});

      std::unique_ptr<SeedPlan> P = plan(Seed);
      ASSERT_TRUE(P) << Seed;
      ProgramCursor Cursor(P->Units, SpeMode::Exact);
      if (Prune)
        Cursor.setConstraints(constraintPtrs(P->Validity));
      VariantRenderer Renderer(P->Ctx, P->Units);
      CampaignResult Reference;
      std::string Text;
      while (const ProgramAssignment *PA = Cursor.next()) {
        Renderer.renderInto(*PA, Text);
        Harness.testProgram(Text, Reference);
      }
      std::string Tag = std::string(Prune ? "pruned" : "unpruned") + "\n" +
                        Seed;
      EXPECT_EQ(Campaign.VariantsTested, Reference.VariantsTested) << Tag;
      EXPECT_EQ(Campaign.VariantsOracleExcluded,
                Reference.VariantsOracleExcluded)
          << Tag;
      EXPECT_TRUE(Campaign.RawFindings == Reference.RawFindings) << Tag;
      EXPECT_GT(Campaign.VariantsTested, 0u) << Tag;
      EXPECT_FALSE(Campaign.RawFindings.empty()) << Tag;
    }
}

TEST(VariantBinderTest, ShardsBindTheirOwnAstsAndMatchOneThread) {
  // Each of the four shards builds its own binder over the one seed plan;
  // an AST shared between shards would race here under ThreadSanitizer.
  HarnessOptions Opts;
  Opts.Configs = twoPersonaMatrix();
  const std::string &Seed = embeddedSeeds()[1];
  Opts.Threads = 1;
  CampaignResult One = DifferentialHarness(Opts).runCampaign({Seed});
  Opts.Threads = 4;
  CampaignResult Four = DifferentialHarness(Opts).runCampaign({Seed});
  EXPECT_TRUE(One == Four) << One.VariantsTested << " vs "
                           << Four.VariantsTested << " tested";
  EXPECT_GT(One.VariantsTested, 100u);
  EXPECT_FALSE(One.RawFindings.empty());
}
