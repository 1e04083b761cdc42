//===- tests/compiler_test.cpp - MiniCC compiler tests -------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "compiler/Passes.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>

using namespace spe;

namespace {

struct Compiled {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<Sema> Analysis;
};

std::unique_ptr<Compiled> analyze(const std::string &Source) {
  auto C = std::make_unique<Compiled>();
  EXPECT_TRUE(Parser::parse(Source, C->Ctx, C->Diags)) << C->Diags.toString();
  C->Analysis = std::make_unique<Sema>(C->Ctx, C->Diags);
  EXPECT_TRUE(C->Analysis->run()) << C->Diags.toString();
  return C;
}

/// Compiles at \p OptLevel with bugs disabled and runs the VM.
VMResult compileAndRun(const std::string &Source, unsigned OptLevel) {
  auto C = analyze(Source);
  CompilerConfig Config;
  Config.OptLevel = OptLevel;
  MiniCompiler CC(Config, nullptr, /*InjectBugs=*/false);
  CompileResult R = CC.compile(C->Ctx);
  EXPECT_TRUE(R.ok()) << R.Error << R.CrashSignature;
  if (!R.ok())
    return {};
  return executeModule(R.Module);
}

/// Runs the same source under the oracle and under MiniCC at every opt
/// level (bugs off) and requires identical observable behavior.
void expectAllLevelsMatchOracle(const std::string &Source) {
  auto C = analyze(Source);
  ExecResult Ref = interpret(C->Ctx);
  ASSERT_EQ(Ref.Status, ExecStatus::Ok) << Ref.Message;
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRun(Source, Opt);
    ASSERT_EQ(R.Status, VMStatus::Ok)
        << "O" << Opt << ": " << R.Message << "\n"
        << Source;
    EXPECT_EQ(R.ExitCode, Ref.ExitCode) << "O" << Opt << "\n" << Source;
    EXPECT_EQ(R.Output, Ref.Output) << "O" << Opt << "\n" << Source;
  }
}

} // namespace

TEST(CompilerTest, SimpleReturn) {
  expectAllLevelsMatchOracle("int main(void) { return 42; }");
}

TEST(CompilerTest, ArithmeticAndConversions) {
  expectAllLevelsMatchOracle(
      "int main(void) {\n"
      "  char c = 100; short s = -3; unsigned u = 40; long l = 1l << 33;\n"
      "  int x = c + s * 2;\n"
      "  unsigned y = u / 3 + (u % 7);\n"
      "  long z = l + x - y;\n"
      "  printf(\"%d %u %ld\\n\", x, y, z);\n"
      "  return (int)(z & 255);\n"
      "}");
}

TEST(CompilerTest, ControlFlowKitchenSink) {
  expectAllLevelsMatchOracle(
      "int main(void) {\n"
      "  int sum = 0;\n"
      "  for (int i = 0; i < 10; ++i) {\n"
      "    if (i % 3 == 0) continue;\n"
      "    sum += i;\n"
      "    if (sum > 30) break;\n"
      "  }\n"
      "  int n = 0;\n"
      "  while (n < 5) n++;\n"
      "  do sum += n; while (sum < 40);\n"
      "  return sum;\n"
      "}");
}

TEST(CompilerTest, FunctionsAndRecursion) {
  expectAllLevelsMatchOracle(
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }\n"
      "int twice(int v) { return v + v; }\n"
      "int main(void) { return twice(fib(9)); }");
}

TEST(CompilerTest, PointersArraysGlobals) {
  expectAllLevelsMatchOracle(
      "int arr[5] = {2, 4, 6, 8, 10};\n"
      "int g = 3;\n"
      "int main(void) {\n"
      "  int *p = arr + 1;\n"
      "  *p += g;\n"
      "  p++;\n"
      "  int sum = 0;\n"
      "  for (int i = 0; i < 5; ++i) sum += arr[i];\n"
      "  return sum + *p + (p - arr);\n"
      "}");
}

TEST(CompilerTest, StructsAndConditionals) {
  expectAllLevelsMatchOracle(
      "struct s { int x; int y; };\n"
      "struct s g = {3, 4};\n"
      "int main(void) {\n"
      "  struct s local;\n"
      "  local = g;\n"
      "  local.x = local.x + (local.y > 2 ? 10 : 20);\n"
      "  struct s *p = &local;\n"
      "  return p->x * 100 + p->y;\n"
      "}");
}

TEST(CompilerTest, GotoAndLabels) {
  expectAllLevelsMatchOracle(
      "int main(void) {\n"
      "  int i = 0, acc = 0;\n"
      "again:\n"
      "  acc += i;\n"
      "  i++;\n"
      "  if (i < 5) goto again;\n"
      "  return acc;\n"
      "}");
}

TEST(CompilerTest, ShortCircuitSideEffects) {
  expectAllLevelsMatchOracle(
      "int g = 0;\n"
      "int bump(void) { g = g + 1; return 1; }\n"
      "int main(void) {\n"
      "  int a = (0 && bump()) + (1 && bump()) + (0 || bump()) + (1 || bump());\n"
      "  return g * 10 + a;\n"
      "}");
}

TEST(CompilerTest, Figure1OptimizationScenario) {
  // The paper's Figure 1 P2: constant propagation of b = 1 folds the if
  // condition; dead code elimination removes the branch. Behavior must be
  // unchanged.
  expectAllLevelsMatchOracle("int main(void) {\n"
                             "  int a, b = 1;\n"
                             "  a = b - b;\n"
                             "  if (a)\n"
                             "    a = a - b;\n"
                             "  return a * 10 + b;\n"
                             "}");
}

TEST(CompilerTest, OptimizationActuallyShrinksCode) {
  auto C = analyze("int main(void) {\n"
                   "  int a = 3, b = 4;\n"
                   "  int c = a * b + a - a;\n"
                   "  if (0) c = 99;\n"
                   "  return c;\n"
                   "}");
  CompilerConfig O0, O3;
  O3.OptLevel = 3;
  MiniCompiler CC0(O0, nullptr, false), CC3(O3, nullptr, false);
  CompileResult R0 = CC0.compile(C->Ctx);
  CompileResult R3 = CC3.compile(C->Ctx);
  ASSERT_TRUE(R0.ok() && R3.ok());
  auto CountInstrs = [](const IRModule &M) {
    size_t N = 0;
    for (const IRFunction &F : M.Functions)
      for (const IRBlock &B : F.Blocks)
        N += B.Instrs.size();
    return N;
  };
  EXPECT_LT(CountInstrs(R3.Module), CountInstrs(R0.Module));
}

TEST(CompilerTest, VerifierAcceptsGeneratedIR) {
  auto C = analyze("int f(int n) { int s = 0; while (n) { s += n; n--; } "
                   "return s; }\n"
                   "int main(void) { return f(5); }");
  IRGenResult R = generateIR(C->Ctx);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(verifyModule(R.Module), "");
  // Each pass keeps the module well-formed.
  for (unsigned Opt = 1; Opt <= 3; ++Opt) {
    IRGenResult R2 = generateIR(C->Ctx);
    runPipeline(R2.Module, Opt, nullptr);
    EXPECT_EQ(verifyModule(R2.Module), "") << "O" << Opt;
  }
}

TEST(CompilerTest, CoveragePointsAccumulate) {
  CoverageRegistry Cov;
  registerPassCoverageCatalog(Cov);
  unsigned Total = Cov.totalPoints();
  EXPECT_GT(Total, 20u);
  EXPECT_EQ(Cov.hitPoints(), 0u);

  auto C = analyze("int main(void) {\n"
                   "  int a = 1, b = 1;\n"
                   "  int c = a - a + (b * 0);\n"
                   "  if (c) c = 7;\n"
                   "  while (c) c--;\n"
                   "  return c;\n"
                   "}");
  CompilerConfig Config;
  Config.OptLevel = 3;
  MiniCompiler CC(Config, &Cov, false);
  CompileResult R = CC.compile(C->Ctx);
  ASSERT_TRUE(R.ok());
  EXPECT_GT(Cov.hitPoints(), 5u);
  EXPECT_LE(Cov.hitPoints(), Total);
  EXPECT_GT(Cov.functionCoverage(), 0.0);
  Cov.resetHits();
  EXPECT_EQ(Cov.hitPoints(), 0u);
  EXPECT_EQ(Cov.totalPoints(), Total);
}

// --- injected bugs --------------------------------------------------------

TEST(InjectedBugTest, Figure3CrashFiresOnIdenticalCondArms) {
  // Enumerating e ? X : Y into e ? X : X (the paper's bug 69801 discovery).
  auto C = analyze("struct s { char c[1]; };\n"
                   "struct s a, b, c;\n"
                   "int d; int e;\n"
                   "int main(void) {\n"
                   "  e ? (d == 0 ? b : c).c : (d == 0 ? b : c).c;\n"
                   "  return 0;\n"
                   "}");
  CompilerConfig Config; // gcc-sim trunk -O0.
  MiniCompiler CC(Config);
  CompileResult R = CC.compile(C->Ctx);
  ASSERT_TRUE(R.crashed());
  EXPECT_NE(R.CrashSignature.find("operand_equal_p"), std::string::npos);
}

TEST(InjectedBugTest, OriginalFigure3ProgramDoesNotCrash) {
  // With distinct arms (e == 0 vs d == 0) the trigger pattern is absent.
  auto C = analyze("struct s { char c[1]; };\n"
                   "struct s a, b, c;\n"
                   "int d; int e;\n"
                   "int main(void) {\n"
                   "  e ? (e == 0 ? b : c).c : (d == 0 ? b : c).c;\n"
                   "  return 0;\n"
                   "}");
  CompilerConfig Config;
  MiniCompiler CC(Config);
  CompileResult R = CC.compile(C->Ctx);
  EXPECT_TRUE(R.ok()) << R.CrashSignature;
}

TEST(InjectedBugTest, Figure2AliasWrongCode) {
  // Two pointers to one object; the buggy compiler drops the last store.
  const char *Source = "int a = 0;\n"
                       "int main(void) {\n"
                       "  int *p = &a, *q = &a;\n"
                       "  *p = 1;\n"
                       "  *q = 2;\n"
                       "  return a;\n"
                       "}";
  auto C = analyze(Source);
  ExecResult Ref = interpret(C->Ctx);
  ASSERT_EQ(Ref.Status, ExecStatus::Ok);
  EXPECT_EQ(Ref.ExitCode, 2);

  CompilerConfig Config;
  Config.OptLevel = 2;
  auto C2 = analyze(Source);
  MiniCompiler Buggy(Config);
  CompileResult R = Buggy.compile(C2->Ctx);
  ASSERT_TRUE(R.ok()) << R.CrashSignature;
  VMResult V = executeModule(R.Module);
  ASSERT_TRUE(V.ok());
  // Miscompiled: the program returns 1 instead of 2 (as in the paper).
  EXPECT_NE(V.ExitCode, Ref.ExitCode);
}

TEST(InjectedBugTest, FixedVersionDoesNotFire) {
  auto C = analyze("int main(void) {\n"
                   "  int v = 5;\n"
                   "  int r = v - v;\n"
                   "  return r;\n"
                   "}");
  // Bug 4 (gcc-sim self-subtraction) is fixed in version 62.
  CompilerConfig Old;
  Old.Version = 61;
  Old.OptLevel = 2;
  CompilerConfig New;
  New.Version = 62;
  New.OptLevel = 2;
  MiniCompiler OldCC(Old), NewCC(New);
  auto C1 = analyze("int main(void) { int v = 5; return v - v; }");
  auto C2 = analyze("int main(void) { int v = 5; return v - v; }");
  CompileResult ROld = OldCC.compile(*&C1->Ctx);
  CompileResult RNew = NewCC.compile(*&C2->Ctx);
  ASSERT_TRUE(ROld.ok() && RNew.ok());
  bool OldFired = !ROld.FiredBugs.empty();
  bool NewFired = false;
  for (int Id : RNew.FiredBugs)
    if (Id == 4)
      NewFired = true;
  EXPECT_TRUE(OldFired);
  EXPECT_FALSE(NewFired);
  (void)C;
}

TEST(InjectedBugTest, OptLevelGatesBugs) {
  // The v/v fold bug needs -O3.
  const char *Source = "int main(void) { int v = 3; return v / v; }";
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    auto C = analyze(Source);
    CompilerConfig Config;
    Config.OptLevel = Opt;
    MiniCompiler CC(Config);
    CompileResult R = CC.compile(C->Ctx);
    ASSERT_TRUE(R.ok());
    bool DivBugFired = false;
    for (int Id : R.FiredBugs)
      if (bugDatabase()[Id - 1].Mut == Mutilation::FoldSelfDivToOne)
        DivBugFired = true;
    EXPECT_EQ(DivBugFired, Opt >= 3) << "O" << Opt;
  }
}

TEST(InjectedBugTest, PersonasHaveDistinctBugs) {
  std::vector<const InjectedBug *> Gcc = bugsOf(Persona::GccSim);
  std::vector<const InjectedBug *> Clang = bugsOf(Persona::ClangSim);
  EXPECT_GE(Gcc.size(), 10u);
  EXPECT_GE(Clang.size(), 8u);
  for (const InjectedBug *B : Gcc)
    EXPECT_EQ(B->P, Persona::GccSim);
  // Ids are unique and dense.
  EXPECT_EQ(Gcc.size() + Clang.size(), bugDatabase().size());
  for (size_t I = 0; I < bugDatabase().size(); ++I)
    EXPECT_EQ(bugDatabase()[I].Id, static_cast<int>(I) + 1);
}

TEST(InjectedBugTest, PerformanceBugInflatesCost) {
  auto C = analyze("int main(void) {\n"
                   "  int i = 0;\n"
                   "  for (; i < i; ++i) ;\n"
                   "  return i;\n"
                   "}");
  CompilerConfig Config;
  Config.OptLevel = 2;
  MiniCompiler CC(Config);
  CompileResult R = CC.compile(C->Ctx);
  ASSERT_TRUE(R.ok()) << R.CrashSignature;
  EXPECT_GT(R.CompileCost, 1'000'000u);
}

TEST(InjectedBugTest, Mode32OnlyBugs) {
  const char *Source = "int main(void) { int v = 3; return v << v; }";
  auto C64 = analyze(Source);
  auto C32 = analyze(Source);
  CompilerConfig Cfg64;
  Cfg64.OptLevel = 1;
  CompilerConfig Cfg32 = Cfg64;
  Cfg32.Mode64 = false;
  CompileResult R64 = MiniCompiler(Cfg64).compile(C64->Ctx);
  CompileResult R32 = MiniCompiler(Cfg32).compile(C32->Ctx);
  EXPECT_TRUE(R64.ok());
  EXPECT_TRUE(R32.crashed());
  EXPECT_NE(R32.CrashSignature.find("lra-assigns"), std::string::npos);
}

TEST(LoweredUnitTest, InPlaceModulesEqualCopiesAndMutilateOnlyTheirOwn) {
  // Aliased stores: DropLastStore fires from -O2 in gcc-sim 4.8 and
  // clang-sim 3.6, so their crash matrices mutilate at -O3 and not at
  // -O0.
  const char *Source = "int a = 0;\n"
                       "int main(void) {\n"
                       "  int *p = &a, *q = &a;\n"
                       "  *p = 1;\n"
                       "  *q = 2;\n"
                       "  return a;\n"
                       "}";
  unsigned Mutilated = 0;
  for (auto [P, Version] : {std::pair{Persona::GccSim, 48u},
                            std::pair{Persona::ClangSim, 36u}}) {
    auto C = analyze(Source);
    LoweredUnit Unit(C->Ctx, nullptr);
    // The crash matrix: -O0 and -O3, each at -m64 and -m32.
    for (unsigned Opt : {0u, 3u})
      for (bool Mode64 : {true, false}) {
        CompilerConfig Config{P, Version, Opt, Mode64, {}};
        std::string Tag = std::string(personaName(P)) + " O" +
                          std::to_string(Opt) + (Mode64 ? " m64" : " m32");
        MiniCompiler CC(Config);
        CompileResult Copy = CC.compile(Unit);
        CompileResult InPlace;
        const IRModule *M = CC.compileInPlace(Unit, InPlace);
        ASSERT_TRUE(Copy.ok()) << Tag << ": " << Copy.CrashSignature;
        ASSERT_NE(M, nullptr) << Tag;
        EXPECT_EQ(printModule(*M), printModule(Copy.Module)) << Tag;
        EXPECT_TRUE(InPlace.ok()) << Tag;
        EXPECT_EQ(InPlace.FiredBugs, Copy.FiredBugs) << Tag;
        EXPECT_EQ(InPlace.CompileCost, Copy.CompileCost) << Tag;

        Mutilation Mut = Mutilation::None;
        for (int Id : Copy.FiredBugs)
          if (Mut == Mutilation::None &&
              findBug(Id)->Effect == BugEffect::WrongCode)
            Mut = findBug(Id)->Mut;
        EXPECT_EQ(Mut != Mutilation::None, Opt == 3) << Tag;
        const IRModule &Level = Unit.module(Opt, Mutilation::None).IR;
        // The level's module is the bugs-off compile's, however many
        // configs mutilated a copy of it before.
        auto Fresh = analyze(Source);
        CompileResult Clean =
            MiniCompiler(Config, nullptr, /*InjectBugs=*/false)
                .compile(Fresh->Ctx);
        EXPECT_EQ(printModule(Level), printModule(Clean.Module)) << Tag;
        if (Mut == Mutilation::None) {
          EXPECT_EQ(M, &Level) << Tag;
          continue;
        }
        ++Mutilated;
        EXPECT_NE(M, &Level) << Tag;
        EXPECT_NE(printModule(*M), printModule(Level)) << Tag;
        EXPECT_EQ(M, &Unit.module(Opt, Mut).IR) << Tag;
      }
  }
  EXPECT_EQ(Mutilated, 4u);
}

TEST(LoweredUnitTest, MutilationThatFindsNothingSharesTheLevelModule) {
  // clang-sim 3.9's FoldSelfDivToOne fires on `v / v` from -O2, but the
  // -O3 pipeline has already folded this one to a constant: the mutilation
  // finds no division, so the unit hands back the level's own module.
  const char *Source = "int main(void) {\n"
                       "  int v = 3;\n"
                       "  return v / v + 4;\n"
                       "}";
  auto C = analyze(Source);
  LoweredUnit Unit(C->Ctx, nullptr);
  InProcessBackend Backend;
  unsigned Shared = 0;
  // The crash matrix: -O0 and -O3, each at -m64 and -m32.
  std::vector<CompilerConfig> Matrix;
  for (unsigned Opt : {0u, 3u})
    for (bool Mode64 : {true, false})
      Matrix.push_back({Persona::ClangSim, 39, Opt, Mode64, {}});
  for (const CompilerConfig &Config : Matrix) {
    std::string Tag = "O" + std::to_string(Config.OptLevel) +
                      (Config.Mode64 ? " m64" : " m32");
    CompileResult Lowered = MiniCompiler(Config).compile(Unit);
    auto Fresh = analyze(Source);
    CompileResult Plain = MiniCompiler(Config).compile(Fresh->Ctx);
    // The shared module changes no CompileResult field.
    EXPECT_EQ(Lowered.St, Plain.St) << Tag;
    EXPECT_EQ(Lowered.FiredBugs, Plain.FiredBugs) << Tag;
    EXPECT_EQ(Lowered.CrashSignature, Plain.CrashSignature) << Tag;
    EXPECT_EQ(Lowered.CrashBugId, Plain.CrashBugId) << Tag;
    EXPECT_EQ(Lowered.CompileCost, Plain.CompileCost) << Tag;
    EXPECT_EQ(printModule(Lowered.Module), printModule(Plain.Module)) << Tag;
    ASSERT_TRUE(Plain.ok()) << Tag << ": " << Plain.CrashSignature;

    // The backend's row, through the shared module and the VM memo, equals
    // the plain compile's execution.
    std::vector<BackendObservation> Row =
        Backend.runSweep(Source, Config, {std::string()}, nullptr);
    ASSERT_EQ(Row.size(), 1u) << Tag;
    VMResult Run = executeModule(Plain.Module);
    EXPECT_EQ(Row[0].Compile, BackendObservation::CompileStatus::Ok) << Tag;
    EXPECT_EQ(Row[0].FiredBugs, Plain.FiredBugs) << Tag;
    EXPECT_EQ(Row[0].Exec, BackendObservation::ExecStatus::Ok) << Tag;
    EXPECT_EQ(Row[0].ExitCode, Run.ExitCode) << Tag;
    EXPECT_EQ(Row[0].Output, Run.Output) << Tag;
    EXPECT_EQ(Run.ExitCode, 5) << Tag;

    bool Fired = false;
    for (int Id : Plain.FiredBugs)
      Fired |= findBug(Id)->Mut == Mutilation::FoldSelfDivToOne;
    EXPECT_EQ(Fired, Config.OptLevel == 3) << Tag;
    if (!Fired)
      continue;
    ++Shared;
    EXPECT_EQ(&Unit.module(3, Mutilation::FoldSelfDivToOne),
              &Unit.module(3, Mutilation::None))
        << Tag;
    IRModule Copy = Unit.module(3, Mutilation::None).IR;
    EXPECT_FALSE(applyMutilation(Copy, Mutilation::FoldSelfDivToOne)) << Tag;
  }
  EXPECT_EQ(Shared, 2u);
  // A divisor -O3 cannot fold keeps its division, so the mutilation edits
  // a copy.
  auto Kept = analyze("int main(void) {\n"
                      "  int v = spe_input() + 3;\n"
                      "  return v / v + 4;\n"
                      "}");
  LoweredUnit KeptUnit(Kept->Ctx, nullptr);
  IRModule Unfolded = KeptUnit.module(3, Mutilation::None).IR;
  EXPECT_TRUE(applyMutilation(Unfolded, Mutilation::FoldSelfDivToOne));
  EXPECT_NE(&KeptUnit.module(3, Mutilation::FoldSelfDivToOne),
            &KeptUnit.module(3, Mutilation::None));
}

//===--------------------------------------------------------------------===//
// Pinned MiniCC output over both benchmark corpora
//===--------------------------------------------------------------------===//

namespace {

uint64_t fnv1a(uint64_t H, const std::string &S) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  // A separator, so adjacent strings cannot trade bytes.
  H ^= 0xff;
  H *= 1099511628211ull;
  return H;
}

/// The seeds of one perfbench corpus at \p Base, as perfbench's makeCorpus
/// builds them (before its --seed shuffle, which only reorders them).
std::vector<std::string> benchmarkCorpus(bool Loops, uint64_t Base) {
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  if (Loops) {
    CO.BoundedLoopProb = 0.6;
    CO.RichHelperProb = 0.6;
    return generateCorpus(Base, 12, CO);
  }
  std::vector<std::string> Programs = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(Base, 40, CO);
  Programs.insert(Programs.end(), Gen.begin(), Gen.end());
  return Programs;
}

} // namespace

TEST(MiniCCDigestTest, BenchmarkCorporaCompileToPinnedModules) {
  // Every module MiniCC builds for the first 64 ranks of every seed of both
  // benchmark corpora at both their bases: its printModule text and its
  // verifier verdict at each opt level and mutilation, plus the coverage
  // hit set the unit's pipelines leave. The passes and the verifier may get
  // faster; what they compute must not move.
  constexpr unsigned RanksPerSeed = 64;
  const Mutilation Muts[] = {
      Mutilation::None,          Mutilation::DropLastStore,
      Mutilation::SwapFirstSubOperands, Mutilation::FoldSelfDivToOne,
      Mutilation::NegateFirstCondBr,    Mutilation::DropFirstStore};
  uint64_t H = 1469598103934665603ull;
  size_t Lowered = 0, Modules = 0;
  for (auto [Loops, Base] : {std::pair{false, 2000u}, std::pair{false, 3000u},
                             std::pair{true, 8000u}, std::pair{true, 8500u}}) {
    for (const std::string &Seed : benchmarkCorpus(Loops, Base)) {
      auto P = analyze(Seed);
      std::vector<SkeletonUnit> Units =
          SkeletonExtractor(P->Ctx, *P->Analysis, {}).extract();
      ProgramCursor Cursor(Units, SpeMode::Exact);
      VariantRenderer Renderer(P->Ctx, Units);
      std::string Text;
      for (unsigned Rank = 0; Rank < RanksPerSeed; ++Rank) {
        const ProgramAssignment *PA = Cursor.next();
        if (!PA)
          break;
        Renderer.renderInto(*PA, Text);
        std::unique_ptr<ASTContext> Ctx = parseAndAnalyze(Text);
        if (!Ctx) {
          H = fnv1a(H, "frontend rejected");
          continue;
        }
        CoverageRegistry Cov;
        registerPassCoverageCatalog(Cov);
        LoweredUnit Unit(*Ctx, &Cov);
        if (!Unit.ok()) {
          H = fnv1a(H, "irgen rejected: " + Unit.error());
          continue;
        }
        ++Lowered;
        // A mutilation that changes nothing hands back its level's module;
        // print each module once.
        std::map<const IRModule *, std::string> Printed;
        for (unsigned Opt = 0; Opt <= 3; ++Opt)
          for (Mutilation Mut : Muts) {
            const LoweredUnit::Module &M = Unit.module(Opt, Mut);
            auto [It, New] = Printed.try_emplace(&M.IR);
            if (New)
              It->second = printModule(M.IR);
            H = fnv1a(H, It->second);
            H = fnv1a(H, M.VerifyError);
            ++Modules;
          }
        for (const std::string &Point : Cov.hitSet())
          H = fnv1a(H, Point);
        H = fnv1a(H, "end of variant");
      }
    }
  }
  EXPECT_GT(Lowered, 5000u);
  EXPECT_EQ(Modules, Lowered * 24);
  EXPECT_EQ(H, 0xc94e60d1d342aa89ull) << std::hex << "digest 0x" << H;
}

//===--------------------------------------------------------------------===//
// Verifier messages
//===--------------------------------------------------------------------===//

namespace {

IRInstr instr(IROp Op) {
  IRInstr I;
  I.Op = Op;
  return I;
}

IRInstr def(IROp Op, unsigned Dst) {
  IRInstr I = instr(Op);
  I.HasDst = true;
  I.Dst = Dst;
  return I;
}

IRInstr ret(IROperand A) {
  IRInstr I = instr(IROp::Ret);
  I.A = A;
  return I;
}

IRInstr br(unsigned Succ) {
  IRInstr I = instr(IROp::Br);
  I.Succ0 = Succ;
  return I;
}

/// A module of two well-formed functions, `helper` and `f`, with one slot
/// and one global; each verifier case breaks `f`.
IRModule wellFormedModule() {
  IRModule M;
  M.Globals.emplace_back();
  M.Globals[0].Name = "g";
  IRFunction Helper;
  Helper.Name = "helper";
  Helper.Blocks.emplace_back();
  Helper.Blocks[0].Instrs.push_back(ret(IROperand::none()));
  M.Functions.push_back(Helper);
  IRFunction F;
  F.Name = "f";
  F.Slots.emplace_back();
  F.Blocks.resize(2);
  IRInstr Const = def(IROp::Const, 0);
  Const.A = IROperand::constant(7, nullptr);
  F.Blocks[0].Instrs.push_back(Const);
  F.Blocks[0].Instrs.push_back(br(1));
  F.Blocks[1].Instrs.push_back(ret(IROperand::reg(0, nullptr)));
  F.NumRegs = 1;
  M.Functions.push_back(F);
  M.MainIndex = 1;
  return M;
}

} // namespace

TEST(VerifierTest, EachMalformedModuleNamesItsProblem) {
  ASSERT_EQ(verifyModule(wellFormedModule()), "");
  auto Verify = [](void (*Break)(IRFunction &F)) {
    IRModule M = wellFormedModule();
    Break(M.Functions[1]);
    return verifyModule(M);
  };
  EXPECT_EQ(Verify([](IRFunction &F) { F.Blocks.clear(); }),
            "function 'f': no blocks");
  EXPECT_EQ(Verify([](IRFunction &F) { F.Blocks[1].Instrs.clear(); }),
            "function 'f': bb1: empty block");
  EXPECT_EQ(Verify([](IRFunction &F) { F.Blocks[0].Instrs.pop_back(); }),
            "function 'f': bb0: terminator placement broken");
  EXPECT_EQ(Verify([](IRFunction &F) {
              F.Blocks[1].Instrs.insert(F.Blocks[1].Instrs.begin(), br(0));
            }),
            "function 'f': bb1: terminator placement broken");
  EXPECT_EQ(Verify([](IRFunction &F) {
              F.Blocks[1].Instrs[0].A = IROperand::reg(1, nullptr);
            }),
            "function 'f': bb1: use of undefined register");
  EXPECT_EQ(Verify([](IRFunction &F) {
              IRInstr Neg = def(IROp::Neg, 1);
              Neg.A = IROperand::reg(0, nullptr);
              Neg.B = IROperand::reg(4000000000u, nullptr);
              F.Blocks[1].Instrs.insert(F.Blocks[1].Instrs.begin(), Neg);
            }),
            "function 'f': bb1: use of undefined register");
  EXPECT_EQ(Verify([](IRFunction &F) {
              IRInstr Call = instr(IROp::Call);
              Call.CalleeIndex = 0;
              Call.Args = {IROperand::reg(0, nullptr),
                           IROperand::reg(9, nullptr)};
              F.Blocks[1].Instrs.insert(F.Blocks[1].Instrs.begin(), Call);
            }),
            "function 'f': bb1: use of undefined register in args");
  EXPECT_EQ(Verify([](IRFunction &F) {
              IRInstr Addr = def(IROp::AddrSlot, 1);
              Addr.SlotIndex = 1;
              F.Blocks[0].Instrs.insert(F.Blocks[0].Instrs.begin(), Addr);
            }),
            "function 'f': bb0: slot index out of range");
  EXPECT_EQ(Verify([](IRFunction &F) {
              IRInstr Addr = def(IROp::AddrGlobal, 1);
              Addr.GlobalIndex = -1;
              F.Blocks[0].Instrs.insert(F.Blocks[0].Instrs.begin(), Addr);
            }),
            "function 'f': bb0: global index out of range");
  EXPECT_EQ(Verify([](IRFunction &F) {
              IRInstr Call = instr(IROp::Call);
              Call.CalleeIndex = 2;
              F.Blocks[0].Instrs.insert(F.Blocks[0].Instrs.begin(), Call);
            }),
            "function 'f': bb0: callee index out of range");
  EXPECT_EQ(Verify([](IRFunction &F) { F.Blocks[0].Instrs[1].Succ0 = 2; }),
            "function 'f': bb0: successor out of range");
  EXPECT_EQ(Verify([](IRFunction &F) {
              IRInstr CondBr = instr(IROp::CondBr);
              CondBr.A = IROperand::reg(0, nullptr);
              CondBr.Succ0 = 1;
              CondBr.Succ1 = 7;
              F.Blocks[0].Instrs.back() = CondBr;
            }),
            "function 'f': bb0: successor out of range");
  // The first problem in block order wins, and the first function's
  // problem wins over a later one's.
  IRModule Both = wellFormedModule();
  Both.Functions[0].Blocks[0].Instrs.clear();
  Both.Functions[1].Blocks.clear();
  EXPECT_EQ(verifyModule(Both), "function 'helper': bb0: empty block");
}

TEST(VerifierTest, RegistersAboveNumRegsVerifyAndOptimizeAsAnyOther) {
  // NumRegs is IRGen's counter, not a bound the IR promises: a register
  // defined past it is as defined as any other.
  IRModule M = wellFormedModule();
  IRFunction &F = M.Functions[1];
  IRInstr Add = def(IROp::Bin, 40);
  Add.Bin = BinaryOp::Add;
  Add.A = IROperand::reg(0, nullptr);
  Add.B = IROperand::reg(0, nullptr);
  F.Blocks[1].Instrs.insert(F.Blocks[1].Instrs.begin(), Add);
  F.Blocks[1].Instrs.back().A = IROperand::reg(40, nullptr);
  EXPECT_EQ(verifyModule(M), "");
  F.NumRegs = 0;
  EXPECT_EQ(verifyModule(M), "");

  // The pipeline reads the registers the IR names, so a function whose
  // NumRegs undercounts them optimizes exactly as one that counts them.
  auto C = analyze("int main(void) {\n"
                   "  int s = 0, i;\n"
                   "  for (i = 0; i < 4; i++) s += i * 3 + (s - s);\n"
                   "  return s;\n"
                   "}");
  IRGenResult Gen = generateIR(C->Ctx);
  ASSERT_TRUE(Gen.Ok) << Gen.Error;
  for (unsigned Opt = 1; Opt <= 3; ++Opt) {
    IRModule Counted = Gen.Module;
    IRModule Undercounted = Gen.Module;
    for (IRFunction &Fn : Undercounted.Functions)
      Fn.NumRegs = 0;
    runPipeline(Counted, Opt, nullptr);
    runPipeline(Undercounted, Opt, nullptr);
    EXPECT_EQ(printModule(Undercounted), printModule(Counted)) << "O" << Opt;
    EXPECT_EQ(verifyModule(Undercounted), "") << "O" << Opt;
  }
}

//===--------------------------------------------------------------------===//
// Integer value rules: the folder, the VM and the oracle agree
//===--------------------------------------------------------------------===//

namespace {

/// A main that computes `L Op R` on two constants of type \p Ty and prints
/// the result's whole 64-bit word.
IRModule binOnConstants(BinaryOp Op, const Type *Ty, const Type *IntTy,
                        uint64_t L, uint64_t R) {
  IRFunction F;
  F.Name = "main";
  F.Blocks.resize(1);
  IRInstr Bin = def(IROp::Bin, 0);
  Bin.Bin = Op;
  Bin.A = IROperand::constant(L, Ty);
  Bin.B = IROperand::constant(R, Ty);
  Bin.Ty = isComparisonOp(Op) ? IntTy : Ty;
  IRInstr Print = instr(IROp::Printf);
  Print.Fmt = "%lx";
  Print.Args = {IROperand::reg(0, Bin.Ty)};
  F.Blocks[0].Instrs = {Bin, Print, ret(IROperand::constant(0, IntTy))};
  F.NumRegs = 1;
  IRModule M;
  M.Functions.push_back(std::move(F));
  M.MainIndex = 0;
  return M;
}

/// One program that combines every ordered pair of the eight integer types
/// under arithmetic, shifts, comparisons, the conditional operator,
/// compound assignment and increments, printing each result as an
/// unsigned long. Function fA takes type A on the left. The values keep
/// every signed computation in range.
std::string mixedIntegerTypesProgram() {
  const char *const Types[] = {"char",  "unsigned char", "short",
                               "unsigned short", "int", "unsigned",
                               "long",  "unsigned long"};
  const char *const Values[] = {"-7",    "200",         "-300",
                                "40000", "-1000",       "4000000000u",
                                "-50000", "18000000000000000000ul"};
  const char *const Compound[] = {"+=", "-=", "*=", "/=", "%=",
                                  "&=", "|=", "^=", ">>="};
  std::string S, Main = "int main(void) {\n";
  for (int TA = 0; TA < 8; ++TA) {
    std::string Fn = "f" + std::to_string(TA);
    Main += "  " + Fn + "();\n";
    S += "void " + Fn + "(void) {\n";
    for (int T = 0; T < 8; ++T)
      S += std::string("  ") + Types[T] + " v" + std::to_string(T) + " = " +
           Values[T] + ";\n";
    for (int TB = 0; TB < 8; ++TB) {
      std::string A = "v" + std::to_string(TA), B = "v" + std::to_string(TB);
      std::string Cnt = "(" + B + " & 7)";
      const std::vector<std::string> Exprs = {
          A + " + " + B,
          A + " - " + B,
          A + " * " + B,
          A + " / " + B,
          A + " % " + B,
          A + " >> " + Cnt,
          "(" + A + " & 127) << " + Cnt,
          "(" + A + " < " + B + ") + 2 * (" + A + " <= " + B + ") + 4 * (" +
              A + " > " + B + ") + 8 * (" + A + " >= " + B + ") + 16 * (" +
              A + " == " + B + ") + 32 * (" + A + " != " + B + ")",
          A + " > " + B + " ? " + A + " : " + B,
          "-" + A + " + ~" + B};
      S += "  {\n    " + std::string(Types[TA]) + " t0";
      for (int K = 1; K < 12; ++K)
        S += ", t" + std::to_string(K);
      S += ";\n";
      for (int K = 0; K < 9; ++K) {
        std::string Rhs = std::string(Compound[K]) == ">>=" ? Cnt : B;
        S += "    t" + std::to_string(K) + " = " + A + "; t" +
             std::to_string(K) + " " + Compound[K] + " " + Rhs + ";\n";
      }
      S += "    t9 = " + A + " & 127; t9 <<= " + Cnt + ";\n";
      S += "    t10 = " + A + "; t10++;\n";
      S += "    t11 = " + A + "; --t11;\n";
      S += "    printf(\"";
      for (size_t K = 0; K < Exprs.size(); ++K)
        S += K ? " %lu" : "%lu";
      S += "\\n\"";
      for (const std::string &E : Exprs)
        S += ", (unsigned long)(" + E + ")";
      S += ");\n    printf(\"";
      for (int K = 0; K < 12; ++K)
        S += K ? " %lu" : "%lu";
      S += "\\n\"";
      for (int K = 0; K < 12; ++K)
        S += ", (unsigned long)t" + std::to_string(K);
      S += ");\n  }\n";
    }
    S += "}\n";
  }
  return S + Main + "  return 0;\n}\n";
}

} // namespace

TEST(ConstantFoldTest, FoldsEveryIntegerOperatorToTheValueTheVMComputes) {
  // Each integer operator on every pair of edge values of every integer
  // type: the folder either refuses the instruction, and then the VM traps
  // on it, or folds it to the word the VM prints.
  TypeContext Types;
  const Type *IntTy = Types.int32Type();
  const BinaryOp Ops[] = {BinaryOp::Mul,    BinaryOp::Div,    BinaryOp::Rem,
                          BinaryOp::Add,    BinaryOp::Sub,    BinaryOp::Shl,
                          BinaryOp::Shr,    BinaryOp::LT,     BinaryOp::GT,
                          BinaryOp::LE,     BinaryOp::GE,     BinaryOp::EQ,
                          BinaryOp::NE,     BinaryOp::BitAnd, BinaryOp::BitXor,
                          BinaryOp::BitOr};
  size_t Folded = 0, Refused = 0;
  for (unsigned Width : {8u, 16u, 32u, 64u})
    for (bool Signed : {true, false}) {
      const Type *Ty = Types.intType(Width, Signed);
      uint64_t Min = Signed ? 1ull << (Width - 1) : 0;
      uint64_t Max = Signed ? Min - 1 : ~0ull;
      std::vector<uint64_t> Edges = {0,   1,       ~0ull, 2,         Min,
                                     Max, Min + 1, Width - 1, Width};
      for (uint64_t &E : Edges)
        E = normalizeIntValue(Ty, E);
      for (BinaryOp Op : Ops)
        for (uint64_t L : Edges)
          for (uint64_t R : Edges) {
            std::string Case = Ty->toString() + " " + std::to_string(L) +
                               " " + binaryOpSpelling(Op) + " " +
                               std::to_string(R);
            IRModule M = binOnConstants(Op, Ty, IntTy, L, R);
            VMResult Run = executeModule(M);
            if (!foldConstants(M.Functions[0], nullptr)) {
              ++Refused;
              EXPECT_TRUE(Op == BinaryOp::Div || Op == BinaryOp::Rem) << Case;
              EXPECT_EQ(Run.Status, VMStatus::Trap) << Case;
              EXPECT_EQ(Run.Message,
                        R == 0 ? "division by zero" : "division overflow")
                  << Case;
              continue;
            }
            ++Folded;
            const IRInstr &I = M.Functions[0].Blocks[0].Instrs[0];
            ASSERT_EQ(I.Op, IROp::Const) << Case;
            ASSERT_EQ(Run.Status, VMStatus::Ok) << Case << ": " << Run.Message;
            char Word[32];
            std::snprintf(Word, sizeof(Word), "%llx",
                          static_cast<unsigned long long>(I.A.Imm));
            EXPECT_EQ(Run.Output, Word) << Case;
          }
    }
  // Division and remainder by zero (one zero edge in a signed type, two in
  // an unsigned one, where MIN is 0) and INT64_MIN / -1 and % -1.
  EXPECT_EQ(Refused, 2u * 9 * (4 * 1 + 4 * 2) + 2);
  EXPECT_EQ(Folded + Refused, 16u * 8 * 81);
}

TEST(CompilerTest, MixedIntegerTypesMatchTheOracleAtEveryLevel) {
  std::string Source = mixedIntegerTypesProgram();
  expectAllLevelsMatchOracle(Source);
  auto C = analyze(Source);
  ExecResult Ref = interpret(C->Ctx);
  ASSERT_EQ(Ref.Status, ExecStatus::Ok) << Ref.Message;
  EXPECT_EQ(std::count(Ref.Output.begin(), Ref.Output.end(), '\n'), 128);
  uint64_t H = fnv1a(1469598103934665603ull, Ref.Output);
  EXPECT_EQ(H, 0x79acf87c0902b16bull) << std::hex << "digest 0x" << H << "\n"
                                    << Ref.Output;
}

//===--------------------------------------------------------------------===//
// VM divergence check
//===--------------------------------------------------------------------===//

namespace {

/// Compiles at \p OptLevel with bugs disabled and runs the VM with no step
/// budget: only the divergence check can end a non-terminating run.
VMResult compileAndRunUnbounded(const std::string &Source, unsigned OptLevel,
                                const std::string &Input = "") {
  auto C = analyze(Source);
  CompilerConfig Config;
  Config.OptLevel = OptLevel;
  CompileResult R = MiniCompiler(Config, nullptr, false).compile(C->Ctx);
  EXPECT_TRUE(R.ok()) << R.Error << R.CrashSignature;
  if (!R.ok())
    return {};
  VMOptions Opts;
  Opts.MaxSteps = ~0ull;
  Opts.Input = Input;
  return executeModule(R.Module, Opts);
}

} // namespace

TEST(VMDivergenceTest, InfiniteLoopTimesOutWithoutABudget) {
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRunUnbounded(
        "int main(void) { while (1) ; return 0; }", Opt);
    EXPECT_EQ(R.Status, VMStatus::Timeout) << "O" << Opt;
    EXPECT_EQ(R.Reason, TimeoutReason::Repeat) << "O" << Opt;

    R = compileAndRunUnbounded("int main(void) {\n"
                               "  unsigned char c = 0;\n"
                               "  do { printf(\"%d\\n\", c); c = c + 1; }"
                               " while (1);\n"
                               "  return 0;\n"
                               "}",
                               Opt);
    EXPECT_EQ(R.Status, VMStatus::Timeout) << "O" << Opt;
    EXPECT_EQ(R.Reason, TimeoutReason::Repeat) << "O" << Opt;
    EXPECT_TRUE(R.Output.empty()) << "O" << Opt;
  }
}

TEST(VMDivergenceTest, TerminatingLoopsAreUnchanged) {
  const char *Source = "int main(void) {\n"
                       "  int flag = 0;\n"
                       "  int i = 0;\n"
                       "  while (i < 100000) { flag = 1 - flag; i = i + 1; }\n"
                       "  printf(\"%d\\n\", flag);\n"
                       "  return i % 251;\n"
                       "}";
  auto C = analyze(Source);
  InterpOptions Unbounded;
  Unbounded.MaxSteps = ~0ull;
  ExecResult Ref = interpret(C->Ctx, Unbounded);
  ASSERT_EQ(Ref.Status, ExecStatus::Ok) << Ref.Message;
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRunUnbounded(Source, Opt);
    ASSERT_EQ(R.Status, VMStatus::Ok) << "O" << Opt << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, Ref.ExitCode) << "O" << Opt;
    EXPECT_EQ(R.Output, Ref.Output) << "O" << Opt;
  }
}

TEST(VMDivergenceTest, StdinDrivenLoopIsUnchanged) {
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRunUnbounded(
        "int main(void) { while (spe_input() != 5) ; return 3; }", Opt,
        "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 5");
    ASSERT_EQ(R.Status, VMStatus::Ok) << "O" << Opt << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, 3) << "O" << Opt;
  }
}

TEST(VMDivergenceTest, StructCopyRotationIsUnchanged) {
  // Between main's loop heads memory changes only through the callees'
  // struct copies, which must move the write clock like any store.
  const char *Source = "struct P { int x; };\n"
                       "struct P r[20];\n"
                       "struct P t;\n"
                       "void rotate(void) {\n"
                       "  int j;\n"
                       "  t = r[0];\n"
                       "  for (j = 0; j < 19; j = j + 1) r[j] = r[j + 1];\n"
                       "  r[19] = t;\n"
                       "}\n"
                       "int done(void) { return r[0].x == 19; }\n"
                       "int main(void) {\n"
                       "  int j;\n"
                       "  for (j = 0; j < 20; j = j + 1) r[j].x = j;\n"
                       "  while (!done()) rotate();\n"
                       "  return r[0].x;\n"
                       "}";
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRunUnbounded(Source, Opt);
    ASSERT_EQ(R.Status, VMStatus::Ok) << "O" << Opt << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, 19) << "O" << Opt;
  }
}

TEST(VMDivergenceTest, FreshSlotIdsSeenAsIntegersEndTheLoop) {
  // Each call's slot gets the next block id, and main's registers and
  // memory are the same at every loop head; only the helpers' view of the
  // id as an integer tells the iterations apart, and it ends the loop.
  VMResult R = compileAndRunUnbounded(
      "long addr(void) { int local = 0; return (long)&local; }\n"
      "int reached(long first) { return addr() == first + (100l << 32); }\n"
      "int main(void) {\n"
      "  long first = addr();\n"
      "  while (!reached(first)) ;\n"
      "  return 7;\n"
      "}",
      0);
  ASSERT_EQ(R.Status, VMStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 7);

  // The same through a pointer's bytes loaded as an integer.
  R = compileAndRunUnbounded(
      "int *dangle(void) { int local = 0; return &local; }\n"
      "int reached(int **pp, long *q, long first) {\n"
      "  *pp = dangle();\n"
      "  int r = *q == first + 100;\n"
      "  *pp = 0;\n"
      "  return r;\n"
      "}\n"
      "int main(void) {\n"
      "  int *p = 0;\n"
      "  long *q = (long *)&p;\n"
      "  p = dangle();\n"
      "  long first = *q;\n"
      "  p = 0;\n"
      "  while (!reached(&p, q, first)) ;\n"
      "  return 9;\n"
      "}",
      0);
  ASSERT_EQ(R.Status, VMStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 9);

  // And through integer bytes loaded as a pointer: g is forged to name a
  // slot a later call will allocate.
  R = compileAndRunUnbounded(
      "int *g;\n"
      "int *dangle(void) { int local = 0; return &local; }\n"
      "int hit(void) { int local = 0; return &local == g; }\n"
      "int main(void) {\n"
      "  g = dangle();\n"
      "  long *q = (long *)&g;\n"
      "  *q = *q + 100;\n"
      "  while (!hit()) ;\n"
      "  return 11;\n"
      "}",
      0);
  ASSERT_EQ(R.Status, VMStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 11);
}

//===--------------------------------------------------------------------===//
// VM drift proofs
//===--------------------------------------------------------------------===//

namespace {

/// Compiles at \p OptLevel with bugs disabled and runs the VM at its
/// default 5M-step budget.
VMResult compileAndRunAtBudget(const std::string &Source, unsigned OptLevel) {
  auto C = analyze(Source);
  CompilerConfig Config;
  Config.OptLevel = OptLevel;
  CompileResult R = MiniCompiler(Config, nullptr, false).compile(C->Ctx);
  EXPECT_TRUE(R.ok()) << R.Error << R.CrashSignature;
  if (!R.ok())
    return {};
  return executeModule(R.Module);
}

void expectVMDrift(const std::string &Source) {
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRunAtBudget(Source, Opt);
    EXPECT_EQ(R.Status, VMStatus::Timeout) << "O" << Opt;
    EXPECT_EQ(R.Reason, TimeoutReason::Drift) << "O" << Opt << ": "
                                              << R.Message;
    EXPECT_TRUE(R.Output.empty()) << "O" << Opt;
  }
}

} // namespace

TEST(VMDivergenceTest, DriftingGlobalIsProven) {
  expectVMDrift("int g0;\n"
                "int main(void) {\n"
                "  for (int i5 = 0; i5 < 4; ++g0) {}\n"
                "  return 0;\n"
                "}");
}

TEST(VMDivergenceTest, DriftingLocalIsProven) {
  expectVMDrift("int main(void) {\n"
                "  int n = 0;\n"
                "  int i = 0;\n"
                "  while (i < 10) { n += 3; n = n - 1; }\n"
                "  return n;\n"
                "}");
}

TEST(VMDivergenceTest, PrintfSinkIsProven) {
  expectVMDrift("int main(void) {\n"
                "  unsigned int c = 7;\n"
                "  do { printf(\"%u\\n\", c); c--; } while (1);\n"
                "  return 0;\n"
                "}");
}

TEST(VMDivergenceTest, MonotoneGuardIsProven) {
  // Seed 6's shape with its guard already false: a0 counts down, and only
  // the wrap about 2^31 turns away flips the guard.
  expectVMDrift("int main(void) {\n"
                "  int a0 = 1;\n"
                "  do { printf(\"%d\\n\", a0); a0 = a0 - 1; }"
                " while (a0 < 5);\n"
                "  return a0;\n"
                "}");
}

TEST(VMDivergenceTest, RegisterHeldTemporaryIsProven) {
  // Every turn loads the counter into a fresh temporary; the temporaries
  // differ between turns but are dead at the loop head.
  expectVMDrift("int g;\n"
                "int main(void) {\n"
                "  int k = 3;\n"
                "  while (k > 0) { printf(\"%d\\n\", g); g = g + 2; }\n"
                "  return 0;\n"
                "}");
}

TEST(VMDivergenceTest, GuardFlipInsideTheBudgetExits) {
  const char *Source = "int main(void) {\n"
                       "  int i = 0;\n"
                       "  int n = 0;\n"
                       "  while (i < 20000) { ++n; i += 1; }\n"
                       "  printf(\"%d\\n\", n);\n"
                       "  return i % 256;\n"
                       "}";
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRunAtBudget(Source, Opt);
    ASSERT_EQ(R.Status, VMStatus::Ok) << "O" << Opt << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, 20000 % 256) << "O" << Opt;
    EXPECT_EQ(R.Output, "20000\n") << "O" << Opt;
  }
  // The VM wraps: a signed counter climbing past INT_MAX flips the guard.
  VMResult R = compileAndRunAtBudget("int main(void) {\n"
                                     "  int x = 2147480000;\n"
                                     "  while (x > 0) x = x + 1;\n"
                                     "  return 6;\n"
                                     "}",
                                     0);
  ASSERT_EQ(R.Status, VMStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 6);
}

TEST(VMDivergenceTest, CellsOthersCanReadGiveNoProof) {
  const char *Through = "int main(void) {\n"
                        "  int g = 0;\n"
                        "  int *p = &g;\n"
                        "  while (*p < 20000) g = g + 1;\n"
                        "  return 3;\n"
                        "}";
  const char *Callee = "int g;\n"
                       "int get(void) { return g; }\n"
                       "int main(void) {\n"
                       "  while (get() < 20000) g = g + 1;\n"
                       "  return 4;\n"
                       "}";
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    VMResult R = compileAndRunAtBudget(Through, Opt);
    ASSERT_EQ(R.Status, VMStatus::Ok) << "O" << Opt << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, 3) << "O" << Opt;
    R = compileAndRunAtBudget(Callee, Opt);
    ASSERT_EQ(R.Status, VMStatus::Ok) << "O" << Opt << ": " << R.Message;
    EXPECT_EQ(R.ExitCode, 4) << "O" << Opt;
  }
  // As an index and as a divisor, at O0 where nothing is folded away.
  VMResult R = compileAndRunAtBudget("int t[1000];\n"
                                     "int main(void) {\n"
                                     "  int i = 0;\n"
                                     "  while (1) { t[i] = 0; i = i + 1; }\n"
                                     "  return 0;\n"
                                     "}",
                                     0);
  EXPECT_EQ(R.Status, VMStatus::Trap) << R.Message;
  R = compileAndRunAtBudget("int main(void) {\n"
                            "  int d = -1000;\n"
                            "  int s = 0;\n"
                            "  while (1) { s = 100 / d; s = 0; d = d + 1; }\n"
                            "  return 0;\n"
                            "}",
                            0);
  EXPECT_EQ(R.Status, VMStatus::Trap) << R.Message;
}

TEST(VMDivergenceTest, GuardThatFlippedInTheWindowGivesNoProof) {
  VMResult R = compileAndRunAtBudget(
      "int main(void) {\n"
      "  int x = 1000;\n"
      "  int t = 1;\n"
      "  while (1) {\n"
      "    t = 1 - t;\n"
      "    if (x < 500 + t * 1000) { if (t == 0) break; }\n"
      "    x = x - 1;\n"
      "  }\n"
      "  return x;\n"
      "}",
      0);
  ASSERT_EQ(R.Status, VMStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 498);
}
