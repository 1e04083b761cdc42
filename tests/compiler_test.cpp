//===- tests/compiler_test.cpp - MiniCC compiler tests -------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "compiler/Passes.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"

#include "gtest/gtest.h"

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
