//===- tests/interp_test.cpp - reference interpreter tests ---------------===//

#include "compiler/Compiler.h"
#include "compiler/VM.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "support/Divergence.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

ExecResult runProgram(const std::string &Source, InterpOptions Opts = {}) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_TRUE(Parser::parse(Source, Ctx, Diags)) << Diags.toString();
  Sema Analysis(Ctx, Diags);
  EXPECT_TRUE(Analysis.run()) << Diags.toString();
  return interpret(Ctx, Opts);
}

} // namespace

TEST(InterpTest, ReturnsExitCode) {
  ExecResult R = runProgram("int main(void) { return 42; }");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(InterpTest, FallingOffMainReturnsZero) {
  ExecResult R = runProgram("int main(void) { }");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(InterpTest, ArithmeticAndLocals) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int a = 6, b = 7;\n"
                            "  int c = a * b;\n"
                            "  return c - 2 * (a + b) % 5;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 42 - (2 * 13) % 5);
}

TEST(InterpTest, GlobalsAreZeroInitialized) {
  ExecResult R = runProgram("int g;\nint main(void) { return g; }");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(InterpTest, GlobalInitializersRunInOrder) {
  ExecResult R = runProgram("int a = 3;\nint b = 4;\n"
                            "int main(void) { return a * 10 + b; }");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 34);
}

TEST(InterpTest, PrintfOutput) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int x = -5; unsigned u = 7; long l = 1l << 40;\n"
                            "  printf(\"%d %u %ld %c!\\n\", x, u, l, 65);\n"
                            "  return 0;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.Output, "-5 7 1099511627776 A!\n");
}

TEST(InterpTest, ControlFlow) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int sum = 0;\n"
                            "  for (int i = 1; i <= 10; ++i) {\n"
                            "    if (i % 2 == 0) continue;\n"
                            "    sum += i;\n"
                            "    if (sum > 20) break;\n"
                            "  }\n"
                            "  int n = 0;\n"
                            "  while (n < 3) n++;\n"
                            "  do sum--; while (sum > 24);\n"
                            "  return sum + n;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  // sum: 1+3+5+7+9 = 25 -> break at 25; do-while: 24; n = 3.
  EXPECT_EQ(R.ExitCode, 27);
}

TEST(InterpTest, FunctionCallsAndRecursion) {
  ExecResult R = runProgram("int fib(int n) {\n"
                            "  if (n < 2) return n;\n"
                            "  return fib(n - 1) + fib(n - 2);\n"
                            "}\n"
                            "int main(void) { return fib(10); }");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 55);
}

TEST(InterpTest, PointersAndArrays) {
  ExecResult R = runProgram("int arr[4] = {10, 20, 30, 40};\n"
                            "int main(void) {\n"
                            "  int *p = arr + 1;\n"
                            "  *p = *p + 5;\n"
                            "  p++;\n"
                            "  return arr[1] + *p;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 55);
}

TEST(InterpTest, StructsAndMembers) {
  ExecResult R = runProgram("struct s { int x; int y; };\n"
                            "struct s g = {3, 4};\n"
                            "int main(void) {\n"
                            "  struct s local;\n"
                            "  local = g;\n"
                            "  local.y = local.y + 1;\n"
                            "  struct s *p = &local;\n"
                            "  return p->x * 10 + p->y;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 35);
}

TEST(InterpTest, GotoForwardAndBackward) {
  // The paper's Figure 11(d) program: expected exit code 0.
  ExecResult R = runProgram("int main(void) {\n"
                            "  int *p = 0;\n"
                            "trick:\n"
                            "  if (p) return *p;\n"
                            "  int x = 0;\n"
                            "  p = &x;\n"
                            "  goto trick;\n"
                            "  return 1;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(InterpTest, GotoIntoLoopBody) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int i = 0, sum = 100;\n"
                            "  goto inside;\n"
                            "  while (i < 3) {\n"
                            "inside:\n"
                            "    sum += 1;\n"
                            "    i += 1;\n"
                            "  }\n"
                            "  return sum;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  // Entered mid-body: sum += 1, i = 1, then loop runs i = 1, 2 -> sum = 103.
  EXPECT_EQ(R.ExitCode, 103);
}

TEST(InterpTest, GotoIntoABlockCreatesItsSkippedObjects) {
  // The jump skips x's declaration, but x exists from the block's entry.
  ExecResult R = runProgram("int main(void) {\n"
                            "  goto in;\n"
                            "  { int x; in: x = 4; return x; }\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 4);

  // Its initializer does not run, so x is indeterminate at the label.
  R = runProgram("int main(void) {\n"
                 "  goto in;\n"
                 "  { int x = 7; in: return x; }\n"
                 "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("uninitialized"), std::string::npos) << R.Message;

  // A for's init is skipped the same way: i exists, indeterminate.
  R = runProgram("int main(void) {\n"
                 "  int s = 0;\n"
                 "  goto in;\n"
                 "  for (int i = 0; i < 3; ++i) { in: if (!s) i = 1; s += i; }\n"
                 "  return s;\n"
                 "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);
  R = runProgram("int main(void) {\n"
                 "  int s = 0;\n"
                 "  goto in;\n"
                 "  for (int i = 0; i < 3; ++i) { in: s += 1; }\n"
                 "  return s;\n"
                 "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("uninitialized"), std::string::npos) << R.Message;
}

TEST(InterpTest, GotoInsideABlockKeepsItsObjects) {
  // The label is inside the block the goto leaves from, so the block is
  // never left and x keeps its value.
  ExecResult R = runProgram("int main(void) {\n"
                            "  {\n"
                            "    int x = 5;\n"
                            "  again:\n"
                            "    x = x + 1;\n"
                            "    if (x < 8) goto again;\n"
                            "    return x;\n"
                            "  }\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 8);
}

TEST(InterpTest, RedeclarationInTheSameBlockReusesTheObject) {
  // The second pass re-runs x's initializer on the object p points to.
  ExecResult R = runProgram("int main(void) {\n"
                            "  int *p = 0;\n"
                            "  int n = 0;\n"
                            "again:\n"
                            "  int x = n;\n"
                            "  if (n) return *p + x;\n"
                            "  p = &x;\n"
                            "  n = 5;\n"
                            "  goto again;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 10);

  // Without an initializer the object becomes indeterminate.
  R = runProgram("int main(void) {\n"
                 "  int n = 0;\n"
                 "again:\n"
                 "  int x;\n"
                 "  if (n) return x;\n"
                 "  x = 3;\n"
                 "  n = 1;\n"
                 "  goto again;\n"
                 "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("uninitialized"), std::string::npos) << R.Message;
}

TEST(InterpTest, ShortCircuitEvaluation) {
  ExecResult R = runProgram("int g = 0;\n"
                            "int bump(void) { g = g + 1; return 1; }\n"
                            "int main(void) {\n"
                            "  0 && bump();\n"
                            "  1 || bump();\n"
                            "  1 && bump();\n"
                            "  return g;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 1);
}

TEST(InterpTest, ConditionalExprWithStructs) {
  // The shape of the paper's Figure 3 crash program executes cleanly here.
  ExecResult R = runProgram("struct s { char c[1]; };\n"
                            "struct s a, b, c;\n"
                            "int d; int e;\n"
                            "int main(void) {\n"
                            "  e ? (d == 0 ? b : c).c : (d == 0 ? b : c).c;\n"
                            "  return 0;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
}

TEST(InterpTest, UnsignedWraparoundIsDefined) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  unsigned u = 4294967295u;\n"
                            "  u = u + 1;\n"
                            "  return u == 0;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 1);
}

// --- UB oracle ----------------------------------------------------------

TEST(InterpUBTest, UninitializedReadIsUB) {
  ExecResult R = runProgram("int main(void) { int x; return x; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("uninitialized"), std::string::npos);
}

TEST(InterpUBTest, SignedOverflowIsUB) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int x = 2147483647;\n"
                            "  x = x + 1;\n"
                            "  return 0;\n"
                            "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("overflow"), std::string::npos);
}

TEST(InterpUBTest, DivisionByZeroIsUB) {
  ExecResult R = runProgram("int z;\nint main(void) { return 5 / z; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  ExecResult R2 = runProgram("int z;\nint main(void) { return 5 % z; }");
  EXPECT_EQ(R2.Status, ExecStatus::UndefinedBehavior);
}

TEST(InterpUBTest, IntMinDivMinusOneIsUB) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int a = 1; a = -2147483647 - a;\n"
                            "  int b = -1;\n"
                            "  return a / b;\n"
                            "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
}

TEST(InterpUBTest, OversizedShiftIsUB) {
  ExecResult R = runProgram("int s = 32;\nint main(void) { return 1 << s; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
}

TEST(InterpUBTest, NegativeLeftShiftIsUB) {
  ExecResult R = runProgram("int v = -1;\nint main(void) { return v << 1; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
}

TEST(InterpUBTest, NullDerefIsUB) {
  ExecResult R = runProgram("int main(void) { int *p = 0; return *p; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("null"), std::string::npos);
}

TEST(InterpUBTest, OutOfBoundsIndexIsUB) {
  ExecResult R = runProgram("int arr[3];\n"
                            "int main(void) { arr[0] = 1; return arr[3]; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("out-of-bounds"), std::string::npos);
}

TEST(InterpUBTest, PointerEscapeIsUB) {
  ExecResult R = runProgram("int a;\n"
                            "int main(void) { int *p = &a; p = p + 2; "
                            "return 0; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
}

TEST(InterpUBTest, OnePastEndPointerIsAllowed) {
  ExecResult R = runProgram("int arr[3];\n"
                            "int main(void) {\n"
                            "  int *p = arr + 3;\n"
                            "  return p - arr;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(InterpUBTest, DanglingPointerUseIsUB) {
  ExecResult R = runProgram("int *leak(void) { int x = 1; return &x; }\n"
                            "int main(void) { int *p = leak(); return *p; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("dangling"), std::string::npos);
}

TEST(InterpUBTest, BlockLocalDanglesAfterItsBlock) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int *p = 0;\n"
                            "  { int x = 5; p = &x; }\n"
                            "  return *p;\n"
                            "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("dangling"), std::string::npos) << R.Message;
}

TEST(InterpUBTest, ArithmeticOnADanglingPointerIsUB) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int *p = 0;\n"
                            "  { int y[4]; p = y; }\n"
                            "  p = p + 1;\n"
                            "  return 0;\n"
                            "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("dangling"), std::string::npos) << R.Message;
}

TEST(InterpMemoryTest, ReleasedBlockHoldsNoStorage) {
  // A loop that declares an array releases a block every iteration; a
  // dead block that kept its bytes would grow memory with the step count.
  MachineMemory Mem;
  uint32_t Id = Mem.allocate(256, /*TrackInit=*/true, /*ZeroInit=*/false);
  ASSERT_EQ(Mem.Blocks[Id].Bytes.size(), 256u);
  ASSERT_EQ(Mem.Blocks[Id].Init.size(), 256u);
  Mem.release(Id);
  EXPECT_FALSE(Mem.Blocks[Id].Alive);
  EXPECT_EQ(Mem.Blocks[Id].Bytes.capacity(), 0u);
  EXPECT_EQ(Mem.Blocks[Id].Init.capacity(), 0u);
  EXPECT_EQ(Mem.LiveBlocks, 0u);
}

TEST(InterpUBTest, GotoOutOfABlockEndsItsLocals) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int *p = 0;\n"
                            "  { int x = 5; p = &x; goto out; }\n"
                            "out:\n"
                            "  return *p;\n"
                            "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("dangling"), std::string::npos) << R.Message;
}

TEST(InterpUBTest, ForInitLocalEndsWithTheLoop) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int *p = 0;\n"
                            "  for (int i = 0; i < 1; ++i) p = &i;\n"
                            "  return *p;\n"
                            "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("dangling"), std::string::npos) << R.Message;
}

TEST(InterpUBTest, CrossObjectRelationIsUB) {
  ExecResult R = runProgram("int a; int b;\n"
                            "int main(void) { return &a < &b; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
}

TEST(InterpUBTest, CrossObjectEqualityIsDefined) {
  ExecResult R = runProgram("int a; int b;\n"
                            "int main(void) { return &a == &b; }");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 0);
}

TEST(InterpUBTest, UnusedIndeterminateReturnIsNotUB) {
  ExecResult R = runProgram("int noret(void) { }\n"
                            "int main(void) { noret(); return 7; }");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 7);
}

TEST(InterpUBTest, UsedIndeterminateReturnIsUB) {
  ExecResult R = runProgram("int noret(void) { }\n"
                            "int main(void) { return noret() + 1; }");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
}

TEST(InterpTest, InfiniteLoopTimesOut) {
  InterpOptions Opts;
  Opts.MaxSteps = 10000;
  ExecResult R = runProgram("int main(void) { while (1) ; return 0; }", Opts);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
}

TEST(InterpTest, DeepRecursionTimesOut) {
  ExecResult R = runProgram("int f(int n) { return f(n + 0); }\n"
                            "int main(void) { return f(1); }");
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
}

TEST(InterpTest, ExecutedStatementsAreTracked) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  int a = 1;\n"
                            "  if (a) a = 2; else a = 3;\n"
                            "  return a;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 2);
  // Some statements ran; the else branch did not.
  EXPECT_GE(R.ExecutedStmts.size(), 4u);
}

TEST(InterpTest, AliasingThroughPointers) {
  // The essence of the paper's Figure 2 bug: two routes to one object; the
  // last write must win.
  ExecResult R = runProgram("int a = 0;\n"
                            "int main(void) {\n"
                            "  int *p = &a, *q = &a;\n"
                            "  *p = 1;\n"
                            "  *q = 2;\n"
                            "  return a;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 2);
}

TEST(InterpTest, CompoundAssignOnPointer) {
  ExecResult R = runProgram("int arr[5] = {1, 2, 3, 4, 5};\n"
                            "int main(void) {\n"
                            "  int *p = arr;\n"
                            "  p += 3;\n"
                            "  p -= 1;\n"
                            "  return *p;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(InterpTest, CharAndShortPromotions) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  char c = 100;\n"
                            "  char d = 100;\n"
                            "  int x = c + d;\n"
                            "  short s = -4;\n"
                            "  return x + s;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 196);
}

TEST(InterpTest, TruncationOnNarrowStoreIsDefined) {
  ExecResult R = runProgram("int main(void) {\n"
                            "  char c = 300;\n" // 300 & 0xff = 44
                            "  unsigned char u;\n"
                            "  return c;\n"
                            "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 44);
}

//===--------------------------------------------------------------------===//
// printf: the oracle and the MiniCC VM print alike
//===--------------------------------------------------------------------===//

namespace {

/// Compiles \p Source with MiniCC at -O0, bugs off, and runs the VM.
VMResult runOnVM(const std::string &Source) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  EXPECT_TRUE(Parser::parse(Source, Ctx, Diags)) << Diags.toString();
  Sema Analysis(Ctx, Diags);
  EXPECT_TRUE(Analysis.run()) << Diags.toString();
  CompileResult R = MiniCompiler(CompilerConfig(), nullptr, false).compile(Ctx);
  EXPECT_TRUE(R.ok()) << R.Error;
  return executeModule(R.Module);
}

} // namespace

TEST(InterpPrintfTest, OracleAndVMPrintEachConversionAlike) {
  // Each case runs `printf("ok\n"); <Call>;`. A failing printf prints
  // nothing of its own; each executor reports the failure its own way.
  struct Case {
    const char *Call;
    const char *Output;
    ExecStatus Oracle;
    const char *OracleMessage;
    VMStatus VM;
    const char *VMMessage;
  };
  const ExecStatus Ok = ExecStatus::Ok, UB = ExecStatus::UndefinedBehavior,
                   Unsupported = ExecStatus::Unsupported;
  const VMStatus VMOk = VMStatus::Ok, Trap = VMStatus::Trap;
  const Case Cases[] = {
      {R"(printf("%d %i %u %x %c %%|\n", -5, -6, -7, 255, 65))",
       "ok\n-5 -6 4294967289 ff A %|\n", Ok, "", VMOk, ""},
      {R"(printf("%ld %li %lu %lx %lc %l%|\n", -5000000000l, -6l, -7l, -1l,
              66l))",
       "ok\n-5000000000 -6 18446744073709551609 ffffffffffffffff B %|\n", Ok,
       "", VMOk, ""},
      // Without l a conversion reads the low 32 bits of the word.
      {R"(printf("%d %i %u %x %lld|\n", 5000000000l, -5000000000l,
              5000000000l, 5000000000l, 5000000000l))",
       "ok\n705032704 -705032704 705032704 2a05f200 5000000000|\n", Ok, "",
       VMOk, ""},
      {R"(printf("50%"))", "ok\n50", Ok, "", VMOk, ""},
      {R"(printf("a%l"))", "ok\na%", Ok, "", VMOk, ""},
      {R"(printf("%d %d\n", 1))", "ok\n", UB,
       "printf: missing argument for %d", Trap, "printf: missing argument"},
      {R"(printf("%i"))", "ok\n", UB, "printf: missing argument for %d", Trap,
       "printf: missing argument"},
      {R"(printf("%lu"))", "ok\n", UB, "printf: missing argument for %u",
       Trap, "printf: missing argument"},
      {R"(printf("%lx"))", "ok\n", UB, "printf: missing argument for %x",
       Trap, "printf: missing argument"},
      {R"(printf("%c"))", "ok\n", UB, "printf: missing argument for %c", Trap,
       "printf: missing argument"},
      {R"(printf("%s\n", 1))", "ok\n", Unsupported, "printf conversion %s",
       Trap, "printf conversion %s"},
      {R"(printf("%lq %d", 1, 2))", "ok\n", Unsupported,
       "printf conversion %q", Trap, "printf conversion %q"},
      {R"(printf("%5d", 1))", "ok\n", Unsupported, "printf conversion %5",
       Trap, "printf conversion %5"},
  };
  for (const Case &C : Cases) {
    std::string Source = std::string("int main(void) {\n  printf(\"ok\\n\");\n  ") +
                         C.Call + ";\n  return 0;\n}\n";
    ExecResult Ref = runProgram(Source);
    EXPECT_EQ(Ref.Status, C.Oracle) << C.Call;
    EXPECT_EQ(Ref.Message, C.OracleMessage) << C.Call;
    EXPECT_EQ(Ref.Output, C.Output) << C.Call;
    VMResult Run = runOnVM(Source);
    EXPECT_EQ(Run.Status, C.VM) << C.Call;
    EXPECT_EQ(Run.Message, C.VMMessage) << C.Call;
    EXPECT_EQ(Run.Output, C.Output) << C.Call;
  }
}

TEST(InterpPrintfTest, UnknownConversionFailsBeforeItsMissingArgument) {
  // Both executors check a conversion before they look for its argument.
  const char *Source = "int main(void) { printf(\"%s\"); return 0; }";
  ExecResult Ref = runProgram(Source);
  EXPECT_EQ(Ref.Status, ExecStatus::Unsupported);
  EXPECT_EQ(Ref.Message, "printf conversion %s");
  VMResult Run = runOnVM(Source);
  EXPECT_EQ(Run.Status, VMStatus::Trap);
  EXPECT_EQ(Run.Message, "printf conversion %s");
}

//===--------------------------------------------------------------------===//
// Divergence check: a repeated loop-head state ends the run early, and
// nothing else about the result changes
//===--------------------------------------------------------------------===//

namespace {

/// Runs with no step budget at all: only the divergence check can end a
/// non-terminating run.
ExecResult runUnbounded(const std::string &Source,
                        const std::string &Input = "") {
  InterpOptions Opts;
  Opts.MaxSteps = ~0ull;
  Opts.Input = Input;
  return runProgram(Source, Opts);
}

void expectRepeatDetected(const ExecResult &R) {
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Reason, TimeoutReason::Repeat);
  EXPECT_TRUE(R.Output.empty()) << R.Output;
}

} // namespace

TEST(InterpDivergenceTest, EmptyInfiniteLoopRepeats) {
  expectRepeatDetected(
      runUnbounded("int main(void) { while (1) ; return 0; }"));
}

TEST(InterpDivergenceTest, WrappingCounterRepeats) {
  // d copies c, so c is no drift cell; the state repeats after 256 turns.
  expectRepeatDetected(runUnbounded("int main(void) {\n"
                                    "  unsigned char c = 0;\n"
                                    "  unsigned char d = 0;\n"
                                    "  for (;;) { c = c + 1; d = c; }\n"
                                    "  return c;\n"
                                    "}"));
}

TEST(InterpDivergenceTest, HelperCallsAndPrintsRepeat) {
  // Every iteration allocates (and frees) the helper's frame and prints;
  // fresh block ids and output are not part of the compared state.
  ExecResult R = runUnbounded("int twice(int x) { int y = x * 2; "
                              "return y - x; }\n"
                              "int main(void) {\n"
                              "  int a = 1;\n"
                              "  do {\n"
                              "    a = twice(a);\n"
                              "    printf(\"%d\\n\", a);\n"
                              "  } while (a);\n"
                              "  return 0;\n"
                              "}");
  expectRepeatDetected(R);
  EXPECT_FALSE(R.ExecutedStmts.empty());
}

TEST(InterpDivergenceTest, ExhaustedStdinRepeats) {
  expectRepeatDetected(
      runUnbounded("int main(void) { while (spe_input() != 5) ; return 0; }",
                   "1 2 3"));
}

TEST(InterpDivergenceTest, PointerToIntegerConversionBlocksDetection) {
  InterpOptions Opts;
  Opts.MaxSteps = 100'000;
  ExecResult R = runProgram("int main(void) {\n"
                            "  int x = 0;\n"
                            "  long v = 0;\n"
                            "  while (1) v = (long)&x;\n"
                            "  return 0;\n"
                            "}",
                            Opts);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Reason, TimeoutReason::Budget);

  R = runProgram("long addr(void) { int local = 0; return (long)&local; }\n"
                 "int main(void) {\n"
                 "  long first = addr();\n"
                 "  while (addr() != first) ;\n"
                 "  return 0;\n"
                 "}",
                 Opts);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Reason, TimeoutReason::Budget);
}

TEST(InterpDivergenceTest, FreshBlockIdsSeenAsIntegersEndTheLoop) {
  // Memory looks the same at every loop head, but each call's local gets
  // the next block id, and converting it to an integer tells them apart:
  // the loop ends, so a repeat must not be reported.
  ExecResult R = runUnbounded(
      "long addr(void) { int local = 0; return (long)&local; }\n"
      "int main(void) {\n"
      "  long first = addr();\n"
      "  while (addr() != first + (100l << 32)) ;\n"
      "  return 7;\n"
      "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 7);

  // The same through a pointer's bytes read back as an integer.
  R = runUnbounded("int *dangle(void) { int local = 0; return &local; }\n"
                   "int main(void) {\n"
                   "  int *p = 0;\n"
                   "  long *q = (long *)&p;\n"
                   "  long first;\n"
                   "  p = dangle();\n"
                   "  first = *q;\n"
                   "  p = 0;\n"
                   "  while (1) {\n"
                   "    p = dangle();\n"
                   "    if (*q == first + 100) break;\n"
                   "    p = 0;\n"
                   "  }\n"
                   "  return 9;\n"
                   "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 9);

  // And through integer bytes read back as a pointer: g is forged to name
  // a block a later call will allocate.
  R = runUnbounded("int *g;\n"
                   "int *dangle(void) { int local = 0; return &local; }\n"
                   "int hit(void) { int local = 0; return &local == g; }\n"
                   "int main(void) {\n"
                   "  g = dangle();\n"
                   "  long *q = (long *)&g;\n"
                   "  *q = *q + 100;\n"
                   "  while (!hit()) ;\n"
                   "  return 11;\n"
                   "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 11);
}

TEST(InterpDivergenceTest, PeriodicFlagBesideACounterIsUnchanged) {
  ExecResult R = runUnbounded("int main(void) {\n"
                              "  int flag = 0;\n"
                              "  int i = 0;\n"
                              "  while (i < 1000) {\n"
                              "    flag = 1 - flag;\n"
                              "    i = i + 1;\n"
                              "  }\n"
                              "  printf(\"%d\\n\", flag);\n"
                              "  return i + flag;\n"
                              "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 1000);
  EXPECT_EQ(R.Output, "0\n");
}

TEST(InterpDivergenceTest, StdinDrivenLoopIsUnchanged) {
  // Memory is the same at every loop head; only the input position moves.
  ExecResult R = runUnbounded(
      "int main(void) { while (spe_input() != 5) ; return 3; }",
      "1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 1 5");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);
}

TEST(InterpDivergenceTest, StructCopyRotationIsUnchanged) {
  // Between loop heads memory changes only through struct copies, which
  // must move the write clock like any store.
  ExecResult R = runUnbounded("struct P { int x; };\n"
                              "struct P r[20];\n"
                              "struct P t;\n"
                              "int main(void) {\n"
                              "  int j;\n"
                              "  for (j = 0; j < 20; j = j + 1) r[j].x = j;\n"
                              "  while (r[0].x != 19) {\n"
                              "    t = r[0];\n"
                              "    for (j = 0; j < 19; j = j + 1)\n"
                              "      r[j] = r[j + 1];\n"
                              "    r[19] = t;\n"
                              "  }\n"
                              "  return r[0].x;\n"
                              "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 19);
}

TEST(InterpDivergenceTest, LongCountingLoopWithinBudgetIsUnchanged) {
  InterpOptions Opts;
  Opts.MaxSteps = 5'000'000;
  ExecResult R = runProgram("int main(void) {\n"
                            "  int i = 0;\n"
                            "  do i = i + 1; while (i < 100000);\n"
                            "  return i;\n"
                            "}",
                            Opts);
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 100000);
}

TEST(InterpDivergenceTest, TimeoutsCarryNoOutput) {
  InterpOptions Opts;
  Opts.MaxSteps = 10'000;
  ExecResult R = runProgram("int main(void) {\n"
                            "  int i = 0;\n"
                            "  while (1) { printf(\"%d\\n\", i); i = i + 1; }\n"
                            "  return 0;\n"
                            "}",
                            Opts);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Reason, TimeoutReason::Drift);
  EXPECT_TRUE(R.Output.empty());

  // No proof sees through a pointer-to-integer conversion: the budget.
  R = runProgram("int main(void) {\n"
                 "  int x = 0;\n"
                 "  long v = 0;\n"
                 "  while (1) { printf(\"%d\\n\", x); v = (long)&x; }\n"
                 "  return 0;\n"
                 "}",
                 Opts);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Reason, TimeoutReason::Budget);
  EXPECT_TRUE(R.Output.empty());

  R = runProgram("int f(int n) { printf(\"x\"); return f(n); }\n"
                 "int main(void) { return f(1); }");
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Reason, TimeoutReason::CallDepth);
  EXPECT_TRUE(R.Output.empty());
}

//===--------------------------------------------------------------------===//
// Drift proofs: the state repeats up to counters that only march, and the
// budget ends before anything they steer can change
//===--------------------------------------------------------------------===//

namespace {

/// Runs at the harness's 2M-step budget.
ExecResult runAtBudget(const std::string &Source) {
  InterpOptions Opts;
  Opts.MaxSteps = 2'000'000;
  return runProgram(Source, Opts);
}

void expectDrift(const ExecResult &R) {
  EXPECT_EQ(R.Status, ExecStatus::Timeout) << R.Message;
  EXPECT_EQ(R.Reason, TimeoutReason::Drift) << R.Message;
  EXPECT_TRUE(R.Output.empty()) << R.Output;
}

} // namespace

TEST(InterpDivergenceTest, DriftingGlobalIsProven) {
  // corpus2p's family: the guard reads i5, and g0 climbs.
  expectDrift(runAtBudget("int g0;\n"
                          "int main(void) {\n"
                          "  for (int i5 = 0; i5 < 4; ++g0) {}\n"
                          "  return 0;\n"
                          "}"));
}

TEST(InterpDivergenceTest, DriftingLocalIsProven) {
  expectDrift(runAtBudget("int main(void) {\n"
                          "  int n = 0;\n"
                          "  int i = 0;\n"
                          "  while (i < 10) { n += 3; n = n - 1; }\n"
                          "  return n;\n"
                          "}"));
}

TEST(InterpDivergenceTest, PrintfSinkIsProven) {
  expectDrift(runAtBudget("int main(void) {\n"
                          "  unsigned int c = 7;\n"
                          "  do { printf(\"%u\\n\", c); c--; } while (1);\n"
                          "  return 0;\n"
                          "}"));
}

TEST(InterpDivergenceTest, MonotoneGuardIsProven) {
  // a falls away from the guard's bound; only its overflow, 2^31 turns
  // away, could end the loop.
  expectDrift(runAtBudget("int main(void) {\n"
                          "  int a = 1;\n"
                          "  int lim = 5;\n"
                          "  do { printf(\"%d\\n\", a); a = a - 1; }"
                          " while (a < lim);\n"
                          "  return 0;\n"
                          "}"));
  // The same with the cell on the right of the comparison, unsigned.
  expectDrift(runAtBudget("int main(void) {\n"
                          "  unsigned int u = 10;\n"
                          "  while (5 < u) u = u + 1;\n"
                          "  return 0;\n"
                          "}"));
}

TEST(InterpDivergenceTest, OverflowInsideTheBudgetStaysUB) {
  ExecResult R = runAtBudget("int main(void) {\n"
                             "  int x = 2147480000;\n"
                             "  while (1) { printf(\"%d\\n\", x); x = x + 1; }\n"
                             "  return 0;\n"
                             "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior);
  EXPECT_NE(R.Message.find("signed integer overflow"), std::string::npos)
      << R.Message;
}

TEST(InterpDivergenceTest, GuardFlipInsideTheBudgetExits) {
  ExecResult R = runAtBudget("int main(void) {\n"
                             "  int i = 0;\n"
                             "  int n = 0;\n"
                             "  while (i < 20000) { ++n; i += 1; }\n"
                             "  printf(\"%d\\n\", n);\n"
                             "  return i % 256;\n"
                             "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 20000 % 256);
  EXPECT_EQ(R.Output, "20000\n");

  // A wrap is a flip too: c passes 255 and the loop ends.
  R = runAtBudget("int main(void) {\n"
                  "  unsigned char c = 1;\n"
                  "  while (c > 0) c = c + 1;\n"
                  "  return 9;\n"
                  "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 9);
}

TEST(InterpDivergenceTest, CellsOthersCanReadGiveNoProof) {
  // Through a pointer the loop dereferences.
  ExecResult R = runAtBudget("int main(void) {\n"
                             "  int g = 0;\n"
                             "  int *p = &g;\n"
                             "  while (*p < 20000) g = g + 1;\n"
                             "  return 3;\n"
                             "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);

  // By a callee.
  R = runAtBudget("int g;\n"
                  "int get(void) { return g; }\n"
                  "int main(void) {\n"
                  "  while (get() < 20000) g = g + 1;\n"
                  "  return 4;\n"
                  "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 4);

  // As an index: the store leaves the array at i == 1000.
  R = runAtBudget("int t[1000];\n"
                  "int main(void) {\n"
                  "  int i = 0;\n"
                  "  while (1) { t[i] = 0; i = i + 1; }\n"
                  "  return 0;\n"
                  "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior) << R.Message;

  // As a divisor: d reaches 0.
  R = runAtBudget("int main(void) {\n"
                  "  int d = -1000;\n"
                  "  while (1) { if (100 / d) ; d = d + 1; }\n"
                  "  return 0;\n"
                  "}");
  EXPECT_EQ(R.Status, ExecStatus::UndefinedBehavior) << R.Message;
}

TEST(InterpDivergenceTest, GuardThatFlippedInTheWindowGivesNoProof) {
  // The guard's bound alternates with t, so its outcome flips inside every
  // window (whose first turn sees the high bound); x falls until a t == 0
  // turn sees x < 500.
  ExecResult R = runAtBudget("int main(void) {\n"
                             "  int x = 1000;\n"
                             "  int t = 1;\n"
                             "  while (1) {\n"
                             "    t = 1 - t;\n"
                             "    if (x < 500 + t * 1000) { if (t == 0) break; }\n"
                             "    x = x - 1;\n"
                             "  }\n"
                             "  return x;\n"
                             "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 498);
}

//===--------------------------------------------------------------------===//
// Block lifetimes and taken gotos: a local ends with its block, and a
// taken goto is a detection point of its label, for exact repeats only
//===--------------------------------------------------------------------===//

TEST(InterpDivergenceTest, NestedLoopWithAForInitLocalRepeats) {
  // The inner i ends with its loop, so the outer head's state repeats.
  ExecResult R = runAtBudget("int main(void) {\n"
                             "  while (1) { for (int i = 0; i < 3; ++i) {} }\n"
                             "  return 0;\n"
                             "}");
  expectRepeatDetected(R);
}

TEST(InterpDivergenceTest, TrickVariantsRepeatAtTheirGoto) {
  // The two variants of the embedded Figure 11(d) seed that write x where
  // the seed writes done: done stays 0, and each pass re-reaches x's
  // declaration in the same block activation.
  for (const char *Target : {"x", "done"}) {
    ExecResult R = runAtBudget(std::string("int main(void) {\n"
                                           "  int *p = 0;\n"
                                           "  int done = 0;\n"
                                           "trick:\n"
                                           "  if (done) return *p;\n"
                                           "  int x = 0;\n"
                                           "  p = &") +
                               Target +
                               ";\n"
                               "  x = 1;\n"
                               "  goto trick;\n"
                               "}");
    expectRepeatDetected(R);
  }
}

TEST(InterpDivergenceTest, GotoLoopCountingToThreeExits) {
  ExecResult R = runAtBudget("int main(void) {\n"
                             "  int i = 0;\n"
                             "again:\n"
                             "  i = i + 1;\n"
                             "  printf(\"%d\\n\", i);\n"
                             "  if (i < 3) goto again;\n"
                             "  return i;\n"
                             "}");
  ASSERT_EQ(R.Status, ExecStatus::Ok) << R.Message;
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_EQ(R.Output, "1\n2\n3\n");
}

TEST(InterpDivergenceTest, DriftingGotoCycleSpendsTheBudget) {
  // The loop form is a drift proof; a goto cycle gets exact repeats only.
  InterpOptions Opts;
  Opts.MaxSteps = 100'000;
  ExecResult R = runProgram("int g;\n"
                            "int main(void) {\n"
                            "top:\n"
                            "  g = g + 1;\n"
                            "  goto top;\n"
                            "}",
                            Opts);
  EXPECT_EQ(R.Status, ExecStatus::Timeout);
  EXPECT_EQ(R.Reason, TimeoutReason::Budget);
  EXPECT_TRUE(R.Output.empty());
}
