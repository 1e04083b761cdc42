//===- tests/analysis_cfg_test.cpp - CFG builder and dataflow battery ----===//
//
// Unit coverage for the analysis/ subsystem underpinning CFG-based validity
// pruning:
//
//   * block/edge structure for if/while/do/for/goto nests, pinned by
//     locating the blocks that hold specific AST nodes;
//   * unreachable-code handling (code after return/goto takes no edges into
//     the reachable region);
//   * must-execute masks (blocks on every entry-to-exit path);
//   * dataflow fixpoint convergence on graphs with back edges, with a
//     transfer-count bound so a diverging lattice cannot hide behind a
//     passing result;
//   * call summaries and the transitive must-called set;
//   * the def-before-use facts the rewritten ValidityAnalysis derives from
//     loops, do-bodies, and must-called helpers -- including the cases the
//     old straight-line-prefix walker provably could not see.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/CallSummary.h"
#include "analysis/Dataflow.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <memory>

using namespace spe;

namespace {

/// A parsed and analyzed program plus the artifacts the assertions need.
struct Fixture {
  std::unique_ptr<ASTContext> Ctx;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<Sema> Analysis;
};

Fixture analyze(const std::string &Source) {
  Fixture F;
  F.Ctx = std::make_unique<ASTContext>();
  F.Diags = std::make_unique<DiagnosticEngine>();
  EXPECT_TRUE(Parser::parse(Source, *F.Ctx, *F.Diags)) << Source;
  F.Analysis = std::make_unique<Sema>(*F.Ctx, *F.Diags);
  EXPECT_TRUE(F.Analysis->run()) << Source;
  return F;
}

/// \returns the id of the unique block whose elements contain \p E.
unsigned blockOfExpr(const CFG &G, const Expr *E) {
  for (unsigned B = 0; B < G.size(); ++B)
    for (const CFGElement &El : G.block(B).Elems)
      if (El.ElemKind == CFGElement::Kind::Expr && El.E == E)
        return B;
  ADD_FAILURE() << "expression not placed in any block";
  return ~0u;
}

/// \returns the id of the unique block declaring the variable named \p Name.
unsigned blockOfDecl(const CFG &G, const std::string &Name) {
  for (unsigned B = 0; B < G.size(); ++B)
    for (const CFGElement &El : G.block(B).Elems)
      if (El.ElemKind == CFGElement::Kind::Decl && El.D->name() == Name)
        return B;
  ADD_FAILURE() << "declaration of " << Name << " not placed in any block";
  return ~0u;
}

bool hasEdge(const CFG &G, unsigned From, unsigned To) {
  const std::vector<unsigned> &S = G.block(From).Succs;
  return std::find(S.begin(), S.end(), To) != S.end();
}

/// \returns the first statement of kind \p K anywhere under \p S.
const Stmt *findStmt(const Stmt *S, Stmt::Kind K) {
  if (!S)
    return nullptr;
  if (S->kind() == K)
    return S;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      if (const Stmt *Found = findStmt(Child, K))
        return Found;
    return nullptr;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    if (const Stmt *Found = findStmt(I->thenStmt(), K))
      return Found;
    return findStmt(I->elseStmt(), K);
  }
  case Stmt::Kind::While:
    return findStmt(cast<WhileStmt>(S)->body(), K);
  case Stmt::Kind::Do:
    return findStmt(cast<DoStmt>(S)->body(), K);
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    if (const Stmt *Found = findStmt(F->init(), K))
      return Found;
    return findStmt(F->body(), K);
  }
  case Stmt::Kind::Label:
    return findStmt(cast<LabelStmt>(S)->sub(), K);
  default:
    return nullptr;
  }
}

/// First statement of a compound body, as the expression it evaluates.
const Expr *firstBodyExpr(const Stmt *Body) {
  return cast<ExprStmt>(cast<CompoundStmt>(Body)->body().front())->expr();
}

//===----------------------------------------------------------------------===//
// Block and edge structure
//===----------------------------------------------------------------------===//

TEST(CFGStructureTest, StraightLineBodyIsOneBlock) {
  Fixture F = analyze("int main(void) {\n"
                      "  int x = 1;\n"
                      "  x = x + 2;\n"
                      "  return x;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  CFG G = CFG::build(*Main);

  unsigned Body = blockOfDecl(G, "x");
  EXPECT_TRUE(hasEdge(G, CFG::EntryBlock, Body));
  EXPECT_TRUE(hasEdge(G, Body, CFG::ExitBlock));
  // Declaration, assignment, return value: one block, three elements.
  EXPECT_EQ(G.block(Body).Elems.size(), 3u);
  // Entry and exit are synthetic and empty.
  EXPECT_TRUE(G.block(CFG::EntryBlock).Elems.empty());
  EXPECT_TRUE(G.block(CFG::ExitBlock).Elems.empty());
}

TEST(CFGStructureTest, IfElseDiamond) {
  Fixture F = analyze("int main(void) {\n"
                      "  int c = 1;\n"
                      "  if (c > 0) {\n"
                      "    c = 2;\n"
                      "  } else {\n"
                      "    c = 3;\n"
                      "  }\n"
                      "  return c;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *If = cast<IfStmt>(findStmt(Main->body(), Stmt::Kind::If));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);

  unsigned Cond = blockOfExpr(G, If->cond());
  unsigned Then = blockOfExpr(G, firstBodyExpr(If->thenStmt()));
  unsigned Else = blockOfExpr(G, firstBodyExpr(If->elseStmt()));
  unsigned Join = blockOfExpr(G, Ret->value());

  EXPECT_NE(Then, Else);
  EXPECT_TRUE(hasEdge(G, Cond, Then));
  EXPECT_TRUE(hasEdge(G, Cond, Else));
  EXPECT_TRUE(hasEdge(G, Then, Join));
  EXPECT_TRUE(hasEdge(G, Else, Join));
  EXPECT_FALSE(hasEdge(G, Cond, Join)) << "else branch must not be skipped";
  EXPECT_EQ(G.block(Cond).Succs.size(), 2u);
}

TEST(CFGStructureTest, IfWithoutElseShortcutsToJoin) {
  Fixture F = analyze("int main(void) {\n"
                      "  int c = 1;\n"
                      "  if (c > 0) {\n"
                      "    c = 2;\n"
                      "  }\n"
                      "  return c;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *If = cast<IfStmt>(findStmt(Main->body(), Stmt::Kind::If));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);

  unsigned Cond = blockOfExpr(G, If->cond());
  unsigned Join = blockOfExpr(G, Ret->value());
  EXPECT_TRUE(hasEdge(G, Cond, Join));
  EXPECT_EQ(G.block(Cond).Succs.size(), 2u);
}

TEST(CFGStructureTest, WhileLoopHasBackEdgeAndExitEdge) {
  Fixture F = analyze("int main(void) {\n"
                      "  int n = 3;\n"
                      "  while (n > 0) {\n"
                      "    n = n - 1;\n"
                      "  }\n"
                      "  return n;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *W = cast<WhileStmt>(findStmt(Main->body(), Stmt::Kind::While));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);

  unsigned Header = blockOfExpr(G, W->cond());
  unsigned Body = blockOfExpr(G, firstBodyExpr(W->body()));
  unsigned After = blockOfExpr(G, Ret->value());

  EXPECT_TRUE(hasEdge(G, Header, Body));
  EXPECT_TRUE(hasEdge(G, Header, After));
  EXPECT_TRUE(hasEdge(G, Body, Header)) << "back edge missing";
  EXPECT_FALSE(hasEdge(G, Body, After)) << "body must re-test the condition";
}

TEST(CFGStructureTest, DoLoopBodyPrecedesCondition) {
  Fixture F = analyze("int main(void) {\n"
                      "  int n = 3;\n"
                      "  do {\n"
                      "    n = n - 1;\n"
                      "  } while (n > 0);\n"
                      "  return n;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *D = cast<DoStmt>(findStmt(Main->body(), Stmt::Kind::Do));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);

  unsigned Pre = blockOfDecl(G, "n");
  unsigned Body = blockOfExpr(G, firstBodyExpr(D->body()));
  unsigned Latch = blockOfExpr(G, D->cond());
  unsigned After = blockOfExpr(G, Ret->value());

  // The entry falls into the body, not the condition: a do-loop runs its
  // body once before the first test.
  EXPECT_TRUE(hasEdge(G, Pre, Body));
  EXPECT_FALSE(hasEdge(G, Pre, Latch));
  EXPECT_TRUE(hasEdge(G, Body, Latch));
  EXPECT_TRUE(hasEdge(G, Latch, Body)) << "back edge missing";
  EXPECT_TRUE(hasEdge(G, Latch, After));
  // And the body is therefore on every terminating path.
  std::vector<uint8_t> MustExec = mustExecuteBlocks(G);
  EXPECT_TRUE(MustExec[Body]);
  EXPECT_TRUE(MustExec[Latch]);
}

TEST(CFGStructureTest, ForLoopInitHeaderBodyLatch) {
  Fixture F = analyze("int main(void) {\n"
                      "  int acc = 0;\n"
                      "  for (int i = 0; i < 4; i = i + 1) {\n"
                      "    acc = acc + i;\n"
                      "  }\n"
                      "  return acc;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *For = cast<ForStmt>(findStmt(Main->body(), Stmt::Kind::For));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);

  // The init runs once, in the block preceding the header.
  unsigned Init = blockOfDecl(G, "i");
  EXPECT_EQ(Init, blockOfDecl(G, "acc"));
  unsigned Header = blockOfExpr(G, For->cond());
  unsigned Body = blockOfExpr(G, firstBodyExpr(For->body()));
  unsigned Latch = blockOfExpr(G, For->step());
  unsigned After = blockOfExpr(G, Ret->value());

  EXPECT_TRUE(hasEdge(G, Init, Header));
  EXPECT_TRUE(hasEdge(G, Header, Body));
  EXPECT_TRUE(hasEdge(G, Header, After));
  EXPECT_TRUE(hasEdge(G, Body, Latch));
  EXPECT_TRUE(hasEdge(G, Latch, Header)) << "back edge missing";
  EXPECT_FALSE(hasEdge(G, Body, Header))
      << "the step must run between body and re-test";
}

TEST(CFGStructureTest, NestedLoopInsideIfKeepsBothLevels) {
  Fixture F = analyze("int main(void) {\n"
                      "  int c = 1;\n"
                      "  int n = 2;\n"
                      "  if (c > 0) {\n"
                      "    while (n > 0) {\n"
                      "      n = n - 1;\n"
                      "    }\n"
                      "  }\n"
                      "  return n;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *If = cast<IfStmt>(findStmt(Main->body(), Stmt::Kind::If));
  const auto *W = cast<WhileStmt>(findStmt(Main->body(), Stmt::Kind::While));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);

  unsigned Cond = blockOfExpr(G, If->cond());
  unsigned Header = blockOfExpr(G, W->cond());
  unsigned After = blockOfExpr(G, Ret->value());

  // The inner loop header sits behind the then-edge; the else-path goes
  // straight to the join.
  EXPECT_TRUE(hasEdge(G, Cond, After));
  EXPECT_FALSE(hasEdge(G, Cond, Header));
  std::vector<uint8_t> MustExec = mustExecuteBlocks(G);
  EXPECT_FALSE(MustExec[Header]) << "a branch-guarded loop is not must-exec";
  EXPECT_TRUE(MustExec[Cond]);
  EXPECT_TRUE(MustExec[After]);
}

TEST(CFGStructureTest, BackwardGotoFormsLoop) {
  Fixture F = analyze("int main(void) {\n"
                      "  int d = 0;\n"
                      "  int r = 1;\n"
                      "top:\n"
                      "  if (d > 0) {\n"
                      "    return r;\n"
                      "  }\n"
                      "  d = 1;\n"
                      "  goto top;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *If = cast<IfStmt>(findStmt(Main->body(), Stmt::Kind::If));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);

  unsigned Label = blockOfExpr(G, If->cond());
  unsigned RetBlock = blockOfExpr(G, Ret->value());
  EXPECT_NE(Label, blockOfDecl(G, "d")) << "the label starts a new block";

  // The label block has two reachable predecessors: the fall-in from the
  // declarations and the backward goto.
  std::vector<uint8_t> Reach = G.reachableFromEntry();
  unsigned ReachablePreds = 0;
  for (unsigned P : G.block(Label).Preds)
    if (Reach[P])
      ++ReachablePreds;
  EXPECT_EQ(ReachablePreds, 2u);
  EXPECT_TRUE(hasEdge(G, Label, RetBlock));

  // The exit is reached only through the return: the label and return
  // blocks are on every terminating path.
  std::vector<uint8_t> MustExec = mustExecuteBlocks(G);
  EXPECT_TRUE(Reach[CFG::ExitBlock]);
  EXPECT_TRUE(MustExec[Label]);
  EXPECT_TRUE(MustExec[RetBlock]);
}

//===----------------------------------------------------------------------===//
// Unreachable code
//===----------------------------------------------------------------------===//

TEST(CFGStructureTest, CodeAfterReturnIsUnreachable) {
  Fixture F = analyze("int main(void) {\n"
                      "  int x = 1;\n"
                      "  return x;\n"
                      "  x = 2;\n"
                      "  return x;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  CFG G = CFG::build(*Main);
  std::vector<uint8_t> Reach = G.reachableFromEntry();

  // The dead tail (`x = 2; return x;`) parses and gets blocks, but no edge
  // from the reachable region leads into them.
  const auto *Dead = cast<CompoundStmt>(Main->body())->body()[2];
  unsigned DeadBlock = blockOfExpr(G, cast<ExprStmt>(Dead)->expr());
  EXPECT_FALSE(Reach[DeadBlock]);
  EXPECT_TRUE(Reach[CFG::ExitBlock]);

  // Reverse post-order enumerates only the reachable region, entry first.
  std::vector<unsigned> RPO = G.reversePostOrder();
  EXPECT_EQ(std::count(RPO.begin(), RPO.end(), DeadBlock), 0);
  for (unsigned B : RPO)
    EXPECT_TRUE(Reach[B]);
  ASSERT_FALSE(RPO.empty());
  EXPECT_EQ(RPO.front(), CFG::EntryBlock);
}

TEST(CFGStructureTest, ForeverLoopLeavesExitUnreachable) {
  Fixture F = analyze("int main(void) {\n"
                      "  int x = 0;\n"
                      "  for (;;) {\n"
                      "    x = x + 1;\n"
                      "  }\n"
                      "  return x;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  CFG G = CFG::build(*Main);
  std::vector<uint8_t> Reach = G.reachableFromEntry();
  EXPECT_FALSE(Reach[CFG::ExitBlock])
      << "for(;;) without break cannot reach the exit";
  // Must-execute is vacuously all-ones: no execution terminates, so
  // layer-2 facts drawn here can never reject an accepted variant.
  std::vector<uint8_t> MustExec = mustExecuteBlocks(G);
  EXPECT_TRUE(std::all_of(MustExec.begin(), MustExec.end(),
                          [](uint8_t B) { return B == 1; }));
}

TEST(CFGStructureTest, BreakRestoresExitReachability) {
  Fixture F = analyze("int main(void) {\n"
                      "  int x = 0;\n"
                      "  for (;;) {\n"
                      "    x = x + 1;\n"
                      "    if (x > 3) {\n"
                      "      break;\n"
                      "    }\n"
                      "  }\n"
                      "  return x;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  CFG G = CFG::build(*Main);
  std::vector<uint8_t> Reach = G.reachableFromEntry();
  EXPECT_TRUE(Reach[CFG::ExitBlock]);
  // The post-loop block is reachable only through the break, and it is on
  // every terminating path.
  unsigned After = blockOfExpr(G, Ret->value());
  EXPECT_TRUE(Reach[After]);
  EXPECT_TRUE(mustExecuteBlocks(G)[After]);
}

//===----------------------------------------------------------------------===//
// Dataflow fixpoint convergence
//===----------------------------------------------------------------------===//

/// The traversed-blocks client (same lattice mustExecuteBlocks uses),
/// instantiated directly so the engine's transfer count is observable.
struct TraceClient {
  const CFG &G;
  using State = std::vector<uint8_t>;
  State boundary() const {
    State S(G.size(), 0);
    S[CFG::EntryBlock] = 1;
    return S;
  }
  State top() const { return State(G.size(), 1); }
  void meet(State &Into, const State &From) const {
    for (size_t I = 0; I < Into.size(); ++I)
      Into[I] = Into[I] && From[I];
  }
  void transfer(unsigned Block, State &S) const { S[Block] = 1; }
};

TEST(DataflowTest, FixpointConvergesOnBackEdgeLoop) {
  Fixture F = analyze("int main(void) {\n"
                      "  int n = 5;\n"
                      "  int acc = 0;\n"
                      "  while (n > 0) {\n"
                      "    acc = acc + n;\n"
                      "    n = n - 1;\n"
                      "  }\n"
                      "  return acc;\n"
                      "}\n");
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  CFG G = CFG::build(*Main);
  TraceClient C{G};
  DataflowResult<std::vector<uint8_t>> R = runForwardDataflow(G, C);

  // The fixpoint must actually be a fixpoint: re-running transfer over any
  // block's In reproduces its Out.
  for (unsigned B : G.reversePostOrder()) {
    std::vector<uint8_t> S = R.In[B];
    C.transfer(B, S);
    EXPECT_EQ(S, R.Out[B]) << "block " << B << " not at fixpoint";
  }

  // Convergence bound: with RPO seeding, the single back edge costs at
  // most one extra sweep, so the transfer count stays under three passes
  // over the reachable region even though the graph is cyclic.
  unsigned Reachable = 0;
  for (uint8_t X : G.reachableFromEntry())
    Reachable += X;
  EXPECT_LE(R.TransfersRun, 3 * Reachable);
  EXPECT_GE(R.TransfersRun, Reachable) << "every reachable block transfers";

  // And the solution is the expected one: header and after-loop are on
  // every entry-to-exit path, the loop body is not.
  const auto *W = cast<WhileStmt>(findStmt(Main->body(), Stmt::Kind::While));
  const auto *Ret =
      cast<ReturnStmt>(findStmt(Main->body(), Stmt::Kind::Return));
  const std::vector<uint8_t> &MustExec = R.In[CFG::ExitBlock];
  EXPECT_TRUE(MustExec[blockOfExpr(G, W->cond())]);
  EXPECT_TRUE(MustExec[blockOfExpr(G, Ret->value())]);
  EXPECT_FALSE(MustExec[blockOfExpr(G, firstBodyExpr(W->body()))]);
}

//===----------------------------------------------------------------------===//
// Call summaries
//===----------------------------------------------------------------------===//

TEST(CallSummaryTest, MustCalledSeesUnconditionalNotBranchGuardedCalls) {
  Fixture F = analyze("int f(int a) { return a + 1; }\n"
                      "int g(int a) { return a + 2; }\n"
                      "int main(void) {\n"
                      "  int x = 1;\n"
                      "  x = f(x);\n"
                      "  if (x > 5) {\n"
                      "    x = g(x);\n"
                      "  }\n"
                      "  return x;\n"
                      "}\n");
  auto CFGs = buildAllFunctionCFGs(*F.Ctx);
  std::set<const FunctionDecl *> MustCalled =
      mustCalledFunctions(*F.Ctx, CFGs);
  EXPECT_EQ(MustCalled.count(F.Ctx->findFunction("main")), 1u);
  EXPECT_EQ(MustCalled.count(F.Ctx->findFunction("f")), 1u);
  EXPECT_EQ(MustCalled.count(F.Ctx->findFunction("g")), 0u)
      << "a branch-guarded call is not guaranteed to run";
}

TEST(CallSummaryTest, MustCalledIsTransitive) {
  Fixture F = analyze("int leaf(int a) { return a * 2; }\n"
                      "int mid(int a) { return leaf(a) + 1; }\n"
                      "int main(void) {\n"
                      "  int x = 3;\n"
                      "  x = mid(x);\n"
                      "  return x;\n"
                      "}\n");
  auto CFGs = buildAllFunctionCFGs(*F.Ctx);
  std::set<const FunctionDecl *> MustCalled =
      mustCalledFunctions(*F.Ctx, CFGs);
  EXPECT_EQ(MustCalled.count(F.Ctx->findFunction("leaf")), 1u)
      << "must-calledness composes through must-called callers";
}

TEST(CallSummaryTest, ShortCircuitCallIsNotDefinite) {
  Fixture F = analyze("int f(int a) { return a + 1; }\n"
                      "int main(void) {\n"
                      "  int x = 0;\n"
                      "  x = x > 3 && f(x) > 0;\n"
                      "  return x;\n"
                      "}\n");
  auto CFGs = buildAllFunctionCFGs(*F.Ctx);
  std::set<const FunctionDecl *> MustCalled =
      mustCalledFunctions(*F.Ctx, CFGs);
  EXPECT_EQ(MustCalled.count(F.Ctx->findFunction("f")), 0u)
      << "a call on a short-circuit RHS may never run";
}

//===----------------------------------------------------------------------===//
// Def-before-use facts over loops and helpers
//===----------------------------------------------------------------------===//

/// Runs extraction + validity analysis and \returns (Units, Constraints).
std::pair<std::vector<SkeletonUnit>, std::vector<ValidityConstraints>>
extractAndAnalyze(const Fixture &F) {
  SkeletonExtractor Extractor(*F.Ctx, *F.Analysis);
  std::vector<SkeletonUnit> Units = Extractor.extract();
  std::vector<ValidityConstraints> Cons =
      analyzeValidity(*F.Ctx, *F.Analysis, Units);
  return {std::move(Units), std::move(Cons)};
}

/// \returns the (unit, constraints) pair covering function \p Fn.
std::pair<const SkeletonUnit *, const ValidityConstraints *>
unitFor(const std::vector<SkeletonUnit> &Units,
        const std::vector<ValidityConstraints> &Cons,
        const FunctionDecl *Fn) {
  for (size_t I = 0; I < Units.size(); ++I)
    if (Units[I].Fn == Fn)
      return {&Units[I], &Cons[I]};
  ADD_FAILURE() << "no unit covers the requested function";
  return {nullptr, nullptr};
}

/// \returns the hole index of \p Site in \p Unit.
unsigned holeOf(const SkeletonUnit &Unit, const DeclRefExpr *Site) {
  for (unsigned H = 0; H < Unit.HoleSites.size(); ++H)
    if (Unit.HoleSites[H] == Site)
      return H;
  ADD_FAILURE() << "site is not a hole of the unit";
  return ~0u;
}

/// \returns the skeleton VarId of the variable named \p Name in \p Unit.
VarId varOf(const SkeletonUnit &Unit, const std::string &Name) {
  for (VarId V = 0; V < Unit.AstVars.size(); ++V)
    if (Unit.AstVars[V]->name() == Name)
      return V;
  ADD_FAILURE() << "no skeleton variable named " << Name;
  return ~0u;
}

TEST(ValidityDataflowTest, DoBodyReadForbidsUninitializedLocal) {
  // The do-body executes on every terminating run -- a fact the old
  // straight-line-prefix walker could not use (it stopped at the first
  // control-flow statement). The loop is counted through an array element,
  // so no hole before or inside the loop can possibly store to the scalar
  // z: retargeting the body's read of `a` onto z reads an indeterminate
  // value on the very first iteration, and (hole, z) must be forbidden.
  Fixture F = analyze("int main(void) {\n"
                      "  int z;\n"
                      "  int arr[2] = {2, 0};\n"
                      "  int a = 0;\n"
                      "  do {\n"
                      "    a;\n"
                      "    arr[0] = arr[0] - 1;\n"
                      "  } while (arr[0] > 0);\n"
                      "  return a;\n"
                      "}\n");
  auto [Units, Cons] = extractAndAnalyze(F);
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  auto [Unit, C] = unitFor(Units, Cons, Main);
  ASSERT_NE(Unit, nullptr);

  const auto *Do = cast<DoStmt>(findStmt(Main->body(), Stmt::Kind::Do));
  const auto *Read = cast<DeclRefExpr>(firstBodyExpr(Do->body()));
  unsigned H = holeOf(*Unit, Read);
  EXPECT_TRUE(C->forbids(H, varOf(*Unit, "z")));
}

TEST(ValidityDataflowTest, PostLoopReadForbidsUntouchedLocal) {
  // A definite read after a loop whose holes are all array-typed: no path
  // -- zero iterations or many -- can have stored to the scalar z, so the
  // post-loop read must not be z. The old walker gave up at the while.
  Fixture F = analyze("int main(void) {\n"
                      "  int z;\n"
                      "  int arr[2] = {2, 0};\n"
                      "  int a = 1;\n"
                      "  while (arr[0] > 0) {\n"
                      "    arr[0] = arr[0] - 1;\n"
                      "  }\n"
                      "  a = a + 2;\n"
                      "  return a;\n"
                      "}\n");
  auto [Units, Cons] = extractAndAnalyze(F);
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  auto [Unit, C] = unitFor(Units, Cons, Main);
  ASSERT_NE(Unit, nullptr);

  // `a = a + 2;` is the statement after the while.
  const auto *Body = cast<CompoundStmt>(Main->body());
  const auto *Asg = cast<BinaryExpr>(
      cast<ExprStmt>(Body->body()[Body->body().size() - 2])->expr());
  const auto *Read = cast<DeclRefExpr>(cast<BinaryExpr>(Asg->rhs())->lhs());
  unsigned H = holeOf(*Unit, Read);
  EXPECT_TRUE(C->forbids(H, varOf(*Unit, "z")));
}

TEST(ValidityDataflowTest, LoopBodyStoreBlocksPostLoopForbid) {
  // Same shape with a scalar loop counter: the counter update `n = n - 1`
  // is a write hole whose candidates include z, so some variant stores z
  // inside the loop and reads it legally afterwards. The back edge folds
  // that possible store into the header and the post-loop read must NOT
  // forbid z.
  Fixture F = analyze("int main(void) {\n"
                      "  int z;\n"
                      "  int a = 1;\n"
                      "  int n = 2;\n"
                      "  while (n > 0) {\n"
                      "    n = n - 1;\n"
                      "  }\n"
                      "  a = a + 2;\n"
                      "  return a;\n"
                      "}\n");
  auto [Units, Cons] = extractAndAnalyze(F);
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  auto [Unit, C] = unitFor(Units, Cons, Main);
  ASSERT_NE(Unit, nullptr);

  const auto *Body = cast<CompoundStmt>(Main->body());
  const auto *Asg = cast<BinaryExpr>(
      cast<ExprStmt>(Body->body()[Body->body().size() - 2])->expr());
  const auto *Read = cast<DeclRefExpr>(cast<BinaryExpr>(Asg->rhs())->lhs());
  unsigned H = holeOf(*Unit, Read);
  EXPECT_FALSE(C->forbids(H, varOf(*Unit, "z")))
      << "a possible store inside the loop must clear the fact";
}

TEST(ValidityDataflowTest, MustCalledHelperUnitIsPruned) {
  // The helper is called unconditionally from main, so its unit's definite
  // reads are guaranteed to execute program-wide and may forbid the
  // helper's own uninitialized local.
  Fixture F = analyze("int helper(int q) {\n"
                      "  int z;\n"
                      "  int h = 1;\n"
                      "  h = h + q;\n"
                      "  return h;\n"
                      "}\n"
                      "int main(void) {\n"
                      "  int x = 2;\n"
                      "  x = helper(x);\n"
                      "  return x;\n"
                      "}\n");
  auto [Units, Cons] = extractAndAnalyze(F);
  const FunctionDecl *Helper = F.Ctx->findFunction("helper");
  auto [Unit, C] = unitFor(Units, Cons, Helper);
  ASSERT_NE(Unit, nullptr);

  const auto *Body = cast<CompoundStmt>(Helper->body());
  const auto *Asg = cast<BinaryExpr>(cast<ExprStmt>(Body->body()[2])->expr());
  const auto *Read = cast<DeclRefExpr>(cast<BinaryExpr>(Asg->rhs())->lhs());
  unsigned H = holeOf(*Unit, Read);
  EXPECT_TRUE(C->forbids(H, varOf(*Unit, "z")));
}

TEST(ValidityDataflowTest, BranchGuardedHelperIsNotPruned) {
  // The same helper called only under a branch: some variants never run
  // it, so no layer-2 fact about its body may be used.
  Fixture F = analyze("int helper(int q) {\n"
                      "  int z;\n"
                      "  int h = 1;\n"
                      "  h = h + q;\n"
                      "  return h;\n"
                      "}\n"
                      "int main(void) {\n"
                      "  int x = 2;\n"
                      "  if (x > 9) {\n"
                      "    x = helper(x);\n"
                      "  }\n"
                      "  return x;\n"
                      "}\n");
  auto [Units, Cons] = extractAndAnalyze(F);
  const FunctionDecl *Helper = F.Ctx->findFunction("helper");
  auto [Unit, C] = unitFor(Units, Cons, Helper);
  ASSERT_NE(Unit, nullptr);

  const auto *Body = cast<CompoundStmt>(Helper->body());
  const auto *Asg = cast<BinaryExpr>(cast<ExprStmt>(Body->body()[2])->expr());
  const auto *Read = cast<DeclRefExpr>(cast<BinaryExpr>(Asg->rhs())->lhs());
  unsigned H = holeOf(*Unit, Read);
  EXPECT_FALSE(C->forbids(H, varOf(*Unit, "z")))
      << "an only-conditionally-called helper may never execute";
}

TEST(ValidityDataflowTest, AddressTakenStaysPossiblyStored) {
  // The existing escape over-approximation must survive the rewrite: the
  // hole inside `&a` can name z, so from that event on every later read
  // may legally see z initialized through the pointer.
  Fixture F = analyze("int main(void) {\n"
                      "  int z;\n"
                      "  int a = 1;\n"
                      "  int *p = &a;\n"
                      "  *p = 5;\n"
                      "  a = a + 1;\n"
                      "  return a;\n"
                      "}\n");
  auto [Units, Cons] = extractAndAnalyze(F);
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  auto [Unit, C] = unitFor(Units, Cons, Main);
  ASSERT_NE(Unit, nullptr);

  const auto *Body = cast<CompoundStmt>(Main->body());
  const auto *Asg = cast<BinaryExpr>(
      cast<ExprStmt>(Body->body()[Body->body().size() - 2])->expr());
  const auto *Read = cast<DeclRefExpr>(cast<BinaryExpr>(Asg->rhs())->lhs());
  unsigned H = holeOf(*Unit, Read);
  EXPECT_FALSE(C->forbids(H, varOf(*Unit, "z")))
      << "address-taking must keep z possibly-stored forever after";
}

TEST(ValidityDataflowTest, ReadBeyondIfJoinIsPruned) {
  // Facts survive an if-join when neither branch can store: the old
  // analysis stopped at the `if`, the CFG layer meets the two branch
  // states and keeps pruning at the join.
  Fixture F = analyze("int main(void) {\n"
                      "  int z;\n"
                      "  int a = 1;\n"
                      "  if (a > 2) {\n"
                      "    a;\n"
                      "  }\n"
                      "  a = a + 2;\n"
                      "  return a;\n"
                      "}\n");
  auto [Units, Cons] = extractAndAnalyze(F);
  const FunctionDecl *Main = F.Ctx->findFunction("main");
  auto [Unit, C] = unitFor(Units, Cons, Main);
  ASSERT_NE(Unit, nullptr);

  const auto *Body = cast<CompoundStmt>(Main->body());
  const auto *Asg = cast<BinaryExpr>(
      cast<ExprStmt>(Body->body()[Body->body().size() - 2])->expr());
  const auto *Read = cast<DeclRefExpr>(cast<BinaryExpr>(Asg->rhs())->lhs());
  unsigned H = holeOf(*Unit, Read);
  EXPECT_TRUE(C->forbids(H, varOf(*Unit, "z")));

  // But a read inside the branch itself is not on every path and must not
  // forbid anything -- only must-execute blocks report.
  const auto *If = cast<IfStmt>(findStmt(Main->body(), Stmt::Kind::If));
  const auto *BranchRead = cast<DeclRefExpr>(firstBodyExpr(If->thenStmt()));
  EXPECT_FALSE(C->forbids(holeOf(*Unit, BranchRead), varOf(*Unit, "z")));
}

//===----------------------------------------------------------------------===//
// Loop-corpus generation sanity (the unit-level counterpart of the
// must-not-degenerate property ValidityPropertyTest pins on the campaign's
// loop corpus)
//===----------------------------------------------------------------------===//

TEST(LoopCorpusTest, KnobsProduceLoopsAndParseCleanly) {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  Opts.BoundedLoopProb = 0.8;
  Opts.RichHelperProb = 0.8;
  std::vector<std::string> Programs = generateCorpus(9100, 30, Opts);

  unsigned WithLoop = 0, WithDo = 0, WithHelper = 0;
  for (const std::string &P : Programs) {
    Fixture F = analyze(P); // Every seed must parse and pass Sema.
    if (P.find("while (") != std::string::npos)
      ++WithLoop;
    if (P.find("do {") != std::string::npos)
      ++WithDo;
    if (P.find("helper") != std::string::npos)
      ++WithHelper;
  }
  // The loop knob at 0.8 must not degenerate to loop-free programs.
  EXPECT_GE(WithLoop, 15u);
  EXPECT_GE(WithDo, 3u) << "the bounded-loop knob is the only do-loop source";
  EXPECT_GE(WithHelper, 8u);
}

TEST(LoopCorpusTest, GeneratorIsDeterministic) {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  Opts.BoundedLoopProb = 0.8;
  Opts.RichHelperProb = 0.8;
  for (uint64_t Seed = 9100; Seed < 9110; ++Seed)
    EXPECT_EQ(generateCorpusProgram(Seed, Opts),
              generateCorpusProgram(Seed, Opts));
}

} // namespace
