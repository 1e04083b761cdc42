//===- reduce/SkeletonReducer.cpp - structural witness reduction ---------===//

#include "reduce/SkeletonReducer.h"

#include "lang/AstPrinter.h"
#include "lang/Lexer.h"
#include "lang/Parser.h"
#include "reduce/DeltaDebug.h"
#include "sema/Sema.h"

#include <memory>
#include <set>

using namespace spe;

uint64_t spe::tokenCount(const std::string &Source) {
  DiagnosticEngine Diags;
  Lexer L(Source, Diags);
  std::vector<Token> Tokens = L.lexAll();
  return Tokens.empty() ? 0 : Tokens.size() - 1; // Drop the EOF sentinel.
}

namespace {

/// Fixpoint bound on rounds of the three passes (each round only repeats
/// while the previous one shrank something, so this rarely binds).
constexpr unsigned MaxPasses = 4;

/// One parsed + analyzed program held across a reduction pass.
struct Analyzed {
  std::unique_ptr<ASTContext> Ctx;
  std::unique_ptr<Sema> Analysis;
};

bool analyze(const std::string &Source, Analyzed &Out) {
  Out.Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, *Out.Ctx, Diags))
    return false;
  Out.Analysis = std::make_unique<Sema>(*Out.Ctx, Diags);
  return Out.Analysis->run();
}

/// Collects the ddmin chunk domain: the Sema ids of every statement nested
/// inside \p S (pre-order). The for-init clause is excluded -- it renders
/// inline inside `for (...)`, where the deleted-statement mechanism cannot
/// reach it -- and so is the root body compound the caller starts from.
/// Statements in positions that syntactically require one (non-compound
/// branches, loop bodies, label substatements) are candidates too: deleting
/// them prints `;` there.
void collectStmtIds(const Stmt *S, std::vector<int> &Out) {
  if (!S)
    return;
  // A non-compound child in a statement-requiring position is itself a
  // deletion candidate (compound children contribute their elements
  // instead, which elide entirely).
  auto Required = [&Out](const Stmt *Child) {
    if (!Child)
      return;
    if (!isa<CompoundStmt>(Child) && Child->stmtId() >= 0)
      Out.push_back(Child->stmtId());
    collectStmtIds(Child, Out);
  };
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body()) {
      if (Child->stmtId() >= 0)
        Out.push_back(Child->stmtId());
      collectStmtIds(Child, Out);
    }
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Required(I->thenStmt());
    Required(I->elseStmt());
    return;
  }
  case Stmt::Kind::While:
    Required(cast<WhileStmt>(S)->body());
    return;
  case Stmt::Kind::Do:
    Required(cast<DoStmt>(S)->body());
    return;
  case Stmt::Kind::For:
    Required(cast<ForStmt>(S)->body());
    return;
  case Stmt::Kind::Label:
    Required(cast<LabelStmt>(S)->sub());
    return;
  default:
    return;
  }
}

//===----------------------------------------------------------------------===//
// Static bounded-loop guard (ReducerOptions::BoundedLoopGuard)
//===----------------------------------------------------------------------===//

/// Root variable name of a store target: peels array subscripts and dot
/// member accesses (a store to `a[i].f` touches only object `a`). Null for
/// dereferences and arrow accesses, whose target object is unknown.
const std::string *storeRootName(const Expr *E) {
  while (E) {
    switch (E->kind()) {
    case Expr::Kind::DeclRef:
      return &cast<DeclRefExpr>(E)->name();
    case Expr::Kind::Index:
      E = cast<IndexExpr>(E)->base();
      continue;
    case Expr::Kind::Member: {
      const auto *M = cast<MemberExpr>(E);
      if (M->isArrow())
        return nullptr;
      E = M->base();
      continue;
    }
    default:
      return nullptr;
    }
  }
  return nullptr;
}

/// Collects every variable name a loop condition reads. \returns false when
/// the condition is unanalyzable (a dereference, arrow access, or call --
/// its value can then change without any direct store), which disables the
/// guard for that loop.
bool collectCondVars(const Expr *E, std::set<std::string> &Names) {
  if (!E)
    return true;
  switch (E->kind()) {
  case Expr::Kind::IntegerLiteral:
  case Expr::Kind::StringLiteral:
  case Expr::Kind::SizeOf:
    return true;
  case Expr::Kind::DeclRef:
    Names.insert(cast<DeclRefExpr>(E)->name());
    return true;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() == UnaryOp::Deref || U->op() == UnaryOp::AddrOf)
      return false;
    // Inc/dec conditions store too; simpler to call the loop unanalyzable
    // than to model a condition with side effects.
    if (U->op() != UnaryOp::Plus && U->op() != UnaryOp::Neg &&
        U->op() != UnaryOp::LogicalNot && U->op() != UnaryOp::BitNot)
      return false;
    return collectCondVars(U->sub(), Names);
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    if (isAssignmentOp(B->op()))
      return false; // Side-effecting condition: unanalyzable.
    return collectCondVars(B->lhs(), Names) &&
           collectCondVars(B->rhs(), Names);
  }
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    return collectCondVars(C->cond(), Names) &&
           collectCondVars(C->trueExpr(), Names) &&
           collectCondVars(C->falseExpr(), Names);
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    return collectCondVars(Ix->base(), Names) &&
           collectCondVars(Ix->index(), Names);
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    return !M->isArrow() && collectCondVars(M->base(), Names);
  }
  case Expr::Kind::Cast:
    return collectCondVars(cast<CastExpr>(E)->sub(), Names);
  default:
    return false; // Calls and anything else: unanalyzable.
  }
}

/// What one loop body (or for-step) can do that might end the loop.
struct BodyEffects {
  bool Escapes = false;      ///< break / return / goto inside the body.
  bool Unanalyzable = false; ///< Call, pointer store, unknown-target store.
  std::set<std::string> StoredNames;
};

void scanExprEffects(const Expr *E, BodyEffects &B) {
  if (!E || B.Unanalyzable)
    return;
  switch (E->kind()) {
  case Expr::Kind::Call:
    // A call can store to globals or through escaped pointers.
    B.Unanalyzable = true;
    return;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->op()) {
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      const std::string *Root = storeRootName(U->sub());
      if (!Root)
        B.Unanalyzable = true;
      else
        B.StoredNames.insert(*Root);
      break;
    }
    default:
      break;
    }
    scanExprEffects(U->sub(), B);
    return;
  }
  case Expr::Kind::Binary: {
    const auto *Bin = cast<BinaryExpr>(E);
    if (isAssignmentOp(Bin->op())) {
      const std::string *Root = storeRootName(Bin->lhs());
      if (!Root) {
        B.Unanalyzable = true; // `*p = ...` or another opaque target.
        return;
      }
      B.StoredNames.insert(*Root);
    }
    scanExprEffects(Bin->lhs(), B);
    scanExprEffects(Bin->rhs(), B);
    return;
  }
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    scanExprEffects(C->cond(), B);
    scanExprEffects(C->trueExpr(), B);
    scanExprEffects(C->falseExpr(), B);
    return;
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    scanExprEffects(Ix->base(), B);
    scanExprEffects(Ix->index(), B);
    return;
  }
  case Expr::Kind::Member:
    scanExprEffects(cast<MemberExpr>(E)->base(), B);
    return;
  case Expr::Kind::Cast:
    scanExprEffects(cast<CastExpr>(E)->sub(), B);
    return;
  case Expr::Kind::InitList:
    for (const Expr *Elem : cast<InitListExpr>(E)->elements())
      scanExprEffects(Elem, B);
    return;
  default:
    return; // Literals, refs, sizeof: no effects.
  }
}

void scanStmtEffects(const Stmt *S, BodyEffects &B) {
  if (!S || B.Unanalyzable)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Break:
  case Stmt::Kind::Return:
  case Stmt::Kind::Goto:
    B.Escapes = true;
    return;
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      scanStmtEffects(Child, B);
    return;
  case Stmt::Kind::Decl:
    // A redeclaration shadows a condition variable; counting the name as
    // stored is conservative in the guard's safe direction (keeps the
    // probe alive for the oracle).
    for (const VarDecl *V : cast<DeclStmt>(S)->decls()) {
      B.StoredNames.insert(V->name());
      scanExprEffects(V->init(), B);
    }
    return;
  case Stmt::Kind::Expr:
    scanExprEffects(cast<ExprStmt>(S)->expr(), B);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    scanExprEffects(I->cond(), B);
    scanStmtEffects(I->thenStmt(), B);
    scanStmtEffects(I->elseStmt(), B);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    scanExprEffects(W->cond(), B);
    scanStmtEffects(W->body(), B);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    scanStmtEffects(D->body(), B);
    scanExprEffects(D->cond(), B);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    scanStmtEffects(F->init(), B);
    scanExprEffects(F->cond(), B);
    scanExprEffects(F->step(), B);
    scanStmtEffects(F->body(), B);
    return;
  }
  case Stmt::Kind::Label:
    scanStmtEffects(cast<LabelStmt>(S)->sub(), B);
    return;
  default:
    return; // Continue / null statements: no escape, no store.
  }
}

/// \returns true when this loop, once entered, provably never exits: its
/// body (plus for-step) has no escape statement, no call, no opaque store,
/// and no store to any variable the condition reads. A literal-zero
/// condition is always bounded (never entered, or one do-while trip); a
/// condition the scan cannot analyze disables the guard for this loop.
bool loopIsUnbounded(const Expr *Cond, const Stmt *Body, const Expr *Step) {
  std::set<std::string> CondVars;
  if (Cond) {
    if (const auto *Lit = dyn_cast<IntegerLiteral>(Cond)) {
      if (Lit->value() == 0)
        return false;
      // Nonzero literal: no store can falsify it; CondVars stays empty.
    } else if (!collectCondVars(Cond, CondVars)) {
      return false;
    }
  }
  // No condition (`for (;;)`) falls through with an empty CondVars set.
  BodyEffects B;
  scanStmtEffects(Body, B);
  scanExprEffects(Step, B);
  if (B.Escapes || B.Unanalyzable)
    return false;
  for (const std::string &Name : B.StoredNames)
    if (CondVars.count(Name))
      return false;
  return true;
}

/// Recursively checks every loop under \p S.
bool stmtHasUnboundedLoop(const Stmt *S) {
  if (!S)
    return false;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      if (stmtHasUnboundedLoop(Child))
        return true;
    return false;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    return stmtHasUnboundedLoop(I->thenStmt()) ||
           stmtHasUnboundedLoop(I->elseStmt());
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    return loopIsUnbounded(W->cond(), W->body(), nullptr) ||
           stmtHasUnboundedLoop(W->body());
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    return loopIsUnbounded(D->cond(), D->body(), nullptr) ||
           stmtHasUnboundedLoop(D->body());
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    return loopIsUnbounded(F->cond(), F->body(), F->step()) ||
           stmtHasUnboundedLoop(F->body());
  }
  case Stmt::Kind::Label:
    return stmtHasUnboundedLoop(cast<LabelStmt>(S)->sub());
  default:
    return false;
  }
}

/// Parses \p Source and reports whether any function contains a statically
/// unbounded loop. Unparseable candidates report false -- the oracle's own
/// frontend check rejects them for the price of a parse anyway.
bool hasStaticallyUnboundedLoop(const std::string &Source) {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, Ctx, Diags))
    return false;
  for (const Decl *D : Ctx.TopLevel)
    if (const auto *F = dyn_cast<FunctionDecl>(D))
      if (F->isDefinition() && stmtHasUnboundedLoop(F->body()))
        return true;
  return false;
}

/// The probe predicate every pass runs candidates through: the static
/// bounded-loop guard first (when enabled), then the signature oracle.
struct Prober {
  ReproOracle &Oracle;
  bool Guard;
  uint64_t Rejected = 0;

  bool operator()(const std::string &Text) {
    if (Guard && hasStaticallyUnboundedLoop(Text)) {
      ++Rejected;
      return false;
    }
    return Oracle.reproduces(Text);
  }
};

/// One expression-simplification proposal: print \p E as one of Repls
/// instead of its subtree.
struct ExprCandidate {
  const Expr *E = nullptr;
  std::vector<std::string> Repls;
};

/// Collects simplification candidates in deterministic pre-order.
class CandidateCollector {
public:
  std::vector<ExprCandidate> run(const ASTContext &Ctx) {
    for (const Decl *D : Ctx.TopLevel) {
      if (const auto *V = dyn_cast<VarDecl>(D))
        expr(V->init());
      else if (const auto *F = dyn_cast<FunctionDecl>(D))
        if (F->isDefinition())
          stmt(F->body());
    }
    return std::move(Out);
  }

private:
  void propose(const Expr *E, std::vector<std::string> Repls) {
    Out.push_back({E, std::move(Repls)});
  }

  /// A loop/branch condition: propose the constant that minimizes the trip
  /// count or linearizes the branch.
  void cond(const Expr *E, bool IsLoop) {
    if (!E)
      return;
    if (IsLoop)
      propose(E, {"0"});
    else
      propose(E, {"0", "1"});
    expr(E);
  }

  void stmt(const Stmt *S) {
    if (!S)
      return;
    switch (S->kind()) {
    case Stmt::Kind::Compound:
      for (const Stmt *Child : cast<CompoundStmt>(S)->body())
        stmt(Child);
      return;
    case Stmt::Kind::Decl:
      for (const VarDecl *V : cast<DeclStmt>(S)->decls())
        expr(V->init());
      return;
    case Stmt::Kind::Expr:
      expr(cast<ExprStmt>(S)->expr());
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      cond(I->cond(), /*IsLoop=*/false);
      stmt(I->thenStmt());
      stmt(I->elseStmt());
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      cond(W->cond(), /*IsLoop=*/true);
      stmt(W->body());
      return;
    }
    case Stmt::Kind::Do: {
      const auto *D = cast<DoStmt>(S);
      stmt(D->body());
      cond(D->cond(), /*IsLoop=*/true);
      return;
    }
    case Stmt::Kind::For: {
      const auto *F = cast<ForStmt>(S);
      stmt(F->init());
      cond(F->cond(), /*IsLoop=*/true);
      expr(F->step());
      stmt(F->body());
      return;
    }
    case Stmt::Kind::Return:
      expr(cast<ReturnStmt>(S)->value());
      return;
    case Stmt::Kind::Label:
      stmt(cast<LabelStmt>(S)->sub());
      return;
    default:
      return;
    }
  }

  void expr(const Expr *E) {
    if (!E)
      return;
    switch (E->kind()) {
    case Expr::Kind::Binary: {
      const auto *B = cast<BinaryExpr>(E);
      if (!isAssignmentOp(B->op()) && B->op() != BinaryOp::Comma)
        propose(E, {Plain.printExpr(B->lhs()), Plain.printExpr(B->rhs()),
                    "0", "1"});
      expr(B->lhs());
      expr(B->rhs());
      return;
    }
    case Expr::Kind::Conditional: {
      const auto *C = cast<ConditionalExpr>(E);
      propose(E, {Plain.printExpr(C->trueExpr()),
                  Plain.printExpr(C->falseExpr())});
      expr(C->cond());
      expr(C->trueExpr());
      expr(C->falseExpr());
      return;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<UnaryExpr>(E);
      switch (U->op()) {
      case UnaryOp::Plus:
      case UnaryOp::Neg:
      case UnaryOp::LogicalNot:
      case UnaryOp::BitNot:
        propose(E, {Plain.printExpr(U->sub()), "0"});
        break;
      default:
        // Address-of / dereference / inc-dec: operand substitution changes
        // the type or requires an lvalue; skip the near-certain rejects.
        break;
      }
      expr(U->sub());
      return;
    }
    case Expr::Kind::Call: {
      const auto *C = cast<CallExpr>(E);
      propose(E, {"0"});
      for (const Expr *Arg : C->args())
        expr(Arg);
      return;
    }
    case Expr::Kind::Index: {
      const auto *Ix = cast<IndexExpr>(E);
      expr(Ix->base());
      expr(Ix->index());
      return;
    }
    case Expr::Kind::Member:
      expr(cast<MemberExpr>(E)->base());
      return;
    case Expr::Kind::Cast:
      expr(cast<CastExpr>(E)->sub());
      return;
    case Expr::Kind::SizeOf:
      expr(cast<SizeOfExpr>(E)->exprOperand());
      return;
    case Expr::Kind::InitList:
      for (const Expr *Elem : cast<InitListExpr>(E)->elements())
        expr(Elem);
      return;
    default:
      return;
    }
  }

  AstPrinter Plain;
  std::vector<ExprCandidate> Out;
};

/// Pass 1: ddmin over statement ids.
bool deleteStatements(std::string &Best, Prober &Probe,
                      ReductionOutcome &Out) {
  Analyzed A;
  if (!analyze(Best, A))
    return false;
  std::vector<int> Cands;
  for (const FunctionDecl *F : A.Ctx->functions())
    collectStmtIds(F->body(), Cands);
  if (Cands.empty())
    return false;

  auto Render = [&](const std::vector<size_t> &Keep) {
    std::set<int> Deleted(Cands.begin(), Cands.end());
    for (size_t K : Keep)
      Deleted.erase(Cands[K]);
    AstPrinter P;
    P.setDeletedStmts(std::move(Deleted));
    P.setElideDeletedStmts(true);
    return P.print(*A.Ctx);
  };

  std::vector<size_t> Keep = ddmin(
      Cands.size(),
      [&](const std::vector<size_t> &K) { return Probe(Render(K)); });
  if (Keep.size() == Cands.size())
    return false;
  Best = Render(Keep);
  Out.StatementsDeleted += Cands.size() - Keep.size();
  return true;
}

/// Pass 2: greedy top-level declaration dropping.
bool dropDecls(std::string &Best, Prober &Probe,
               ReductionOutcome &Out) {
  Analyzed A;
  if (!analyze(Best, A))
    return false;

  std::set<const Decl *> Dropped;
  auto Render = [&] {
    AstPrinter P;
    P.setDeletedDecls(Dropped);
    return P.print(*A.Ctx);
  };
  for (const Decl *D : A.Ctx->TopLevel) {
    if (const auto *F = dyn_cast<FunctionDecl>(D))
      if (F->name() == "main")
        continue;
    Dropped.insert(D);
    if (!Probe(Render()))
      Dropped.erase(D);
  }
  if (Dropped.empty())
    return false;
  Best = Render();
  Out.DeclsDropped += Dropped.size();
  return true;
}

/// Pass 3: greedy expression simplification / loop shrinking. Accepted
/// replacements must strictly shrink the token count, which both guarantees
/// termination and filters no-op probes (e.g. proposals under an already
/// replaced ancestor render identically).
bool simplifyExprs(std::string &Best, Prober &Probe, ReductionOutcome &Out) {
  Analyzed A;
  if (!analyze(Best, A))
    return false;
  std::vector<ExprCandidate> Cands = CandidateCollector().run(*A.Ctx);
  if (Cands.empty())
    return false;

  AstPrinter::ExprReplacement Accepted;
  uint64_t BestTokens = tokenCount(Best);
  bool Changed = false;
  for (const ExprCandidate &C : Cands) {
    for (const std::string &Repl : C.Repls) {
      AstPrinter::ExprReplacement Trial = Accepted;
      Trial[C.E] = Repl;
      AstPrinter P;
      P.setReplacedExprs(std::move(Trial));
      std::string Text = P.print(*A.Ctx);
      uint64_t Tokens = tokenCount(Text);
      if (Tokens >= BestTokens || !Probe(Text))
        continue;
      Accepted[C.E] = Repl;
      BestTokens = Tokens;
      Best = std::move(Text);
      ++Out.ExprsSimplified;
      Changed = true;
      break;
    }
  }
  return Changed;
}

} // namespace

ReductionOutcome SkeletonReducer::reduce(const std::string &Witness,
                                         const ReproSpec &Spec) const {
  ReductionOutcome Out;
  Out.Reduced = Witness;
  Out.TokensBefore = Out.TokensAfter = tokenCount(Witness);

  // The witness itself bypasses the static guard: it already reproduced in
  // the campaign, so it terminates no matter what the guard would guess.
  ReproOracle Oracle(Spec, Cache, Backend);
  if (!Oracle.reproduces(Witness)) {
    Out.Oracle = Oracle.stats();
    return Out;
  }

  Prober Probe{Oracle, Opts.BoundedLoopGuard};
  std::string Best = Witness;
  for (unsigned Pass = 0; Pass < MaxPasses; ++Pass) {
    bool Changed = deleteStatements(Best, Probe, Out);
    Changed |= dropDecls(Best, Probe, Out);
    Changed |= simplifyExprs(Best, Probe, Out);
    if (!Changed)
      break;
  }

  Out.Reduced = std::move(Best);
  Out.TokensAfter = tokenCount(Out.Reduced);
  Out.UnboundedLoopProbesRejected = Probe.Rejected;
  Out.Oracle = Oracle.stats();
  return Out;
}
