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
bool deleteStatements(std::string &Best, ReproOracle &Oracle,
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

  std::vector<size_t> Keep =
      ddmin(Cands.size(), [&](const std::vector<size_t> &K) {
        return Oracle.reproduces(Render(K));
      });
  if (Keep.size() == Cands.size())
    return false;
  Best = Render(Keep);
  Out.StatementsDeleted += Cands.size() - Keep.size();
  return true;
}

/// Pass 2: greedy top-level declaration dropping.
bool dropDecls(std::string &Best, ReproOracle &Oracle,
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
    if (!Oracle.reproduces(Render()))
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
bool simplifyExprs(std::string &Best, ReproOracle &Oracle,
                   ReductionOutcome &Out) {
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
      if (Tokens >= BestTokens || !Oracle.reproduces(Text))
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

  ReproOracle Oracle(Spec, Cache, Backend);
  if (!Oracle.reproduces(Witness)) {
    Out.Oracle = Oracle.stats();
    return Out;
  }

  std::string Best = Witness;
  for (unsigned Pass = 0; Pass < MaxPasses; ++Pass) {
    bool Changed = deleteStatements(Best, Oracle, Out);
    Changed |= dropDecls(Best, Oracle, Out);
    Changed |= simplifyExprs(Best, Oracle, Out);
    if (!Changed)
      break;
  }

  Out.Reduced = std::move(Best);
  Out.TokensAfter = tokenCount(Out.Reduced);
  Out.Oracle = Oracle.stats();
  return Out;
}
