//===- testing/Mutation.cpp - Orion-style mutation baseline --------------===//

#include "testing/Mutation.h"

#include "interp/Interpreter.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "support/RandomEngine.h"

#include <set>

using namespace spe;

namespace {

/// Collects the ids of deletable statements (simple statements only; decls
/// and labels stay so the program remains well-formed).
void collectDeletable(const Stmt *S, const std::vector<bool> &Executed,
                      std::vector<int> &Out) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      collectDeletable(Child, Executed, Out);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    collectDeletable(I->thenStmt(), Executed, Out);
    collectDeletable(I->elseStmt(), Executed, Out);
    return;
  }
  case Stmt::Kind::While:
    collectDeletable(cast<WhileStmt>(S)->body(), Executed, Out);
    return;
  case Stmt::Kind::Do:
    collectDeletable(cast<DoStmt>(S)->body(), Executed, Out);
    return;
  case Stmt::Kind::For:
    collectDeletable(cast<ForStmt>(S)->body(), Executed, Out);
    return;
  case Stmt::Kind::Label:
    collectDeletable(cast<LabelStmt>(S)->sub(), Executed, Out);
    return;
  case Stmt::Kind::Expr:
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
    // EMI: only statements the reference run never executed may go.
    if (!Executed[S->stmtId()])
      Out.push_back(S->stmtId());
    return;
  default:
    return;
  }
}

} // namespace

std::vector<std::string> spe::generateEmiMutants(const std::string &Source,
                                                 unsigned MaxDeletions,
                                                 unsigned NumMutants,
                                                 uint64_t Seed) {
  std::vector<std::string> Mutants;
  ASTContext Ctx;
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, Ctx, Diags))
    return Mutants;
  Sema Analysis(Ctx, Diags);
  if (!Analysis.run())
    return Mutants;
  ExecResult Ref = interpret(Ctx);
  if (!Ref.ok())
    return Mutants;

  std::vector<int> Deletable;
  for (const FunctionDecl *F : Ctx.functions())
    collectDeletable(F->body(), Ref.ExecutedStmts, Deletable);
  if (Deletable.empty())
    return Mutants;

  RandomEngine Rng(Seed ^ 0x0410e0410ULL);
  std::set<std::string> Seen;
  for (unsigned M = 0; M < NumMutants; ++M) {
    std::vector<int> Pool = Deletable;
    Rng.shuffle(Pool);
    unsigned Take = static_cast<unsigned>(Rng.uniformInt(
        1, static_cast<int64_t>(
               std::min<size_t>(MaxDeletions, Pool.size()))));
    std::set<int> Deleted(Pool.begin(), Pool.begin() + Take);
    AstPrinter Printer;
    Printer.setDeletedStmts(Deleted);
    std::string Mutant = Printer.print(Ctx);
    if (Seen.insert(Mutant).second)
      Mutants.push_back(std::move(Mutant));
  }
  return Mutants;
}
