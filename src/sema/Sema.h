//===- sema/Sema.h - Mini-C semantic analysis ----------------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for the mini-C dialect: scope construction, name
/// resolution, and type checking with integer promotions / usual arithmetic
/// conversions. The resulting scope tree, per-use scope ids, and per-use
/// sequence numbers are exactly the inputs the skeleton extractor needs to
/// build the AbstractSkeleton of Section 3 of the paper.
///
/// Name resolution has one rule, the innermost visible declaration
/// declared before the use (lookupVar). Analysis applies it to each use as
/// it is reached; resolveAt applies it after the fact to a recorded use
/// site under another name, which is how skeleton/VariantBinder.h decides
/// which variants it may bind without re-parsing them.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SEMA_SEMA_H
#define SPE_SEMA_SEMA_H

#include "lang/AST.h"

#include <map>
#include <vector>

namespace spe {

/// One lexical scope discovered during analysis. Scope 0 is the file scope.
struct ScopeInfo {
  int Parent = -1;
  /// The function whose body contains this scope (null for file scope).
  FunctionDecl *EnclosingFn = nullptr;
  /// Variables declared directly in this scope, declaration order.
  std::vector<VarDecl *> Vars;
  /// Sequence number at which the scope was opened; orders this scope
  /// relative to sibling declarations (used by the decl-region scope model).
  unsigned AnchorSeq = 0;
};

/// Runs semantic analysis over a parsed translation unit.
class Sema {
public:
  Sema(ASTContext &Ctx, DiagnosticEngine &Diags);

  /// Resolves names, builds scopes, types every expression. \returns true
  /// when no errors were reported.
  bool run();

  const std::vector<ScopeInfo> &scopes() const { return Scopes; }

  /// Scope in effect at a variable use site; -1 if unresolved.
  int useScopeOf(const DeclRefExpr *Ref) const;

  /// Monotone source-order sequence numbers: every declaration and every
  /// use gets one; a use may only legally reference declarations with a
  /// smaller sequence number (C's declare-before-use rule).
  unsigned declSeqOf(const VarDecl *V) const;
  unsigned useSeqOf(const DeclRefExpr *Ref) const;

  /// All resolved variable uses (the future holes) in traversal order.
  const std::vector<DeclRefExpr *> &variableUses() const { return Uses; }

  /// The variable \p Name would resolve to if it were spelled at the
  /// resolved use \p Site instead of Site's own name: analysis's lookup
  /// from Site's use scope, limited to declarations sequenced before it.
  /// Null when nothing visible there has that name, or \p Site is not a
  /// resolved use. resolveAt(Site, Site->name()) == Site->decl() for every
  /// use analysis resolved.
  VarDecl *resolveAt(const DeclRefExpr *Site, const std::string &Name) const;

  /// Scope id of a function's parameter scope.
  int paramScopeOf(const FunctionDecl *F) const;

  /// Total number of statements (ids are [0, numStmts())).
  int numStmts() const { return NextStmtId; }

private:
  int pushScope(FunctionDecl *Fn);
  void popScope() { CurrentScope = Scopes[CurrentScope].Parent; }
  /// The one resolution rule: walking out from sema scope \p Scope, the
  /// first declaration named \p Name whose sequence number is below
  /// \p Limit (declared before the use).
  VarDecl *lookupVar(int Scope, unsigned Limit, const std::string &Name) const;
  void declareVar(VarDecl *V);

  void analyzeFunction(FunctionDecl *F);
  void analyzeStmt(Stmt *S);
  const Type *analyzeExpr(Expr *E);
  const Type *checkBinary(BinaryExpr *B, const Type *Lhs, const Type *Rhs);
  bool isLValue(const Expr *E) const;
  const Type *decay(const Type *T);
  void checkInitializer(VarDecl *V);

  ASTContext &Ctx;
  DiagnosticEngine &Diags;
  std::vector<ScopeInfo> Scopes;
  int CurrentScope = 0;
  unsigned NextSeq = 0;
  int NextStmtId = 0;
  std::map<const DeclRefExpr *, int> UseScopes;
  std::map<const DeclRefExpr *, unsigned> UseSeqs;
  std::map<const VarDecl *, unsigned> DeclSeqs;
  std::map<const FunctionDecl *, int> ParamScopes;
  std::vector<DeclRefExpr *> Uses;
};

} // namespace spe

#endif // SPE_SEMA_SEMA_H
