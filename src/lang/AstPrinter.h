//===- lang/AstPrinter.h - Mini-C source rendering -----------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders an AST back to compilable mini-C source with precedence-aware
/// parenthesization. The printer can log where each variable use's name
/// lands in its output; that is how enumerated skeleton variants become
/// concrete programs without a re-print (skeleton/VariantRenderer.h).
///
//===----------------------------------------------------------------------===//

#ifndef SPE_LANG_ASTPRINTER_H
#define SPE_LANG_ASTPRINTER_H

#include "lang/AST.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace spe {

/// Pretty-prints ASTs as C source.
class AstPrinter {
public:
  /// Where one variable use's name was printed: Ref->name() occupies
  /// [Offset, Offset + Ref->name().size()) of the output.
  struct NameSite {
    const DeclRefExpr *Ref;
    size_t Offset;
  };

  /// When set, every DeclRefExpr name the printer emits is appended to
  /// \p Log, in output order, with its offset in the output. A name is
  /// appended verbatim, and the printer's one look back at its output (the
  /// space that keeps `- -x` apart) cannot tell one identifier from
  /// another, so splicing another identifier in at these offsets yields
  /// exactly what printing it there would.
  void setNameLog(std::vector<NameSite> *Log) { NameLog = Log; }

  /// Statements whose Sema id is in this set are printed as the empty
  /// statement `;` instead of their body. This is the mechanism behind the
  /// Orion-style dead-statement deletion baseline (paper Section 5.2.3) and
  /// the triage pipeline's ddmin statement reduction.
  void setDeletedStmts(std::set<int> Ids) { Deleted = std::move(Ids); }

  /// When set, deleted statements that sit directly in a compound body are
  /// omitted entirely instead of printing `;` (positions that syntactically
  /// require a statement, e.g. a non-compound if-branch, still print `;`).
  /// The triage reducer enables this so deletions actually shrink the token
  /// count; the Orion baseline keeps the historical `;` form.
  void setElideDeletedStmts(bool Elide) { ElideDeleted = Elide; }

  /// Top-level declarations in this set are skipped entirely. The triage
  /// reducer uses this to drop globals and helper functions a reproducer no
  /// longer needs (validity is re-checked by re-parsing the result).
  void setDeletedDecls(std::set<const Decl *> Decls) {
    DeletedDecls = std::move(Decls);
  }

  /// Expressions in this map are printed as their mapped replacement text (a
  /// parenthesized primary) instead of their subtree -- the mechanism behind
  /// the triage reducer's expression simplification and loop shrinking.
  using ExprReplacement = std::map<const Expr *, std::string>;
  void setReplacedExprs(ExprReplacement Repl) {
    Replaced = std::move(Repl);
  }

  /// Renders the whole translation unit.
  std::string print(const ASTContext &Ctx) const;

  /// Renders the whole translation unit into \p Out, which is cleared first
  /// and keeps its capacity across calls.
  void printTo(const ASTContext &Ctx, std::string &Out) const;

  /// Renders one expression (mostly for tests and diagnostics).
  std::string printExpr(const Expr *E) const;

  /// Renders one statement at the given indent level.
  std::string printStmt(const Stmt *S, unsigned Indent = 0) const;

private:
  void printExpr(const Expr *E, int MinPrec, std::string &Out) const;
  void printVarDecl(const VarDecl *V, std::string &Out) const;
  void printStmt(const Stmt *S, unsigned Indent, std::string &Out) const;
  void printFunction(const FunctionDecl *F, std::string &Out) const;
  static void typePrefix(const Type *Ty, std::string &Out);
  static void declaratorSuffix(const Type *Ty, std::string &Out);

  std::vector<NameSite> *NameLog = nullptr;
  std::set<int> Deleted;
  bool ElideDeleted = false;
  std::set<const Decl *> DeletedDecls;
  ExprReplacement Replaced;
};

} // namespace spe

#endif // SPE_LANG_ASTPRINTER_H
