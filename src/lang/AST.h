//===- lang/AST.h - Mini-C abstract syntax tree --------------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST for the mini-C dialect: expressions, statements and declarations with
/// LLVM-style kind-enum RTTI. Nodes are owned by an ASTContext arena; the
/// rest of the system traffics in raw pointers. Sema annotates expressions
/// with types and resolves DeclRefExprs; the skeleton extractor turns every
/// resolved variable *use* (DeclRefExpr) into a hole.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_LANG_AST_H
#define SPE_LANG_AST_H

#include "lang/Type.h"
#include "support/Casting.h"
#include "support/Diagnostics.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace spe {

class VarDecl;
class FunctionDecl;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

enum class UnaryOp {
  Plus,
  Neg,
  LogicalNot,
  BitNot,
  Deref,
  AddrOf,
  PreInc,
  PreDec,
  PostInc,
  PostDec,
};

enum class BinaryOp {
  Mul,
  Div,
  Rem,
  Add,
  Sub,
  Shl,
  Shr,
  LT,
  GT,
  LE,
  GE,
  EQ,
  NE,
  BitAnd,
  BitXor,
  BitOr,
  LogicalAnd,
  LogicalOr,
  Assign,
  MulAssign,
  DivAssign,
  RemAssign,
  AddAssign,
  SubAssign,
  ShlAssign,
  ShrAssign,
  AndAssign,
  XorAssign,
  OrAssign,
  Comma,
};

/// \returns the C spelling of \p Op ("+", "<<=", ...).
const char *binaryOpSpelling(BinaryOp Op);
/// \returns the C spelling of \p Op ("-", "!", "++", ...).
const char *unaryOpSpelling(UnaryOp Op);
/// \returns true for the assignment family (including compound assignment).
bool isAssignmentOp(BinaryOp Op);
/// \returns the operator compound assignment \p Op applies: Add for +=,
/// BitOr for |=. \p Op must be a compound assignment. Inline because the
/// oracle calls it on every compound assignment it evaluates.
inline BinaryOp compoundBaseOp(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::MulAssign:
    return BinaryOp::Mul;
  case BinaryOp::DivAssign:
    return BinaryOp::Div;
  case BinaryOp::RemAssign:
    return BinaryOp::Rem;
  case BinaryOp::AddAssign:
    return BinaryOp::Add;
  case BinaryOp::SubAssign:
    return BinaryOp::Sub;
  case BinaryOp::ShlAssign:
    return BinaryOp::Shl;
  case BinaryOp::ShrAssign:
    return BinaryOp::Shr;
  case BinaryOp::AndAssign:
    return BinaryOp::BitAnd;
  case BinaryOp::XorAssign:
    return BinaryOp::BitXor;
  default:
    assert(Op == BinaryOp::OrAssign && "not a compound assignment");
    return BinaryOp::BitOr;
  }
}
/// \returns true for <, >, <=, >=, ==, !=.
bool isComparisonOp(BinaryOp Op);

/// Base class of all expressions.
class Expr {
public:
  enum class Kind {
    IntegerLiteral,
    StringLiteral,
    DeclRef,
    Unary,
    Binary,
    Conditional,
    Call,
    Index,
    Member,
    Cast,
    SizeOf,
    InitList,
  };

  Kind kind() const { return TheKind; }
  SourceLocation loc() const { return Loc; }

  /// The semantic type, filled in by Sema (null before analysis).
  const Type *type() const { return Ty; }
  void setType(const Type *T) { Ty = T; }

  virtual ~Expr();

protected:
  Expr(Kind K, SourceLocation Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLocation Loc;
  const Type *Ty = nullptr;
};

/// An integer or character literal.
class IntegerLiteral : public Expr {
public:
  IntegerLiteral(uint64_t Value, SourceLocation Loc)
      : Expr(Kind::IntegerLiteral, Loc), Value(Value) {}
  static bool classof(const Expr *E) {
    return E->kind() == Kind::IntegerLiteral;
  }

  uint64_t value() const { return Value; }

private:
  uint64_t Value;
};

/// A string literal (only valid as a printf format argument).
class StringLiteral : public Expr {
public:
  StringLiteral(std::string Value, SourceLocation Loc)
      : Expr(Kind::StringLiteral, Loc), Value(std::move(Value)) {}
  static bool classof(const Expr *E) {
    return E->kind() == Kind::StringLiteral;
  }

  const std::string &value() const { return Value; }

private:
  std::string Value;
};

/// A use of a named entity. Sema resolves it to a VarDecl (a future skeleton
/// hole) or, in call position, a FunctionDecl.
class DeclRefExpr : public Expr {
public:
  DeclRefExpr(std::string Name, SourceLocation Loc)
      : Expr(Kind::DeclRef, Loc), Name(std::move(Name)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::DeclRef; }

  const std::string &name() const { return Name; }
  VarDecl *decl() const { return Referenced; }
  void setDecl(VarDecl *D) { Referenced = D; }
  /// Points this use at \p D and spells it with D's name, so the AST reads
  /// and prints as if the source had named D here. Types are untouched:
  /// the caller rebinds only to a variable of the use's own type.
  inline void rebind(VarDecl *D);
  FunctionDecl *functionDecl() const { return ReferencedFn; }
  void setFunctionDecl(FunctionDecl *F) { ReferencedFn = F; }

private:
  std::string Name;
  VarDecl *Referenced = nullptr;
  FunctionDecl *ReferencedFn = nullptr;
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(UnaryOp Op, Expr *Sub, SourceLocation Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Sub(Sub) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

  UnaryOp op() const { return Op; }
  Expr *sub() const { return Sub; }

private:
  UnaryOp Op;
  Expr *Sub;
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(BinaryOp Op, Expr *Lhs, Expr *Rhs, SourceLocation Loc)
      : Expr(Kind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

  BinaryOp op() const { return Op; }
  Expr *lhs() const { return Lhs; }
  Expr *rhs() const { return Rhs; }

private:
  BinaryOp Op;
  Expr *Lhs;
  Expr *Rhs;
};

class ConditionalExpr : public Expr {
public:
  ConditionalExpr(Expr *Cond, Expr *TrueExpr, Expr *FalseExpr,
                  SourceLocation Loc)
      : Expr(Kind::Conditional, Loc), Cond(Cond), TrueExpr(TrueExpr),
        FalseExpr(FalseExpr) {}
  static bool classof(const Expr *E) {
    return E->kind() == Kind::Conditional;
  }

  Expr *cond() const { return Cond; }
  Expr *trueExpr() const { return TrueExpr; }
  Expr *falseExpr() const { return FalseExpr; }

private:
  Expr *Cond;
  Expr *TrueExpr;
  Expr *FalseExpr;
};

class CallExpr : public Expr {
public:
  CallExpr(DeclRefExpr *Callee, std::vector<Expr *> Args, SourceLocation Loc)
      : Expr(Kind::Call, Loc), Callee(Callee), Args(std::move(Args)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Call; }

  DeclRefExpr *callee() const { return Callee; }
  const std::vector<Expr *> &args() const { return Args; }

private:
  DeclRefExpr *Callee;
  std::vector<Expr *> Args;
};

class IndexExpr : public Expr {
public:
  IndexExpr(Expr *Base, Expr *Index, SourceLocation Loc)
      : Expr(Kind::Index, Loc), Base(Base), Idx(Index) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Index; }

  Expr *base() const { return Base; }
  Expr *index() const { return Idx; }

private:
  Expr *Base;
  Expr *Idx;
};

class MemberExpr : public Expr {
public:
  MemberExpr(Expr *Base, std::string Field, bool IsArrow, SourceLocation Loc)
      : Expr(Kind::Member, Loc), Base(Base), Field(std::move(Field)),
        IsArrow(IsArrow) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Member; }

  Expr *base() const { return Base; }
  const std::string &fieldName() const { return Field; }
  bool isArrow() const { return IsArrow; }
  /// Field index within the struct, resolved by Sema.
  int fieldIndex() const { return FieldIdx; }
  void setFieldIndex(int I) { FieldIdx = I; }

private:
  Expr *Base;
  std::string Field;
  bool IsArrow;
  int FieldIdx = -1;
};

class CastExpr : public Expr {
public:
  CastExpr(const Type *ToType, Expr *Sub, SourceLocation Loc)
      : Expr(Kind::Cast, Loc), ToType(ToType), Sub(Sub) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::Cast; }

  const Type *toType() const { return ToType; }
  Expr *sub() const { return Sub; }

private:
  const Type *ToType;
  Expr *Sub;
};

class SizeOfExpr : public Expr {
public:
  SizeOfExpr(const Type *Operand, SourceLocation Loc)
      : Expr(Kind::SizeOf, Loc), TypeOperand(Operand) {}
  SizeOfExpr(Expr *Operand, SourceLocation Loc)
      : Expr(Kind::SizeOf, Loc), ExprOperand(Operand) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::SizeOf; }

  const Type *typeOperand() const { return TypeOperand; }
  Expr *exprOperand() const { return ExprOperand; }

private:
  const Type *TypeOperand = nullptr;
  Expr *ExprOperand = nullptr;
};

/// A braced initializer list, e.g. `{0, 1, 2}`.
class InitListExpr : public Expr {
public:
  InitListExpr(std::vector<Expr *> Elems, SourceLocation Loc)
      : Expr(Kind::InitList, Loc), Elems(std::move(Elems)) {}
  static bool classof(const Expr *E) { return E->kind() == Kind::InitList; }

  const std::vector<Expr *> &elements() const { return Elems; }

private:
  std::vector<Expr *> Elems;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class Kind {
    Compound,
    Decl,
    Expr,
    If,
    While,
    Do,
    For,
    Return,
    Break,
    Continue,
    Goto,
    Label,
  };

  Kind kind() const { return TheKind; }
  SourceLocation loc() const { return Loc; }

  /// Stable statement id assigned by Sema, used by the interpreter's
  /// executed-statement trace and the Orion-style mutation baseline.
  int stmtId() const { return Id; }
  void setStmtId(int NewId) { Id = NewId; }

  virtual ~Stmt();

protected:
  Stmt(Kind K, SourceLocation Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLocation Loc;
  int Id = -1;
};

class CompoundStmt : public Stmt {
public:
  CompoundStmt(std::vector<Stmt *> Body, SourceLocation Loc)
      : Stmt(Kind::Compound, Loc), Body(std::move(Body)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Compound; }

  const std::vector<Stmt *> &body() const { return Body; }
  std::vector<Stmt *> &body() { return Body; }

private:
  std::vector<Stmt *> Body;
};

class DeclStmt : public Stmt {
public:
  DeclStmt(std::vector<VarDecl *> Decls, SourceLocation Loc)
      : Stmt(Kind::Decl, Loc), Decls(std::move(Decls)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Decl; }

  const std::vector<VarDecl *> &decls() const { return Decls; }

private:
  std::vector<VarDecl *> Decls;
};

/// An expression statement; a null expression is the empty statement `;`.
class ExprStmt : public Stmt {
public:
  ExprStmt(Expr *E, SourceLocation Loc) : Stmt(Kind::Expr, Loc), TheExpr(E) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Expr; }

  Expr *expr() const { return TheExpr; }

private:
  Expr *TheExpr;
};

class IfStmt : public Stmt {
public:
  IfStmt(Expr *Cond, Stmt *Then, Stmt *Else, SourceLocation Loc)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

  Expr *cond() const { return Cond; }
  Stmt *thenStmt() const { return Then; }
  Stmt *elseStmt() const { return Else; }

private:
  Expr *Cond;
  Stmt *Then;
  Stmt *Else;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(Expr *Cond, Stmt *Body, SourceLocation Loc)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }

  Expr *cond() const { return Cond; }
  Stmt *body() const { return Body; }

private:
  Expr *Cond;
  Stmt *Body;
};

class DoStmt : public Stmt {
public:
  DoStmt(Stmt *Body, Expr *Cond, SourceLocation Loc)
      : Stmt(Kind::Do, Loc), Body(Body), Cond(Cond) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Do; }

  Stmt *body() const { return Body; }
  Expr *cond() const { return Cond; }

private:
  Stmt *Body;
  Expr *Cond;
};

class ForStmt : public Stmt {
public:
  ForStmt(Stmt *Init, Expr *Cond, Expr *Step, Stmt *Body, SourceLocation Loc)
      : Stmt(Kind::For, Loc), Init(Init), Cond(Cond), Step(Step), Body(Body) {
  }
  static bool classof(const Stmt *S) { return S->kind() == Kind::For; }

  /// Null, a DeclStmt, or an ExprStmt.
  Stmt *init() const { return Init; }
  Expr *cond() const { return Cond; }
  Expr *step() const { return Step; }
  Stmt *body() const { return Body; }

private:
  Stmt *Init;
  Expr *Cond;
  Expr *Step;
  Stmt *Body;
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(Expr *Value, SourceLocation Loc)
      : Stmt(Kind::Return, Loc), Value(Value) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Return; }

  Expr *value() const { return Value; }

private:
  Expr *Value;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLocation Loc) : Stmt(Kind::Break, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLocation Loc) : Stmt(Kind::Continue, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Continue; }
};

class GotoStmt : public Stmt {
public:
  GotoStmt(std::string Label, SourceLocation Loc)
      : Stmt(Kind::Goto, Loc), Label(std::move(Label)) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Goto; }

  const std::string &label() const { return Label; }

private:
  std::string Label;
};

class LabelStmt : public Stmt {
public:
  LabelStmt(std::string Name, Stmt *Sub, SourceLocation Loc)
      : Stmt(Kind::Label, Loc), Name(std::move(Name)), Sub(Sub) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Label; }

  const std::string &name() const { return Name; }
  Stmt *sub() const { return Sub; }

private:
  std::string Name;
  Stmt *Sub;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

class Decl {
public:
  enum class Kind { Var, Function, Record };

  Kind kind() const { return TheKind; }
  SourceLocation loc() const { return Loc; }
  virtual ~Decl();

protected:
  Decl(Kind K, SourceLocation Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLocation Loc;
};

/// A variable (global, local, or parameter).
class VarDecl : public Decl {
public:
  enum class Storage { Global, Local, Param };

  VarDecl(std::string Name, const Type *Ty, Storage S, SourceLocation Loc)
      : Decl(Kind::Var, Loc), Name(std::move(Name)), Ty(Ty), TheStorage(S) {}
  static bool classof(const Decl *D) { return D->kind() == Kind::Var; }

  const std::string &name() const { return Name; }
  const Type *type() const { return Ty; }
  Storage storage() const { return TheStorage; }
  bool isGlobal() const { return TheStorage == Storage::Global; }

  Expr *init() const { return Init; }
  void setInit(Expr *E) { Init = E; }

  /// Sema-assigned scope identity within the enclosing unit.
  int scopeId() const { return ScopeIdx; }
  void setScopeId(int Id) { ScopeIdx = Id; }

private:
  std::string Name;
  const Type *Ty;
  Storage TheStorage;
  Expr *Init = nullptr;
  int ScopeIdx = -1;
};

class FunctionDecl : public Decl {
public:
  FunctionDecl(std::string Name, const Type *FnTy,
               std::vector<VarDecl *> Params, SourceLocation Loc)
      : Decl(Kind::Function, Loc), Name(std::move(Name)), FnTy(FnTy),
        Params(std::move(Params)) {}
  static bool classof(const Decl *D) { return D->kind() == Kind::Function; }

  const std::string &name() const { return Name; }
  const Type *functionType() const { return FnTy; }
  const Type *returnType() const { return FnTy->returnType(); }
  const std::vector<VarDecl *> &params() const { return Params; }

  CompoundStmt *body() const { return Body; }
  void setBody(CompoundStmt *B) { Body = B; }
  bool isDefinition() const { return Body != nullptr; }

private:
  std::string Name;
  const Type *FnTy;
  std::vector<VarDecl *> Params;
  CompoundStmt *Body = nullptr;
};

/// A struct definition.
class RecordDecl : public Decl {
public:
  RecordDecl(std::string Name, Type *Ty, SourceLocation Loc)
      : Decl(Kind::Record, Loc), Name(std::move(Name)), Ty(Ty) {}
  static bool classof(const Decl *D) { return D->kind() == Kind::Record; }

  const std::string &name() const { return Name; }
  Type *type() const { return Ty; }

private:
  std::string Name;
  Type *Ty;
};

void DeclRefExpr::rebind(VarDecl *D) {
  Referenced = D;
  Name = D->name();
}

//===----------------------------------------------------------------------===//
// Translation unit and arena
//===----------------------------------------------------------------------===//

/// Owns all AST nodes and types of one parsed program.
class ASTContext {
public:
  TypeContext &types() { return Types; }
  const TypeContext &types() const { return Types; }

  template <typename T, typename... Args> T *createExpr(Args &&...As) {
    ExprNodes.push_back(std::make_unique<T>(std::forward<Args>(As)...));
    return static_cast<T *>(ExprNodes.back().get());
  }
  template <typename T, typename... Args> T *createStmt(Args &&...As) {
    StmtNodes.push_back(std::make_unique<T>(std::forward<Args>(As)...));
    return static_cast<T *>(StmtNodes.back().get());
  }
  template <typename T, typename... Args> T *createDecl(Args &&...As) {
    DeclNodes.push_back(std::make_unique<T>(std::forward<Args>(As)...));
    return static_cast<T *>(DeclNodes.back().get());
  }

  /// Top-level declarations in source order.
  std::vector<Decl *> TopLevel;

  /// \returns the function definitions in source order.
  std::vector<FunctionDecl *> functions() const;
  /// \returns the function named \p Name, or null.
  FunctionDecl *findFunction(const std::string &Name) const;
  /// \returns the global variables in source order.
  std::vector<VarDecl *> globals() const;

private:
  TypeContext Types;
  std::vector<std::unique_ptr<Expr>> ExprNodes;
  std::vector<std::unique_ptr<Stmt>> StmtNodes;
  std::vector<std::unique_ptr<Decl>> DeclNodes;
};

} // namespace spe

#endif // SPE_LANG_AST_H
