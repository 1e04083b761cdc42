//===- sema/Sema.cpp - Mini-C semantic analysis --------------------------===//

#include "sema/Sema.h"

#include <cassert>
#include <set>

using namespace spe;

/// Collects label definitions and goto targets in a statement tree.
static void collectLabelsAndGotos(const Stmt *S,
                                  std::vector<const LabelStmt *> &Labels,
                                  std::vector<const GotoStmt *> &Gotos) {
  if (!S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      collectLabelsAndGotos(Child, Labels, Gotos);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    collectLabelsAndGotos(I->thenStmt(), Labels, Gotos);
    collectLabelsAndGotos(I->elseStmt(), Labels, Gotos);
    return;
  }
  case Stmt::Kind::While:
    collectLabelsAndGotos(cast<WhileStmt>(S)->body(), Labels, Gotos);
    return;
  case Stmt::Kind::Do:
    collectLabelsAndGotos(cast<DoStmt>(S)->body(), Labels, Gotos);
    return;
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    collectLabelsAndGotos(F->init(), Labels, Gotos);
    collectLabelsAndGotos(F->body(), Labels, Gotos);
    return;
  }
  case Stmt::Kind::Label: {
    const auto *L = cast<LabelStmt>(S);
    Labels.push_back(L);
    collectLabelsAndGotos(L->sub(), Labels, Gotos);
    return;
  }
  case Stmt::Kind::Goto:
    Gotos.push_back(cast<GotoStmt>(S));
    return;
  default:
    return;
  }
}

Sema::Sema(ASTContext &Ctx, DiagnosticEngine &Diags)
    : Ctx(Ctx), Diags(Diags) {
  Scopes.push_back(ScopeInfo{}); // File scope.
}

int Sema::pushScope(FunctionDecl *Fn) {
  ScopeInfo Info;
  Info.Parent = CurrentScope;
  Info.EnclosingFn = Fn ? Fn : Scopes[CurrentScope].EnclosingFn;
  Info.AnchorSeq = NextSeq++;
  Scopes.push_back(Info);
  CurrentScope = static_cast<int>(Scopes.size()) - 1;
  return CurrentScope;
}

VarDecl *Sema::lookupVar(int Scope, unsigned Limit,
                         const std::string &Name) const {
  for (int S = Scope; S != -1; S = Scopes[S].Parent) {
    const ScopeInfo &Info = Scopes[S];
    // Search in reverse so shadowing within a scope resolves to the most
    // recent declaration.
    for (size_t I = Info.Vars.size(); I-- > 0;)
      if (Info.Vars[I]->name() == Name && declSeqOf(Info.Vars[I]) < Limit)
        return Info.Vars[I];
  }
  return nullptr;
}

VarDecl *Sema::resolveAt(const DeclRefExpr *Site,
                         const std::string &Name) const {
  auto Scope = UseScopes.find(Site);
  if (Scope == UseScopes.end())
    return nullptr;
  return lookupVar(Scope->second, useSeqOf(Site), Name);
}

void Sema::declareVar(VarDecl *V) {
  for (const VarDecl *Existing : Scopes[CurrentScope].Vars) {
    if (Existing->name() == V->name()) {
      Diags.error(V->loc(), "redeclaration of '" + V->name() + "'");
      break;
    }
  }
  Scopes[CurrentScope].Vars.push_back(V);
  V->setScopeId(CurrentScope);
  V->setVarId(NextVarId++);
  DeclSeqs[V] = NextSeq++;
}

bool Sema::run() {
  // Declare all globals and analyze initializers in order; then functions.
  for (Decl *D : Ctx.TopLevel) {
    if (auto *V = dyn_cast<VarDecl>(D)) {
      declareVar(V);
      checkInitializer(V);
    }
  }
  for (Decl *D : Ctx.TopLevel)
    if (auto *F = dyn_cast<FunctionDecl>(D))
      if (F->isDefinition())
        analyzeFunction(F);
  Ctx.setNumbering(NextStmtId, NextVarId);
  return !Diags.hasErrors();
}

int Sema::useScopeOf(const DeclRefExpr *Ref) const {
  auto It = UseScopes.find(Ref);
  return It == UseScopes.end() ? -1 : It->second;
}

unsigned Sema::declSeqOf(const VarDecl *V) const {
  auto It = DeclSeqs.find(V);
  return It == DeclSeqs.end() ? 0 : It->second;
}

unsigned Sema::useSeqOf(const DeclRefExpr *Ref) const {
  auto It = UseSeqs.find(Ref);
  return It == UseSeqs.end() ? 0 : It->second;
}

int Sema::paramScopeOf(const FunctionDecl *F) const {
  auto It = ParamScopes.find(F);
  return It == ParamScopes.end() ? -1 : It->second;
}

void Sema::analyzeFunction(FunctionDecl *F) {
  assert(CurrentScope == 0 && "function analysis must start at file scope");
  int ParamScope = pushScope(F);
  ParamScopes[F] = ParamScope;
  for (VarDecl *P : F->params())
    declareVar(P);
  // The body compound introduces its own scope below the parameters.
  analyzeStmt(F->body());
  popScope();

  // goto/label sanity: every goto must target a unique label.
  std::vector<const LabelStmt *> Labels;
  std::vector<const GotoStmt *> Gotos;
  collectLabelsAndGotos(F->body(), Labels, Gotos);
  std::set<std::string> LabelNames;
  for (const LabelStmt *L : Labels)
    if (!LabelNames.insert(L->name()).second)
      Diags.error(L->loc(), "duplicate label '" + L->name() + "'");
  for (const GotoStmt *G : Gotos)
    if (!LabelNames.count(G->label()))
      Diags.error(G->loc(), "goto to undefined label '" + G->label() + "'");
}

void Sema::checkInitializer(VarDecl *V) {
  Expr *Init = V->init();
  if (!Init)
    return;
  if (auto *List = dyn_cast<InitListExpr>(Init)) {
    List->setType(V->type());
    if (V->type()->isArray()) {
      if (List->elements().size() > V->type()->arraySize())
        Diags.error(List->loc(), "too many array initializers");
      for (Expr *E : List->elements())
        analyzeExpr(E);
      return;
    }
    if (V->type()->isStruct()) {
      if (List->elements().size() > V->type()->fields().size())
        Diags.error(List->loc(), "too many struct initializers");
      for (Expr *E : List->elements())
        analyzeExpr(E);
      return;
    }
    // Scalar braced initializer `int x = {0};`.
    if (List->elements().size() != 1)
      Diags.error(List->loc(), "bad scalar initializer list");
    for (Expr *E : List->elements())
      analyzeExpr(E);
    return;
  }
  analyzeExpr(Init);
}

void Sema::analyzeStmt(Stmt *S) {
  if (!S)
    return;
  S->setStmtId(NextStmtId++);
  switch (S->kind()) {
  case Stmt::Kind::Compound: {
    pushScope(nullptr);
    for (Stmt *Child : cast<CompoundStmt>(S)->body())
      analyzeStmt(Child);
    popScope();
    return;
  }
  case Stmt::Kind::Decl: {
    for (VarDecl *V : cast<DeclStmt>(S)->decls()) {
      declareVar(V);
      checkInitializer(V);
    }
    return;
  }
  case Stmt::Kind::Expr: {
    if (Expr *E = cast<ExprStmt>(S)->expr())
      analyzeExpr(E);
    return;
  }
  case Stmt::Kind::If: {
    auto *I = cast<IfStmt>(S);
    analyzeExpr(I->cond());
    analyzeStmt(I->thenStmt());
    analyzeStmt(I->elseStmt());
    return;
  }
  case Stmt::Kind::While: {
    auto *W = cast<WhileStmt>(S);
    analyzeExpr(W->cond());
    analyzeStmt(W->body());
    return;
  }
  case Stmt::Kind::Do: {
    auto *D = cast<DoStmt>(S);
    analyzeStmt(D->body());
    analyzeExpr(D->cond());
    return;
  }
  case Stmt::Kind::For: {
    auto *F = cast<ForStmt>(S);
    // A for-init declaration lives in its own scope enclosing the body.
    pushScope(nullptr);
    analyzeStmt(F->init());
    if (F->cond())
      analyzeExpr(F->cond());
    if (F->step())
      analyzeExpr(F->step());
    analyzeStmt(F->body());
    popScope();
    return;
  }
  case Stmt::Kind::Return: {
    auto *R = cast<ReturnStmt>(S);
    if (R->value())
      analyzeExpr(R->value());
    return;
  }
  case Stmt::Kind::Break:
  case Stmt::Kind::Continue:
  case Stmt::Kind::Goto:
    return;
  case Stmt::Kind::Label:
    analyzeStmt(cast<LabelStmt>(S)->sub());
    return;
  }
}

bool Sema::isLValue(const Expr *E) const {
  switch (E->kind()) {
  case Expr::Kind::DeclRef:
    return cast<DeclRefExpr>(E)->decl() != nullptr;
  case Expr::Kind::Index:
    return true;
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    return M->isArrow() || isLValue(M->base());
  }
  case Expr::Kind::Unary:
    return cast<UnaryExpr>(E)->op() == UnaryOp::Deref;
  default:
    return false;
  }
}

const Type *Sema::decay(const Type *T) {
  if (T->isArray())
    return Ctx.types().pointerTo(T->elementType());
  return T;
}

const Type *Sema::checkBinary(BinaryExpr *B, const Type *Lhs,
                              const Type *Rhs) {
  BinaryOp Op = B->op();
  const Type *L = decay(Lhs);
  const Type *R = decay(Rhs);
  if (isAssignmentOp(Op)) {
    if (!isLValue(B->lhs()))
      Diags.error(B->loc(), "assignment target is not an lvalue");
    if (Op == BinaryOp::Assign) {
      if (Lhs->isStruct() && Lhs != Rhs)
        Diags.error(B->loc(), "incompatible struct assignment");
      return Lhs;
    }
    // Compound assignment requires scalar operands; += / -= accept
    // pointer LHS with integer RHS.
    if ((Op == BinaryOp::AddAssign || Op == BinaryOp::SubAssign) &&
        L->isPointer()) {
      if (!R->isInteger())
        Diags.error(B->loc(), "pointer compound assignment needs integer");
      return Lhs;
    }
    if (!L->isInteger() || !R->isInteger())
      Diags.error(B->loc(), "compound assignment needs integer operands");
    return Lhs;
  }
  switch (Op) {
  case BinaryOp::Add:
    if (L->isPointer() && R->isInteger())
      return L;
    if (L->isInteger() && R->isPointer())
      return R;
    if (L->isInteger() && R->isInteger())
      return Ctx.types().usualArithmeticConversions(L, R);
    Diags.error(B->loc(), "invalid operands to '+'");
    return Ctx.types().int32Type();
  case BinaryOp::Sub:
    if (L->isPointer() && R->isPointer())
      return Ctx.types().longType();
    if (L->isPointer() && R->isInteger())
      return L;
    if (L->isInteger() && R->isInteger())
      return Ctx.types().usualArithmeticConversions(L, R);
    Diags.error(B->loc(), "invalid operands to '-'");
    return Ctx.types().int32Type();
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Rem:
  case BinaryOp::Shl:
  case BinaryOp::Shr:
  case BinaryOp::BitAnd:
  case BinaryOp::BitXor:
  case BinaryOp::BitOr:
    if (!L->isInteger() || !R->isInteger()) {
      Diags.error(B->loc(), std::string("invalid operands to '") +
                                binaryOpSpelling(Op) + "'");
      return Ctx.types().int32Type();
    }
    // Shift result has the promoted LHS type.
    if (Op == BinaryOp::Shl || Op == BinaryOp::Shr)
      return Ctx.types().promote(L);
    return Ctx.types().usualArithmeticConversions(L, R);
  case BinaryOp::LT:
  case BinaryOp::GT:
  case BinaryOp::LE:
  case BinaryOp::GE:
  case BinaryOp::EQ:
  case BinaryOp::NE:
    if (!L->isScalar() || !R->isScalar())
      Diags.error(B->loc(), "comparison needs scalar operands");
    return Ctx.types().int32Type();
  case BinaryOp::LogicalAnd:
  case BinaryOp::LogicalOr:
    if (!L->isScalar() || !R->isScalar())
      Diags.error(B->loc(), "logical operator needs scalar operands");
    return Ctx.types().int32Type();
  case BinaryOp::Comma:
    return Rhs;
  default:
    return Ctx.types().int32Type();
  }
}

const Type *Sema::analyzeExpr(Expr *E) {
  if (!E)
    return Ctx.types().voidType();
  switch (E->kind()) {
  case Expr::Kind::IntegerLiteral:
    // Typed by the parser.
    return E->type();
  case Expr::Kind::StringLiteral:
    return E->type();
  case Expr::Kind::DeclRef: {
    auto *Ref = cast<DeclRefExpr>(E);
    VarDecl *V = lookupVar(CurrentScope, NextSeq, Ref->name());
    if (!V) {
      Diags.error(Ref->loc(), "use of undeclared identifier '" +
                                  Ref->name() + "'");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    Ref->setDecl(V);
    UseScopes[Ref] = CurrentScope;
    UseSeqs[Ref] = NextSeq++;
    Uses.push_back(Ref);
    E->setType(V->type());
    return E->type();
  }
  case Expr::Kind::Unary: {
    auto *U = cast<UnaryExpr>(E);
    const Type *Sub = analyzeExpr(U->sub());
    switch (U->op()) {
    case UnaryOp::Plus:
    case UnaryOp::Neg:
    case UnaryOp::BitNot:
      if (!decay(Sub)->isInteger())
        Diags.error(U->loc(), "unary operator needs an integer operand");
      E->setType(
          Ctx.types().promote(Sub->isInteger() ? Sub : Ctx.types().int32Type()));
      break;
    case UnaryOp::LogicalNot:
      if (!decay(Sub)->isScalar())
        Diags.error(U->loc(), "'!' needs a scalar operand");
      E->setType(Ctx.types().int32Type());
      break;
    case UnaryOp::Deref: {
      const Type *Ptr = decay(Sub);
      if (!Ptr->isPointer()) {
        Diags.error(U->loc(), "cannot dereference non-pointer");
        E->setType(Ctx.types().int32Type());
      } else {
        E->setType(Ptr->elementType());
      }
      break;
    }
    case UnaryOp::AddrOf:
      if (!isLValue(U->sub()))
        Diags.error(U->loc(), "cannot take the address of an rvalue");
      E->setType(Ctx.types().pointerTo(Sub));
      break;
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec:
      if (!isLValue(U->sub()))
        Diags.error(U->loc(), "increment/decrement needs an lvalue");
      if (!decay(Sub)->isScalar())
        Diags.error(U->loc(), "increment/decrement needs a scalar");
      E->setType(Sub);
      break;
    }
    return E->type();
  }
  case Expr::Kind::Binary: {
    auto *B = cast<BinaryExpr>(E);
    const Type *Lhs = analyzeExpr(B->lhs());
    const Type *Rhs = analyzeExpr(B->rhs());
    E->setType(checkBinary(B, Lhs, Rhs));
    return E->type();
  }
  case Expr::Kind::Conditional: {
    auto *C = cast<ConditionalExpr>(E);
    const Type *Cond = analyzeExpr(C->cond());
    if (!decay(Cond)->isScalar())
      Diags.error(C->loc(), "condition must be scalar");
    const Type *T = analyzeExpr(C->trueExpr());
    const Type *F = analyzeExpr(C->falseExpr());
    if (T->isInteger() && F->isInteger())
      E->setType(Ctx.types().usualArithmeticConversions(T, F));
    else if (decay(T)->isPointer() && decay(F)->isPointer())
      E->setType(decay(T));
    else if (T == F)
      E->setType(T);
    else {
      Diags.error(C->loc(), "incompatible conditional operand types");
      E->setType(T);
    }
    return E->type();
  }
  case Expr::Kind::Call: {
    auto *C = cast<CallExpr>(E);
    for (Expr *Arg : C->args())
      analyzeExpr(Arg);
    const std::string &Name = C->callee()->name();
    if (Name == "printf") {
      if (C->args().empty() || !isa<StringLiteral>(C->args()[0]))
        Diags.error(C->loc(), "printf needs a literal format string");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    if (Name == "spe_input") {
      // Harness intrinsic: reads the next integer from the campaign's
      // stdin sweep (scanf("%d") semantics, 0 at exhaustion). Lets input
      // sweeps reach program behavior without argv plumbing.
      if (!C->args().empty())
        Diags.error(C->loc(), "spe_input takes no arguments");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    FunctionDecl *F = Ctx.findFunction(Name);
    if (!F) {
      Diags.error(C->loc(), "call to undeclared function '" + Name + "'");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    C->callee()->setFunctionDecl(F);
    if (C->args().size() != F->params().size())
      Diags.error(C->loc(), "wrong number of arguments to '" + Name + "'");
    E->setType(F->returnType());
    return E->type();
  }
  case Expr::Kind::Index: {
    auto *Ix = cast<IndexExpr>(E);
    const Type *Base = decay(analyzeExpr(Ix->base()));
    const Type *Index = decay(analyzeExpr(Ix->index()));
    if (!Base->isPointer()) {
      Diags.error(Ix->loc(), "subscripted value is not a pointer or array");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    if (!Index->isInteger())
      Diags.error(Ix->loc(), "array subscript is not an integer");
    E->setType(Base->elementType());
    return E->type();
  }
  case Expr::Kind::Member: {
    auto *M = cast<MemberExpr>(E);
    const Type *Base = analyzeExpr(M->base());
    const Type *StructTy = nullptr;
    if (M->isArrow()) {
      const Type *Ptr = decay(Base);
      if (Ptr->isPointer() && Ptr->elementType()->isStruct())
        StructTy = Ptr->elementType();
    } else if (Base->isStruct()) {
      StructTy = Base;
    }
    if (!StructTy) {
      Diags.error(M->loc(), "member access on non-struct value");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    if (!StructTy->isCompleteStruct()) {
      Diags.error(M->loc(), "member access on incomplete struct");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    int Index = StructTy->fieldIndex(M->fieldName());
    if (Index < 0) {
      Diags.error(M->loc(), "no field named '" + M->fieldName() + "'");
      E->setType(Ctx.types().int32Type());
      return E->type();
    }
    M->setFieldIndex(Index);
    E->setType(StructTy->fields()[Index].Ty);
    return E->type();
  }
  case Expr::Kind::Cast: {
    auto *C = cast<CastExpr>(E);
    analyzeExpr(C->sub());
    E->setType(C->toType());
    return E->type();
  }
  case Expr::Kind::SizeOf: {
    auto *S = cast<SizeOfExpr>(E);
    if (S->exprOperand())
      analyzeExpr(S->exprOperand());
    E->setType(Ctx.types().intType(64, false));
    return E->type();
  }
  case Expr::Kind::InitList: {
    // Reached only via checkInitializer, which types the list itself.
    for (Expr *Elem : cast<InitListExpr>(E)->elements())
      analyzeExpr(Elem);
    if (!E->type())
      E->setType(Ctx.types().int32Type());
    return E->type();
  }
  }
  return Ctx.types().voidType();
}
