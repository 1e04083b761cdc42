//===- lang/AstPrinter.cpp - Mini-C source rendering ---------------------===//

#include "lang/AstPrinter.h"

#include <cassert>
#include <cctype>

using namespace spe;

namespace {

/// C operator precedence levels used for minimal parenthesization.
int binaryPrec(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Comma:
    return 1;
  case BinaryOp::Assign:
  case BinaryOp::MulAssign:
  case BinaryOp::DivAssign:
  case BinaryOp::RemAssign:
  case BinaryOp::AddAssign:
  case BinaryOp::SubAssign:
  case BinaryOp::ShlAssign:
  case BinaryOp::ShrAssign:
  case BinaryOp::AndAssign:
  case BinaryOp::XorAssign:
  case BinaryOp::OrAssign:
    return 2;
  case BinaryOp::LogicalOr:
    return 4;
  case BinaryOp::LogicalAnd:
    return 5;
  case BinaryOp::BitOr:
    return 6;
  case BinaryOp::BitXor:
    return 7;
  case BinaryOp::BitAnd:
    return 8;
  case BinaryOp::EQ:
  case BinaryOp::NE:
    return 9;
  case BinaryOp::LT:
  case BinaryOp::GT:
  case BinaryOp::LE:
  case BinaryOp::GE:
    return 10;
  case BinaryOp::Shl:
  case BinaryOp::Shr:
    return 11;
  case BinaryOp::Add:
  case BinaryOp::Sub:
    return 12;
  case BinaryOp::Mul:
  case BinaryOp::Div:
  case BinaryOp::Rem:
    return 13;
  }
  return 0;
}

constexpr int CondPrec = 3;
constexpr int UnaryPrec = 14;
constexpr int PostfixPrec = 15;

/// The precedence an expression exposes to its context, known before any
/// child is rendered -- this is what lets rendering stream into one buffer.
int exprPrec(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    bool Postfix =
        U->op() == UnaryOp::PostInc || U->op() == UnaryOp::PostDec;
    return Postfix ? PostfixPrec : UnaryPrec;
  }
  case Expr::Kind::Binary:
    return binaryPrec(cast<BinaryExpr>(E)->op());
  case Expr::Kind::Conditional:
    return CondPrec;
  case Expr::Kind::Call:
  case Expr::Kind::Index:
  case Expr::Kind::Member:
    return PostfixPrec;
  case Expr::Kind::Cast:
  case Expr::Kind::SizeOf:
    return UnaryPrec;
  default:
    return 16; // Primary.
  }
}

void appendIndent(unsigned Indent, std::string &Out) {
  Out.append(Indent * 2, ' ');
}

void appendEscaped(const std::string &S, std::string &Out) {
  for (char C : S) {
    switch (C) {
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\0':
      Out += "\\0";
      break;
    default:
      Out += C;
    }
  }
}

} // namespace

void AstPrinter::typePrefix(const Type *Ty, std::string &Out) {
  // Peel arrays to reach the element type for the prefix position.
  const Type *Base = Ty;
  while (Base->isArray())
    Base = Base->elementType();
  Out += Base->toString();
}

void AstPrinter::declaratorSuffix(const Type *Ty, std::string &Out) {
  const Type *Base = Ty;
  while (Base->isArray()) {
    Out += "[";
    Out += std::to_string(Base->arraySize());
    Out += "]";
    Base = Base->elementType();
  }
}

void AstPrinter::printExpr(const Expr *E, int MinPrec,
                           std::string &Out) const {
  if (!Replaced.empty()) {
    auto It = Replaced.find(E);
    if (It != Replaced.end()) {
      // Replacement text prints as a primary: identifier/literal texts go
      // bare, anything else is parenthesized so it composes safely with any
      // surrounding precedence context.
      const std::string &R = It->second;
      bool Bare = !R.empty();
      for (char C : R)
        Bare = Bare && (std::isalnum(static_cast<unsigned char>(C)) ||
                        C == '_');
      if (Bare) {
        Out += R;
      } else {
        Out += "(";
        Out += R;
        Out += ")";
      }
      return;
    }
  }
  int Prec = exprPrec(E);
  bool Paren = Prec < MinPrec;
  if (Paren)
    Out += "(";
  switch (E->kind()) {
  case Expr::Kind::IntegerLiteral: {
    const auto *Lit = cast<IntegerLiteral>(E);
    Out += std::to_string(Lit->value());
    if (Lit->type() && Lit->type()->isInteger()) {
      if (!Lit->type()->isSigned())
        Out += "u";
      if (Lit->type()->intWidth() == 64)
        Out += "l";
    }
    break;
  }
  case Expr::Kind::StringLiteral:
    Out += "\"";
    appendEscaped(cast<StringLiteral>(E)->value(), Out);
    Out += "\"";
    break;
  case Expr::Kind::DeclRef: {
    const auto *Ref = cast<DeclRefExpr>(E);
    if (NameLog)
      NameLog->push_back({Ref, Out.size()});
    Out += Ref->name();
    break;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    bool Postfix =
        U->op() == UnaryOp::PostInc || U->op() == UnaryOp::PostDec;
    if (Postfix) {
      printExpr(U->sub(), PostfixPrec, Out);
      Out += unaryOpSpelling(U->op());
    } else {
      const char *Spell = unaryOpSpelling(U->op());
      Out += Spell;
      // Separate `- -x` and `+ +x` to avoid decrement/increment tokens.
      size_t SubStart = Out.size();
      printExpr(U->sub(), UnaryPrec, Out);
      if ((Spell[0] == '-' || Spell[0] == '+') && Spell[1] == '\0' &&
          SubStart < Out.size() && Out[SubStart] == Spell[0]) {
        Out.insert(SubStart, 1, ' ');
        // Names logged inside the operand moved one byte right.
        for (size_t I = NameLog ? NameLog->size() : 0;
             I-- > 0 && (*NameLog)[I].Offset >= SubStart;)
          ++(*NameLog)[I].Offset;
      }
    }
    break;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    bool RightAssoc = isAssignmentOp(B->op());
    int LhsPrec = RightAssoc ? Prec + 1 : Prec;
    int RhsPrec = RightAssoc ? Prec : Prec + 1;
    if (B->op() == BinaryOp::Comma) {
      printExpr(B->lhs(), Prec, Out);
      Out += ", ";
      printExpr(B->rhs(), Prec + 1, Out);
    } else {
      printExpr(B->lhs(), LhsPrec, Out);
      Out += " ";
      Out += binaryOpSpelling(B->op());
      Out += " ";
      printExpr(B->rhs(), RhsPrec, Out);
    }
    break;
  }
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    printExpr(C->cond(), CondPrec + 1, Out);
    Out += " ? ";
    printExpr(C->trueExpr(), 0, Out);
    Out += " : ";
    printExpr(C->falseExpr(), CondPrec, Out);
    break;
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    printExpr(C->callee(), PostfixPrec, Out);
    Out += "(";
    for (size_t I = 0; I < C->args().size(); ++I) {
      if (I != 0)
        Out += ", ";
      printExpr(C->args()[I], 2, Out);
    }
    Out += ")";
    break;
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    printExpr(Ix->base(), PostfixPrec, Out);
    Out += "[";
    printExpr(Ix->index(), 0, Out);
    Out += "]";
    break;
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    printExpr(M->base(), PostfixPrec, Out);
    Out += M->isArrow() ? "->" : ".";
    Out += M->fieldName();
    break;
  }
  case Expr::Kind::Cast: {
    const auto *C = cast<CastExpr>(E);
    Out += "(";
    Out += C->toType()->toString();
    Out += ")";
    printExpr(C->sub(), UnaryPrec, Out);
    break;
  }
  case Expr::Kind::SizeOf: {
    const auto *S = cast<SizeOfExpr>(E);
    if (S->typeOperand()) {
      Out += "sizeof(";
      Out += S->typeOperand()->toString();
      Out += ")";
    } else {
      Out += "sizeof ";
      printExpr(S->exprOperand(), UnaryPrec, Out);
    }
    break;
  }
  case Expr::Kind::InitList: {
    const auto *L = cast<InitListExpr>(E);
    Out += "{";
    for (size_t I = 0; I < L->elements().size(); ++I) {
      if (I != 0)
        Out += ", ";
      printExpr(L->elements()[I], 2, Out);
    }
    Out += "}";
    break;
  }
  }
  if (Paren)
    Out += ")";
}

void AstPrinter::printVarDecl(const VarDecl *V, std::string &Out) const {
  typePrefix(V->type(), Out);
  Out += " ";
  Out += V->name();
  declaratorSuffix(V->type(), Out);
  if (V->init()) {
    Out += " = ";
    printExpr(V->init(), 2, Out);
  }
}

void AstPrinter::printStmt(const Stmt *S, unsigned Indent,
                           std::string &Out) const {
  if (S->stmtId() >= 0 && Deleted.count(S->stmtId())) {
    appendIndent(Indent, Out);
    Out += ";\n";
    return;
  }
  switch (S->kind()) {
  case Stmt::Kind::Compound: {
    const auto *C = cast<CompoundStmt>(S);
    appendIndent(Indent, Out);
    Out += "{\n";
    for (const Stmt *Child : C->body()) {
      // A compound body needs no placeholder for a deleted child.
      if (ElideDeleted && Child->stmtId() >= 0 &&
          Deleted.count(Child->stmtId()))
        continue;
      printStmt(Child, Indent + 1, Out);
    }
    appendIndent(Indent, Out);
    Out += "}\n";
    return;
  }
  case Stmt::Kind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    for (const VarDecl *V : D->decls()) {
      appendIndent(Indent, Out);
      printVarDecl(V, Out);
      Out += ";\n";
    }
    return;
  }
  case Stmt::Kind::Expr: {
    const auto *E = cast<ExprStmt>(S);
    appendIndent(Indent, Out);
    if (E->expr())
      printExpr(E->expr(), 0, Out);
    Out += ";\n";
    return;
  }
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    appendIndent(Indent, Out);
    Out += "if (";
    printExpr(I->cond(), 0, Out);
    Out += ")\n";
    printStmt(I->thenStmt(),
              Indent + (isa<CompoundStmt>(I->thenStmt()) ? 0 : 1), Out);
    if (I->elseStmt()) {
      appendIndent(Indent, Out);
      Out += "else\n";
      printStmt(I->elseStmt(),
                Indent + (isa<CompoundStmt>(I->elseStmt()) ? 0 : 1), Out);
    }
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    appendIndent(Indent, Out);
    Out += "while (";
    printExpr(W->cond(), 0, Out);
    Out += ")\n";
    printStmt(W->body(), Indent + (isa<CompoundStmt>(W->body()) ? 0 : 1),
              Out);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    appendIndent(Indent, Out);
    Out += "do\n";
    printStmt(D->body(), Indent + (isa<CompoundStmt>(D->body()) ? 0 : 1),
              Out);
    appendIndent(Indent, Out);
    Out += "while (";
    printExpr(D->cond(), 0, Out);
    Out += ");\n";
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    appendIndent(Indent, Out);
    Out += "for (";
    if (const Stmt *Init = F->init()) {
      // Render the init clause inline without its trailing newline.
      if (const auto *DS = dyn_cast<DeclStmt>(Init)) {
        for (size_t I = 0; I < DS->decls().size(); ++I) {
          if (I != 0)
            Out += ", ";
          printVarDecl(DS->decls()[I], Out);
        }
        Out += ";";
      } else if (const auto *ES = dyn_cast<ExprStmt>(Init)) {
        if (ES->expr())
          printExpr(ES->expr(), 0, Out);
        Out += ";";
      }
    } else {
      Out += ";";
    }
    if (F->cond()) {
      Out += " ";
      printExpr(F->cond(), 0, Out);
    }
    Out += ";";
    if (F->step()) {
      Out += " ";
      printExpr(F->step(), 0, Out);
    }
    Out += ")\n";
    printStmt(F->body(), Indent + (isa<CompoundStmt>(F->body()) ? 0 : 1),
              Out);
    return;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    appendIndent(Indent, Out);
    if (R->value()) {
      Out += "return ";
      printExpr(R->value(), 0, Out);
      Out += ";\n";
    } else {
      Out += "return;\n";
    }
    return;
  }
  case Stmt::Kind::Break:
    appendIndent(Indent, Out);
    Out += "break;\n";
    return;
  case Stmt::Kind::Continue:
    appendIndent(Indent, Out);
    Out += "continue;\n";
    return;
  case Stmt::Kind::Goto:
    appendIndent(Indent, Out);
    Out += "goto ";
    Out += cast<GotoStmt>(S)->label();
    Out += ";\n";
    return;
  case Stmt::Kind::Label: {
    const auto *L = cast<LabelStmt>(S);
    appendIndent(Indent, Out);
    Out += L->name();
    Out += ":\n";
    printStmt(L->sub(), Indent, Out);
    return;
  }
  }
  appendIndent(Indent, Out);
  Out += ";\n";
}

void AstPrinter::printFunction(const FunctionDecl *F, std::string &Out) const {
  Out += F->returnType()->toString();
  Out += " ";
  Out += F->name();
  Out += "(";
  if (F->params().empty()) {
    Out += "void";
  } else {
    for (size_t I = 0; I < F->params().size(); ++I) {
      if (I != 0)
        Out += ", ";
      const VarDecl *P = F->params()[I];
      typePrefix(P->type(), Out);
      Out += " ";
      Out += P->name();
      declaratorSuffix(P->type(), Out);
    }
  }
  Out += ")";
  if (!F->isDefinition()) {
    Out += ";\n";
    return;
  }
  Out += "\n";
  printStmt(F->body(), 0, Out);
}

void AstPrinter::printTo(const ASTContext &Ctx, std::string &Out) const {
  Out.clear();
  for (const Decl *D : Ctx.TopLevel) {
    if (!DeletedDecls.empty() && DeletedDecls.count(D))
      continue;
    if (const auto *R = dyn_cast<RecordDecl>(D)) {
      Out += "struct ";
      Out += R->name();
      Out += " {\n";
      for (const Type::Field &F : R->type()->fields()) {
        Out += "  ";
        typePrefix(F.Ty, Out);
        Out += " ";
        Out += F.Name;
        declaratorSuffix(F.Ty, Out);
        Out += ";\n";
      }
      Out += "};\n";
      continue;
    }
    if (const auto *V = dyn_cast<VarDecl>(D)) {
      printVarDecl(V, Out);
      Out += ";\n";
      continue;
    }
    printFunction(cast<FunctionDecl>(D), Out);
  }
}

std::string AstPrinter::print(const ASTContext &Ctx) const {
  std::string Out;
  printTo(Ctx, Out);
  return Out;
}

std::string AstPrinter::printExpr(const Expr *E) const {
  std::string Out;
  printExpr(E, 0, Out);
  return Out;
}

std::string AstPrinter::printStmt(const Stmt *S, unsigned Indent) const {
  std::string Out;
  printStmt(S, Indent, Out);
  return Out;
}
