//===- compiler/IRGen.cpp - AST to MiniCC IR lowering --------------------===//

#include "compiler/IRGen.h"

#include <cassert>
#include <map>

using namespace spe;

namespace {

/// Evaluates a constant initializer expression; \returns false when the
/// expression is not a compile-time constant.
bool evalConstExpr(const Expr *E, int64_t &Out) {
  switch (E->kind()) {
  case Expr::Kind::IntegerLiteral:
    Out = static_cast<int64_t>(cast<IntegerLiteral>(E)->value());
    return true;
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    int64_t Sub;
    if (!evalConstExpr(U->sub(), Sub))
      return false;
    switch (U->op()) {
    case UnaryOp::Plus:
      Out = Sub;
      return true;
    case UnaryOp::Neg:
      Out = -Sub;
      return true;
    case UnaryOp::BitNot:
      Out = ~Sub;
      return true;
    case UnaryOp::LogicalNot:
      Out = Sub == 0 ? 1 : 0;
      return true;
    default:
      return false;
    }
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    int64_t L, R;
    if (!evalConstExpr(B->lhs(), L) || !evalConstExpr(B->rhs(), R))
      return false;
    switch (B->op()) {
    case BinaryOp::Add:
      Out = L + R;
      return true;
    case BinaryOp::Sub:
      Out = L - R;
      return true;
    case BinaryOp::Mul:
      Out = L * R;
      return true;
    case BinaryOp::Div:
      if (R == 0)
        return false;
      Out = L / R;
      return true;
    case BinaryOp::Rem:
      if (R == 0)
        return false;
      Out = L % R;
      return true;
    case BinaryOp::Shl:
      if (R < 0 || R > 63)
        return false;
      Out = static_cast<int64_t>(static_cast<uint64_t>(L) << R);
      return true;
    case BinaryOp::Shr:
      if (R < 0 || R > 63)
        return false;
      Out = L >> R;
      return true;
    case BinaryOp::BitAnd:
      Out = L & R;
      return true;
    case BinaryOp::BitOr:
      Out = L | R;
      return true;
    case BinaryOp::BitXor:
      Out = L ^ R;
      return true;
    default:
      return false;
    }
  }
  case Expr::Kind::Cast:
    return evalConstExpr(cast<CastExpr>(E)->sub(), Out);
  case Expr::Kind::SizeOf: {
    const auto *S = cast<SizeOfExpr>(E);
    const Type *Ty =
        S->typeOperand() ? S->typeOperand() : S->exprOperand()->type();
    Out = static_cast<int64_t>(Ty->isPointer() ? 8 : Ty->sizeInBytes());
    return true;
  }
  default:
    return false;
  }
}

/// Writes a constant scalar into a global's init image.
void writeScalarBytes(std::vector<uint8_t> &Bytes, uint64_t Offset,
                      uint64_t Size, uint64_t Value) {
  for (uint64_t I = 0; I < Size; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(Value >> (8 * I));
}

/// Fills a global's init image from an initializer expression. \returns
/// false for non-constant initializers.
bool fillGlobalInit(std::vector<uint8_t> &Bytes, uint64_t Offset,
                    const Type *Ty, const Expr *Init) {
  if (const auto *List = dyn_cast<InitListExpr>(Init)) {
    if (Ty->isArray()) {
      const Type *Elem = Ty->elementType();
      for (size_t I = 0; I < List->elements().size(); ++I)
        if (!fillGlobalInit(Bytes, Offset + I * Elem->sizeInBytes(), Elem,
                            List->elements()[I]))
          return false;
      return true;
    }
    if (Ty->isStruct()) {
      const auto &Fields = Ty->fields();
      for (size_t I = 0; I < List->elements().size() && I < Fields.size();
           ++I)
        if (!fillGlobalInit(Bytes, Offset + Fields[I].Offset, Fields[I].Ty,
                            List->elements()[I]))
          return false;
      return true;
    }
    if (List->elements().size() == 1)
      return fillGlobalInit(Bytes, Offset, Ty, List->elements()[0]);
    return List->elements().empty();
  }
  int64_t Value;
  if (!Ty->isInteger() || !evalConstExpr(Init, Value)) {
    // Pointer globals may be initialized with a literal 0.
    if (Ty->isPointer() && evalConstExpr(Init, Value) && Value == 0)
      return true;
    return false;
  }
  writeScalarBytes(Bytes, Offset, Ty->sizeInBytes(),
                   static_cast<uint64_t>(Value));
  return true;
}

/// Per-function lowering state.
class FunctionLowering {
public:
  FunctionLowering(ASTContext &Ctx, IRModule &Module,
                   std::map<const VarDecl *, int> &GlobalIndex,
                   std::string &Error)
      : Ctx(Ctx), Module(Module), GlobalIndex(GlobalIndex), Error(Error) {}

  bool lower(const FunctionDecl *FD, IRFunction &F);

private:
  // --- plumbing ---------------------------------------------------------
  bool failed() const { return !Error.empty(); }
  void fail(const std::string &Message) {
    if (Error.empty())
      Error = Message;
  }
  unsigned newBlock() {
    Fn->Blocks.emplace_back();
    return static_cast<unsigned>(Fn->Blocks.size() - 1);
  }
  IRBlock &block(unsigned Id) { return Fn->Blocks[Id]; }
  bool terminated() const {
    const IRBlock &B = Fn->Blocks[Cur];
    return !B.Instrs.empty() && B.Instrs.back().isTerminator();
  }
  /// Appends to the current block; if it is already terminated, opens a
  /// fresh (unreachable) block first so the IR stays well formed.
  IRInstr &append(IRInstr I) {
    if (terminated())
      Cur = newBlock();
    Fn->Blocks[Cur].Instrs.push_back(std::move(I));
    return Fn->Blocks[Cur].Instrs.back();
  }
  void setCurrent(unsigned Block) { Cur = Block; }
  void branchTo(unsigned Target) {
    if (terminated())
      return;
    IRInstr I;
    I.Op = IROp::Br;
    I.Succ0 = Target;
    append(std::move(I));
  }
  void condBranch(IROperand Cond, unsigned TrueB, unsigned FalseB) {
    IRInstr I;
    I.Op = IROp::CondBr;
    I.A = Cond;
    I.Succ0 = TrueB;
    I.Succ1 = FalseB;
    append(std::move(I));
  }

  int slotOf(const VarDecl *V) {
    auto It = SlotIndex.find(V);
    return It == SlotIndex.end() ? -1 : It->second;
  }
  int addSlot(const VarDecl *V) {
    IRSlot S;
    S.Name = V->name();
    S.Ty = V->type();
    S.Size = V->type()->sizeInBytes();
    Fn->Slots.push_back(S);
    int Index = static_cast<int>(Fn->Slots.size() - 1);
    SlotIndex[V] = Index;
    return Index;
  }

  // --- helpers ----------------------------------------------------------
  const Type *ptrTo(const Type *T) { return Ctx.types().pointerTo(T); }
  IROperand emitUn(IROp Op, IROperand A, const Type *Ty);
  IROperand emitBin(BinaryOp Op, IROperand A, IROperand B, const Type *Ty);
  IROperand emitLoad(IROperand Addr, const Type *Ty);
  void emitStore(IROperand Addr, IROperand Value);
  IROperand emitAddrSlot(int Slot, const Type *PointeeTy);
  IROperand emitAddrGlobal(int Global, const Type *PointeeTy);
  IROperand emitPtrAdd(IROperand Ptr, IROperand Delta, uint64_t Scale,
                       const Type *Ty);
  /// Converts \p V to \p To (constant-folds integer conversions).
  IROperand convert(IROperand V, const Type *To);
  /// Materializes a scalar into a fresh temp slot; \returns the slot index.
  int makeTempSlot(const Type *Ty);

  // --- expressions -------------------------------------------------------
  IROperand genExpr(const Expr *E);
  bool genAddr(const Expr *E, IROperand &Out);
  IROperand genBinary(const BinaryExpr *B);
  IROperand genCall(const CallExpr *C);
  IROperand genCond(const ConditionalExpr *C);
  IROperand decayIfNeeded(const Expr *E, IROperand Addr);

  // --- statements --------------------------------------------------------
  void genStmt(const Stmt *S);
  void genVarDecl(const VarDecl *V);
  void genLocalInit(IROperand Addr, const Type *Ty, const Expr *Init);
  unsigned labelBlock(const std::string &Name);

  ASTContext &Ctx;
  IRModule &Module;
  std::map<const VarDecl *, int> &GlobalIndex;
  std::string &Error;

  IRFunction *Fn = nullptr;
  unsigned Cur = 0;
  std::map<const VarDecl *, int> SlotIndex;
  std::map<std::string, unsigned> LabelBlocks;
  std::vector<unsigned> BreakTargets;
  std::vector<unsigned> ContinueTargets;
};

IROperand FunctionLowering::emitUn(IROp Op, IROperand A, const Type *Ty) {
  IRInstr I;
  I.Op = Op;
  I.A = A;
  I.Ty = Ty;
  I.HasDst = true;
  I.Dst = Fn->newReg();
  append(std::move(I));
  return IROperand::reg(Fn->NumRegs - 1, Ty);
}

IROperand FunctionLowering::emitBin(BinaryOp Op, IROperand A, IROperand B,
                                    const Type *Ty) {
  IRInstr I;
  I.Op = IROp::Bin;
  I.Bin = Op;
  I.A = A;
  I.B = B;
  I.Ty = Ty;
  I.HasDst = true;
  I.Dst = Fn->newReg();
  append(std::move(I));
  return IROperand::reg(Fn->NumRegs - 1, Ty);
}

IROperand FunctionLowering::emitLoad(IROperand Addr, const Type *Ty) {
  IRInstr I;
  I.Op = IROp::Load;
  I.A = Addr;
  I.Ty = Ty;
  I.HasDst = true;
  I.Dst = Fn->newReg();
  append(std::move(I));
  return IROperand::reg(Fn->NumRegs - 1, Ty);
}

void FunctionLowering::emitStore(IROperand Addr, IROperand Value) {
  IRInstr I;
  I.Op = IROp::Store;
  I.A = Addr;
  I.B = Value;
  I.Ty = Value.Ty;
  append(std::move(I));
}

IROperand FunctionLowering::emitAddrSlot(int Slot, const Type *PointeeTy) {
  IRInstr I;
  I.Op = IROp::AddrSlot;
  I.SlotIndex = Slot;
  I.Ty = ptrTo(PointeeTy);
  I.HasDst = true;
  I.Dst = Fn->newReg();
  append(std::move(I));
  return IROperand::reg(Fn->NumRegs - 1, I.Ty);
}

IROperand FunctionLowering::emitAddrGlobal(int Global,
                                           const Type *PointeeTy) {
  IRInstr I;
  I.Op = IROp::AddrGlobal;
  I.GlobalIndex = Global;
  I.Ty = ptrTo(PointeeTy);
  I.HasDst = true;
  I.Dst = Fn->newReg();
  append(std::move(I));
  return IROperand::reg(Fn->NumRegs - 1, I.Ty);
}

IROperand FunctionLowering::emitPtrAdd(IROperand Ptr, IROperand Delta,
                                       uint64_t Scale, const Type *Ty) {
  IRInstr I;
  I.Op = IROp::PtrAdd;
  I.A = Ptr;
  I.B = Delta;
  I.Scale = Scale;
  I.Ty = Ty;
  I.HasDst = true;
  I.Dst = Fn->newReg();
  append(std::move(I));
  return IROperand::reg(Fn->NumRegs - 1, Ty);
}

IROperand FunctionLowering::convert(IROperand V, const Type *To) {
  if (V.Ty == To || failed())
    return V;
  if (V.isConst() && V.Ty && V.Ty->isInteger() && To->isInteger())
    return IROperand::constant(normalizeIntValue(To, V.Imm), To);
  return emitUn(IROp::Copy, V, To);
}

int FunctionLowering::makeTempSlot(const Type *Ty) {
  IRSlot S;
  S.Name = "$tmp" + std::to_string(Fn->Slots.size());
  S.Ty = Ty;
  S.Size = Ty->isPointer() ? 8 : Ty->sizeInBytes();
  Fn->Slots.push_back(S);
  return static_cast<int>(Fn->Slots.size() - 1);
}

IROperand FunctionLowering::decayIfNeeded(const Expr *E, IROperand Addr) {
  // Array-typed expressions decay to a pointer to the first element.
  const Type *Ty = E->type();
  assert(Ty->isArray() && "decay on non-array");
  // Re-type via a copy so the operand type is consistent.
  return convert(Addr, ptrTo(Ty->elementType()));
}

bool FunctionLowering::genAddr(const Expr *E, IROperand &Out) {
  if (failed())
    return false;
  switch (E->kind()) {
  case Expr::Kind::DeclRef: {
    const VarDecl *V = cast<DeclRefExpr>(E)->decl();
    if (!V) {
      fail("unresolved reference");
      return false;
    }
    int Slot = slotOf(V);
    if (Slot >= 0) {
      Out = emitAddrSlot(Slot, V->type());
      return true;
    }
    auto It = GlobalIndex.find(V);
    if (It == GlobalIndex.end()) {
      fail("reference to unknown variable '" + V->name() + "'");
      return false;
    }
    Out = emitAddrGlobal(It->second, V->type());
    return true;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    if (U->op() != UnaryOp::Deref) {
      fail("address of non-lvalue");
      return false;
    }
    Out = genExpr(U->sub());
    return !failed();
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    IROperand Base = genExpr(Ix->base());
    IROperand Index = genExpr(Ix->index());
    if (failed())
      return false;
    uint64_t ElemSize = E->type()->isArray()
                            ? E->type()->sizeInBytes()
                            : E->type()->sizeInBytes();
    Out = emitPtrAdd(Base, convert(Index, Ctx.types().longType()), ElemSize,
                     ptrTo(E->type()));
    return true;
  }
  case Expr::Kind::Member: {
    const auto *M = cast<MemberExpr>(E);
    IROperand Base;
    const Type *StructTy;
    if (M->isArrow()) {
      Base = genExpr(M->base());
      StructTy = M->base()->type()->isArray()
                     ? M->base()->type()->elementType()
                     : M->base()->type()->elementType();
    } else {
      if (!genAddr(M->base(), Base))
        return false;
      StructTy = M->base()->type();
    }
    if (failed())
      return false;
    const Type::Field &F = StructTy->fields()[M->fieldIndex()];
    Out = emitPtrAdd(Base,
                     IROperand::constant(F.Offset, Ctx.types().longType()),
                     1, ptrTo(F.Ty));
    return true;
  }
  case Expr::Kind::Conditional: {
    const auto *C = cast<ConditionalExpr>(E);
    IROperand Cond = genExpr(C->cond());
    if (failed())
      return false;
    unsigned TrueB = newBlock(), FalseB = newBlock(), Join = newBlock();
    const Type *SlotTy = ptrTo(E->type());
    int Temp = makeTempSlot(SlotTy);
    condBranch(Cond, TrueB, FalseB);
    setCurrent(TrueB);
    IROperand TrueAddr;
    if (!genAddr(C->trueExpr(), TrueAddr))
      return false;
    emitStore(emitAddrSlot(Temp, SlotTy), TrueAddr);
    branchTo(Join);
    setCurrent(FalseB);
    IROperand FalseAddr;
    if (!genAddr(C->falseExpr(), FalseAddr))
      return false;
    emitStore(emitAddrSlot(Temp, SlotTy), FalseAddr);
    branchTo(Join);
    setCurrent(Join);
    Out = emitLoad(emitAddrSlot(Temp, SlotTy), SlotTy);
    return true;
  }
  default:
    fail("expression is not an lvalue");
    return false;
  }
}

IROperand FunctionLowering::genExpr(const Expr *E) {
  if (failed())
    return IROperand::none();
  switch (E->kind()) {
  case Expr::Kind::IntegerLiteral:
    return IROperand::constant(
        normalizeIntValue(E->type(), cast<IntegerLiteral>(E)->value()),
        E->type());
  case Expr::Kind::StringLiteral:
    fail("string literal outside printf");
    return IROperand::none();
  case Expr::Kind::DeclRef: {
    const VarDecl *V = cast<DeclRefExpr>(E)->decl();
    IROperand Addr;
    if (!genAddr(E, Addr))
      return IROperand::none();
    if (V->type()->isArray())
      return decayIfNeeded(E, Addr);
    if (!V->type()->isScalar()) {
      fail("aggregate rvalue");
      return IROperand::none();
    }
    return emitLoad(Addr, V->type());
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->op()) {
    case UnaryOp::Plus:
      return convert(genExpr(U->sub()), E->type());
    case UnaryOp::Neg:
      return emitUn(IROp::Neg, convert(genExpr(U->sub()), E->type()),
                    E->type());
    case UnaryOp::BitNot:
      return emitUn(IROp::BitNot, convert(genExpr(U->sub()), E->type()),
                    E->type());
    case UnaryOp::LogicalNot:
      return emitUn(IROp::Not, genExpr(U->sub()), E->type());
    case UnaryOp::Deref: {
      IROperand Addr = genExpr(U->sub());
      if (failed())
        return IROperand::none();
      if (E->type()->isArray()) {
        IROperand Decayed = Addr;
        return convert(Decayed, ptrTo(E->type()->elementType()));
      }
      return emitLoad(Addr, E->type());
    }
    case UnaryOp::AddrOf: {
      IROperand Addr;
      if (!genAddr(U->sub(), Addr))
        return IROperand::none();
      return convert(Addr, E->type());
    }
    case UnaryOp::PreInc:
    case UnaryOp::PreDec:
    case UnaryOp::PostInc:
    case UnaryOp::PostDec: {
      IROperand Addr;
      if (!genAddr(U->sub(), Addr))
        return IROperand::none();
      const Type *Ty = U->sub()->type();
      IROperand Old = emitLoad(Addr, Ty);
      bool IsInc =
          U->op() == UnaryOp::PreInc || U->op() == UnaryOp::PostInc;
      IROperand New;
      if (Ty->isPointer()) {
        New = emitPtrAdd(
            Old,
            IROperand::constant(IsInc ? 1 : static_cast<uint64_t>(-1),
                                Ctx.types().longType()),
            Ty->elementType()->sizeInBytes(), Ty);
      } else {
        const Type *PTy = Ctx.types().promote(Ty);
        New = emitBin(IsInc ? BinaryOp::Add : BinaryOp::Sub,
                      convert(Old, PTy), IROperand::constant(1, PTy), PTy);
        New = convert(New, Ty);
      }
      emitStore(Addr, New);
      bool IsPost =
          U->op() == UnaryOp::PostInc || U->op() == UnaryOp::PostDec;
      return IsPost ? Old : New;
    }
    }
    return IROperand::none();
  }
  case Expr::Kind::Binary:
    return genBinary(cast<BinaryExpr>(E));
  case Expr::Kind::Conditional:
    return genCond(cast<ConditionalExpr>(E));
  case Expr::Kind::Call:
    return genCall(cast<CallExpr>(E));
  case Expr::Kind::Index:
  case Expr::Kind::Member: {
    IROperand Addr;
    if (!genAddr(E, Addr))
      return IROperand::none();
    if (E->type()->isArray())
      return convert(Addr, ptrTo(E->type()->elementType()));
    if (!E->type()->isScalar()) {
      fail("aggregate rvalue");
      return IROperand::none();
    }
    return emitLoad(Addr, E->type());
  }
  case Expr::Kind::Cast: {
    IROperand V = genExpr(cast<CastExpr>(E)->sub());
    if (failed())
      return IROperand::none();
    return convert(V, E->type());
  }
  case Expr::Kind::SizeOf: {
    const auto *S = cast<SizeOfExpr>(E);
    const Type *Ty =
        S->typeOperand() ? S->typeOperand() : S->exprOperand()->type();
    uint64_t Size = Ty->isPointer() ? 8 : Ty->sizeInBytes();
    return IROperand::constant(Size, E->type());
  }
  case Expr::Kind::InitList:
    fail("initializer list in expression");
    return IROperand::none();
  }
  return IROperand::none();
}

IROperand FunctionLowering::genBinary(const BinaryExpr *B) {
  BinaryOp Op = B->op();

  if (Op == BinaryOp::Comma) {
    genExpr(B->lhs());
    return genExpr(B->rhs());
  }

  if (Op == BinaryOp::LogicalAnd || Op == BinaryOp::LogicalOr) {
    // Short-circuit via a temp slot holding the 0/1 result.
    const Type *ResTy = B->type();
    int Temp = makeTempSlot(ResTy);
    IROperand L = genExpr(B->lhs());
    if (failed())
      return IROperand::none();
    unsigned RhsB = newBlock(), ShortB = newBlock(), Join = newBlock();
    if (Op == BinaryOp::LogicalAnd)
      condBranch(L, RhsB, ShortB);
    else
      condBranch(L, ShortB, RhsB);
    // Short-circuit value: 0 for &&, 1 for ||.
    setCurrent(ShortB);
    emitStore(emitAddrSlot(Temp, ResTy),
              IROperand::constant(Op == BinaryOp::LogicalAnd ? 0 : 1, ResTy));
    branchTo(Join);
    setCurrent(RhsB);
    IROperand R = genExpr(B->rhs());
    if (failed())
      return IROperand::none();
    IROperand RBool = emitUn(IROp::Not, emitUn(IROp::Not, R, ResTy), ResTy);
    emitStore(emitAddrSlot(Temp, ResTy), RBool);
    branchTo(Join);
    setCurrent(Join);
    return emitLoad(emitAddrSlot(Temp, ResTy), ResTy);
  }

  if (isAssignmentOp(Op)) {
    if (Op == BinaryOp::Assign && B->lhs()->type()->isStruct()) {
      IROperand Dst, Src;
      if (!genAddr(B->lhs(), Dst) || !genAddr(B->rhs(), Src))
        return IROperand::none();
      IRInstr I;
      I.Op = IROp::Memcpy;
      I.A = Dst;
      I.B = Src;
      I.Size = B->lhs()->type()->sizeInBytes();
      append(std::move(I));
      return IROperand::none();
    }
    IROperand Addr;
    if (!genAddr(B->lhs(), Addr))
      return IROperand::none();
    const Type *LTy = B->lhs()->type();
    IROperand Result;
    if (Op == BinaryOp::Assign) {
      Result = convert(genExpr(B->rhs()), LTy);
    } else {
      IROperand Old = emitLoad(Addr, LTy);
      IROperand R = genExpr(B->rhs());
      if (failed())
        return IROperand::none();
      BinaryOp Base = compoundBaseOp(Op);
      if (LTy->isPointer()) {
        IROperand Delta = convert(R, Ctx.types().longType());
        if (Base == BinaryOp::Sub)
          Delta = emitUn(IROp::Neg, Delta, Ctx.types().longType());
        Result = emitPtrAdd(Old, Delta, LTy->elementType()->sizeInBytes(),
                            LTy);
      } else if (Base == BinaryOp::Shl || Base == BinaryOp::Shr) {
        const Type *Ty = Ctx.types().promote(LTy);
        Result = convert(
            emitBin(Base, convert(Old, Ty), convert(R, Ctx.types().int32Type()), Ty),
            LTy);
      } else {
        const Type *Ty =
            Ctx.types().usualArithmeticConversions(LTy, R.Ty ? R.Ty : LTy);
        Result =
            convert(emitBin(Base, convert(Old, Ty), convert(R, Ty), Ty), LTy);
      }
    }
    if (failed())
      return IROperand::none();
    emitStore(Addr, Result);
    return Result;
  }

  IROperand L = genExpr(B->lhs());
  IROperand R = genExpr(B->rhs());
  if (failed())
    return IROperand::none();

  bool LPtr = L.Ty && L.Ty->isPointer();
  bool RPtr = R.Ty && R.Ty->isPointer();
  if (Op == BinaryOp::Add && (LPtr || RPtr)) {
    IROperand P = LPtr ? L : R;
    IROperand N = LPtr ? R : L;
    return emitPtrAdd(P, convert(N, Ctx.types().longType()),
                      P.Ty->elementType()->sizeInBytes(), P.Ty);
  }
  if (Op == BinaryOp::Sub && LPtr) {
    if (RPtr) {
      IRInstr I;
      I.Op = IROp::PtrDiff;
      I.A = L;
      I.B = R;
      I.Scale = L.Ty->elementType()->sizeInBytes();
      I.Ty = B->type();
      I.HasDst = true;
      I.Dst = Fn->newReg();
      append(std::move(I));
      return IROperand::reg(Fn->NumRegs - 1, B->type());
    }
    IROperand Delta =
        emitUn(IROp::Neg, convert(R, Ctx.types().longType()),
               Ctx.types().longType());
    return emitPtrAdd(L, Delta, L.Ty->elementType()->sizeInBytes(), L.Ty);
  }
  if (isComparisonOp(Op)) {
    if (LPtr || RPtr) {
      IROperand PL = LPtr ? L : convert(L, R.Ty);
      IROperand PR = RPtr ? R : convert(R, L.Ty);
      return emitBin(Op, PL, PR, B->type());
    }
    const Type *Ty = Ctx.types().usualArithmeticConversions(L.Ty, R.Ty);
    return emitBin(Op, convert(L, Ty), convert(R, Ty), B->type());
  }
  if (Op == BinaryOp::Shl || Op == BinaryOp::Shr) {
    const Type *Ty = B->type();
    return emitBin(Op, convert(L, Ty), convert(R, Ctx.types().int32Type()),
                   Ty);
  }
  const Type *Ty = B->type();
  return emitBin(Op, convert(L, Ty), convert(R, Ty), Ty);
}

IROperand FunctionLowering::genCond(const ConditionalExpr *C) {
  IROperand Cond = genExpr(C->cond());
  if (failed())
    return IROperand::none();
  const Type *Ty = C->type();
  if (!Ty->isScalar()) {
    fail("aggregate conditional rvalue");
    return IROperand::none();
  }
  int Temp = makeTempSlot(Ty);
  unsigned TrueB = newBlock(), FalseB = newBlock(), Join = newBlock();
  condBranch(Cond, TrueB, FalseB);
  setCurrent(TrueB);
  IROperand TV = convert(genExpr(C->trueExpr()), Ty);
  if (failed())
    return IROperand::none();
  emitStore(emitAddrSlot(Temp, Ty), TV);
  branchTo(Join);
  setCurrent(FalseB);
  IROperand FV = convert(genExpr(C->falseExpr()), Ty);
  if (failed())
    return IROperand::none();
  emitStore(emitAddrSlot(Temp, Ty), FV);
  branchTo(Join);
  setCurrent(Join);
  return emitLoad(emitAddrSlot(Temp, Ty), Ty);
}

IROperand FunctionLowering::genCall(const CallExpr *C) {
  if (C->callee()->name() == "printf") {
    if (C->args().empty() || !isa<StringLiteral>(C->args()[0])) {
      fail("printf without literal format");
      return IROperand::none();
    }
    IRInstr I;
    I.Op = IROp::Printf;
    I.Fmt = cast<StringLiteral>(C->args()[0])->value();
    for (size_t A = 1; A < C->args().size(); ++A) {
      I.Args.push_back(genExpr(C->args()[A]));
      if (failed())
        return IROperand::none();
    }
    append(std::move(I));
    return IROperand::constant(0, Ctx.types().int32Type());
  }
  if (C->callee()->name() == "spe_input") {
    IRInstr I;
    I.Op = IROp::Input;
    I.HasDst = true;
    I.Dst = Fn->newReg();
    I.Ty = Ctx.types().int32Type();
    append(std::move(I));
    return IROperand::reg(Fn->NumRegs - 1, Ctx.types().int32Type());
  }
  const FunctionDecl *Callee = C->callee()->functionDecl();
  if (!Callee || !Callee->isDefinition()) {
    fail("call to undefined function");
    return IROperand::none();
  }
  IRInstr I;
  I.Op = IROp::Call;
  I.CalleeIndex = Module.functionIndex(Callee->name());
  for (size_t A = 0; A < C->args().size(); ++A) {
    IROperand Arg = genExpr(C->args()[A]);
    if (failed())
      return IROperand::none();
    I.Args.push_back(convert(Arg, Callee->params()[A]->type()));
  }
  const Type *RetTy = Callee->returnType();
  if (!RetTy->isVoid()) {
    I.HasDst = true;
    I.Dst = Fn->newReg();
    I.Ty = RetTy;
    append(std::move(I));
    return IROperand::reg(Fn->NumRegs - 1, RetTy);
  }
  append(std::move(I));
  return IROperand::none();
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

unsigned FunctionLowering::labelBlock(const std::string &Name) {
  auto It = LabelBlocks.find(Name);
  if (It != LabelBlocks.end())
    return It->second;
  unsigned Block = newBlock();
  LabelBlocks[Name] = Block;
  return Block;
}

void FunctionLowering::genLocalInit(IROperand Addr, const Type *Ty,
                                    const Expr *Init) {
  if (const auto *List = dyn_cast<InitListExpr>(Init)) {
    // Zero-fill, then write the given elements.
    IRInstr I;
    I.Op = IROp::Memset;
    I.A = Addr;
    I.Size = Ty->sizeInBytes();
    append(std::move(I));
    if (Ty->isArray()) {
      const Type *Elem = Ty->elementType();
      for (size_t E = 0; E < List->elements().size(); ++E) {
        IROperand ElemAddr = emitPtrAdd(
            Addr,
            IROperand::constant(E, Ctx.types().longType()),
            Elem->sizeInBytes(), ptrTo(Elem));
        genLocalInit(ElemAddr, Elem, List->elements()[E]);
      }
      return;
    }
    if (Ty->isStruct()) {
      const auto &Fields = Ty->fields();
      for (size_t E = 0; E < List->elements().size() && E < Fields.size();
           ++E) {
        IROperand FieldAddr = emitPtrAdd(
            Addr,
            IROperand::constant(Fields[E].Offset, Ctx.types().longType()), 1,
            ptrTo(Fields[E].Ty));
        genLocalInit(FieldAddr, Fields[E].Ty, List->elements()[E]);
      }
      return;
    }
    if (!List->elements().empty())
      genLocalInit(Addr, Ty, List->elements()[0]);
    return;
  }
  IROperand V = genExpr(Init);
  if (failed())
    return;
  if (!Ty->isScalar()) {
    fail("aggregate initializer expression");
    return;
  }
  emitStore(Addr, convert(V, Ty));
}

void FunctionLowering::genVarDecl(const VarDecl *V) {
  int Slot = addSlot(V);
  if (V->init()) {
    IROperand Addr = emitAddrSlot(Slot, V->type());
    genLocalInit(Addr, V->type(), V->init());
  }
}

void FunctionLowering::genStmt(const Stmt *S) {
  if (failed() || !S)
    return;
  switch (S->kind()) {
  case Stmt::Kind::Compound:
    for (const Stmt *Child : cast<CompoundStmt>(S)->body())
      genStmt(Child);
    return;
  case Stmt::Kind::Decl:
    for (const VarDecl *V : cast<DeclStmt>(S)->decls())
      genVarDecl(V);
    return;
  case Stmt::Kind::Expr:
    if (const Expr *E = cast<ExprStmt>(S)->expr())
      genExpr(E);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    IROperand Cond = genExpr(I->cond());
    if (failed())
      return;
    unsigned ThenB = newBlock(), Join = newBlock();
    unsigned ElseB = I->elseStmt() ? newBlock() : Join;
    condBranch(Cond, ThenB, ElseB);
    setCurrent(ThenB);
    genStmt(I->thenStmt());
    branchTo(Join);
    if (I->elseStmt()) {
      setCurrent(ElseB);
      genStmt(I->elseStmt());
      branchTo(Join);
    }
    setCurrent(Join);
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    unsigned Header = newBlock(), Body = newBlock(), Exit = newBlock();
    branchTo(Header);
    setCurrent(Header);
    IROperand Cond = genExpr(W->cond());
    if (failed())
      return;
    condBranch(Cond, Body, Exit);
    BreakTargets.push_back(Exit);
    ContinueTargets.push_back(Header);
    setCurrent(Body);
    genStmt(W->body());
    branchTo(Header);
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    setCurrent(Exit);
    return;
  }
  case Stmt::Kind::Do: {
    const auto *D = cast<DoStmt>(S);
    unsigned Body = newBlock(), CondB = newBlock(), Exit = newBlock();
    branchTo(Body);
    BreakTargets.push_back(Exit);
    ContinueTargets.push_back(CondB);
    setCurrent(Body);
    genStmt(D->body());
    branchTo(CondB);
    setCurrent(CondB);
    IROperand Cond = genExpr(D->cond());
    if (failed())
      return;
    condBranch(Cond, Body, Exit);
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    setCurrent(Exit);
    return;
  }
  case Stmt::Kind::For: {
    const auto *F = cast<ForStmt>(S);
    if (F->init())
      genStmt(F->init());
    unsigned Header = newBlock(), Body = newBlock(), StepB = newBlock(),
             Exit = newBlock();
    branchTo(Header);
    setCurrent(Header);
    if (F->cond()) {
      IROperand Cond = genExpr(F->cond());
      if (failed())
        return;
      condBranch(Cond, Body, Exit);
    } else {
      branchTo(Body);
    }
    BreakTargets.push_back(Exit);
    ContinueTargets.push_back(StepB);
    setCurrent(Body);
    genStmt(F->body());
    branchTo(StepB);
    setCurrent(StepB);
    if (F->step())
      genExpr(F->step());
    branchTo(Header);
    BreakTargets.pop_back();
    ContinueTargets.pop_back();
    setCurrent(Exit);
    return;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    IRInstr I;
    I.Op = IROp::Ret;
    if (R->value()) {
      I.A = convert(genExpr(R->value()), Fn->RetTy->isVoid()
                                             ? R->value()->type()
                                             : Fn->RetTy);
      if (failed())
        return;
    }
    append(std::move(I));
    return;
  }
  case Stmt::Kind::Break:
    if (!BreakTargets.empty())
      branchTo(BreakTargets.back());
    return;
  case Stmt::Kind::Continue:
    if (!ContinueTargets.empty())
      branchTo(ContinueTargets.back());
    return;
  case Stmt::Kind::Goto:
    branchTo(labelBlock(cast<GotoStmt>(S)->label()));
    return;
  case Stmt::Kind::Label: {
    const auto *L = cast<LabelStmt>(S);
    unsigned Block = labelBlock(L->name());
    branchTo(Block);
    setCurrent(Block);
    genStmt(L->sub());
    return;
  }
  }
}

bool FunctionLowering::lower(const FunctionDecl *FD, IRFunction &F) {
  Fn = &F;
  F.Name = FD->name();
  F.RetTy = FD->returnType();
  F.NumParams = static_cast<unsigned>(FD->params().size());
  Cur = newBlock();
  for (const VarDecl *P : FD->params())
    addSlot(P);
  genStmt(FD->body());
  // Implicit return at the end (value 0: UB-free variants never use an
  // indeterminate return, and the reference interpreter maps main's
  // fall-off to 0).
  if (!terminated()) {
    IRInstr I;
    I.Op = IROp::Ret;
    append(std::move(I));
  }
  // Some label/join blocks may have been created and never filled.
  for (IRBlock &B : F.Blocks) {
    if (B.Instrs.empty() || !B.Instrs.back().isTerminator()) {
      IRInstr I;
      I.Op = IROp::Ret;
      B.Instrs.push_back(std::move(I));
    }
  }
  // Conservative address-taken marking: any AddrSlot whose result is used
  // by something other than a direct Load/Store address position.
  for (IRBlock &B : F.Blocks) {
    for (size_t II = 0; II < B.Instrs.size(); ++II) {
      const IRInstr &I = B.Instrs[II];
      if (I.Op != IROp::AddrSlot)
        continue;
      unsigned Reg = I.Dst;
      for (const IRBlock &B2 : F.Blocks) {
        for (const IRInstr &Use : B2.Instrs) {
          bool Escapes = false;
          if (Use.Op == IROp::Load && Use.A.isReg() && Use.A.Reg == Reg)
            continue;
          if (Use.Op == IROp::Store && Use.A.isReg() && Use.A.Reg == Reg &&
              !(Use.B.isReg() && Use.B.Reg == Reg))
            continue;
          if (Use.A.isReg() && Use.A.Reg == Reg)
            Escapes = true;
          if (Use.B.isReg() && Use.B.Reg == Reg)
            Escapes = true;
          for (const IROperand &O : Use.Args)
            if (O.isReg() && O.Reg == Reg)
              Escapes = true;
          if (Escapes)
            F.Slots[I.SlotIndex].AddressTaken = true;
        }
      }
    }
  }
  return !failed();
}

} // namespace

IRGenResult spe::generateIR(ASTContext &Ctx) {
  IRGenResult Result;
  IRModule &M = Result.Module;

  std::map<const VarDecl *, int> GlobalIndex;
  for (VarDecl *G : Ctx.globals()) {
    IRGlobal IG;
    IG.Name = G->name();
    IG.Ty = G->type();
    uint64_t Size = G->type()->sizeInBytes();
    if (Size == 0) {
      Result.Error = "global of incomplete type";
      return Result;
    }
    IG.InitBytes.assign(Size, 0);
    if (G->init() &&
        !fillGlobalInit(IG.InitBytes, 0, G->type(), G->init())) {
      Result.Error = "non-constant global initializer";
      return Result;
    }
    GlobalIndex[G] = static_cast<int>(M.Globals.size());
    M.Globals.push_back(std::move(IG));
  }

  // Pre-create function entries so calls can reference any definition.
  std::vector<FunctionDecl *> Defs = Ctx.functions();
  M.Functions.resize(Defs.size());
  for (size_t I = 0; I < Defs.size(); ++I)
    M.Functions[I].Name = Defs[I]->name();

  for (size_t I = 0; I < Defs.size(); ++I) {
    FunctionLowering Lowering(Ctx, M, GlobalIndex, Result.Error);
    IRFunction F;
    F.Name = Defs[I]->name();
    if (!Lowering.lower(Defs[I], F))
      return Result;
    M.Functions[I] = std::move(F);
  }
  M.MainIndex = M.functionIndex("main");
  if (M.MainIndex < 0) {
    Result.Error = "no main function";
    return Result;
  }
  std::string VerifyError = verifyModule(M);
  if (!VerifyError.empty()) {
    Result.Error = "IR verification failed: " + VerifyError;
    return Result;
  }
  Result.Ok = true;
  return Result;
}
