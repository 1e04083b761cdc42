//===- compiler/IR.cpp - MiniCC IR printing and verification -------------===//

#include "compiler/IR.h"

#include "support/Scratch.h"

using namespace spe;

static std::string operandToString(const IROperand &O) {
  switch (O.K) {
  case IROperand::Kind::None:
    return "_";
  case IROperand::Kind::Const:
    return "#" + std::to_string(static_cast<int64_t>(O.Imm));
  case IROperand::Kind::Reg:
    return "%" + std::to_string(O.Reg);
  }
  return "?";
}

static std::string instrToString(const IRFunction &F, const IRInstr &I) {
  std::string Out;
  auto Dst = [&] { return "%" + std::to_string(I.Dst) + " = "; };
  switch (I.Op) {
  case IROp::Const:
    Out = Dst() + "const " + operandToString(I.A);
    break;
  case IROp::Copy:
    Out = Dst() + "copy " + operandToString(I.A);
    break;
  case IROp::Bin:
    Out = Dst() + "bin " + binaryOpSpelling(I.Bin) + " " +
          operandToString(I.A) + ", " + operandToString(I.B);
    break;
  case IROp::Neg:
    Out = Dst() + "neg " + operandToString(I.A);
    break;
  case IROp::BitNot:
    Out = Dst() + "bitnot " + operandToString(I.A);
    break;
  case IROp::Not:
    Out = Dst() + "not " + operandToString(I.A);
    break;
  case IROp::AddrSlot:
    Out = Dst() + "addr slot" + std::to_string(I.SlotIndex);
    break;
  case IROp::AddrGlobal:
    Out = Dst() + "addr global" + std::to_string(I.GlobalIndex);
    break;
  case IROp::PtrAdd:
    Out = Dst() + "ptradd " + operandToString(I.A) + " + " +
          operandToString(I.B) + " * " + std::to_string(I.Scale);
    break;
  case IROp::PtrDiff:
    Out = Dst() + "ptrdiff (" + operandToString(I.A) + " - " +
          operandToString(I.B) + ") / " + std::to_string(I.Scale);
    break;
  case IROp::Load:
    Out = Dst() + "load " + operandToString(I.A);
    break;
  case IROp::Store:
    Out = "store " + operandToString(I.A) + " <- " + operandToString(I.B);
    break;
  case IROp::Memcpy:
    Out = "memcpy " + operandToString(I.A) + " <- " + operandToString(I.B) +
          ", " + std::to_string(I.Size);
    break;
  case IROp::Memset:
    Out = "memset " + operandToString(I.A) + ", 0, " +
          std::to_string(I.Size);
    break;
  case IROp::Call: {
    Out = (I.HasDst ? Dst() : std::string()) + "call fn" +
          std::to_string(I.CalleeIndex) + "(";
    IRArgRange<const IROperand> Args = F.args(I);
    for (size_t A = 0; A < Args.size(); ++A) {
      if (A)
        Out += ", ";
      Out += operandToString(Args[A]);
    }
    Out += ")";
    break;
  }
  case IROp::Printf:
    Out = "printf(...)";
    break;
  case IROp::Input:
    Out = Dst() + "input";
    break;
  case IROp::Ret:
    Out = "ret " + operandToString(I.A);
    break;
  case IROp::Br:
    Out = "br bb" + std::to_string(I.Succ0);
    break;
  case IROp::CondBr:
    Out = "condbr " + operandToString(I.A) + ", bb" +
          std::to_string(I.Succ0) + ", bb" + std::to_string(I.Succ1);
    break;
  case IROp::Unreachable:
    Out = "unreachable";
    break;
  }
  return Out;
}

std::string spe::printFunction(const IRFunction &F) {
  std::string Out = "function " + F.Name + " (params " +
                    std::to_string(F.NumParams) + ", slots " +
                    std::to_string(F.Slots.size()) + ")\n";
  for (size_t B = 0; B < F.Blocks.size(); ++B) {
    Out += "bb" + std::to_string(B) + ":\n";
    for (const IRInstr &I : F.Blocks[B].Instrs)
      Out += "  " + instrToString(F, I) + "\n";
  }
  return Out;
}

std::string spe::printModule(const IRModule &M) {
  std::string Out;
  for (const IRGlobal &G : M.Globals)
    Out += "global " + G.Name + " : " + G.Ty->toString() + " (" +
           std::to_string(G.InitBytes.size()) + " bytes)\n";
  for (const IRFunction &F : M.Functions)
    Out += printFunction(F);
  return Out;
}

/// Checks \p F; \p Defined is scratch, re-initialized here.
/// The message names the function and block only when a check fails.
static std::string verifyFunction(const IRModule &M, const IRFunction &F,
                                  std::vector<bool> &Defined) {
  auto Fail = [&](size_t BI, const char *Problem) {
    return "function '" + F.Name + "': bb" + std::to_string(BI) + ": " +
           Problem;
  };
  if (F.Blocks.empty())
    return "function '" + F.Name + "': no blocks";
  // Defined registers, dense over the ones F defines: a use past the
  // largest Dst is a use of an undefined register.
  Defined.assign(regBound(F), false);
  for (const IRBlock &B : F.Blocks)
    for (const IRInstr &I : B.Instrs)
      if (I.HasDst)
        Defined[I.Dst] = true;
  auto IsDefined = [&](const IROperand &O) {
    return !O.isReg() || (O.Reg < Defined.size() && Defined[O.Reg]);
  };
  for (size_t BI = 0; BI < F.Blocks.size(); ++BI) {
    const IRBlock &B = F.Blocks[BI];
    if (B.Instrs.empty())
      return Fail(BI, "empty block");
    for (size_t II = 0; II < B.Instrs.size(); ++II) {
      const IRInstr &I = B.Instrs[II];
      bool IsLast = II + 1 == B.Instrs.size();
      if (I.isTerminator() != IsLast)
        return Fail(BI, "terminator placement broken");
      if (!IsDefined(I.A) || !IsDefined(I.B))
        return Fail(BI, "use of undefined register");
      if (uint64_t(I.ArgBegin) + I.ArgCount > F.Operands.size())
        return Fail(BI, "argument range outside the operand pool");
      for (const IROperand &O : F.args(I))
        if (!IsDefined(O))
          return Fail(BI, "use of undefined register in args");
      if (I.Op == IROp::Printf && I.FmtIndex >= F.Formats.size())
        return Fail(BI, "format index out of range");
      if (I.Op == IROp::AddrSlot &&
          (I.SlotIndex < 0 ||
           static_cast<size_t>(I.SlotIndex) >= F.Slots.size()))
        return Fail(BI, "slot index out of range");
      if (I.Op == IROp::AddrGlobal &&
          (I.GlobalIndex < 0 ||
           static_cast<size_t>(I.GlobalIndex) >= M.Globals.size()))
        return Fail(BI, "global index out of range");
      if (I.Op == IROp::Call &&
          (I.CalleeIndex < 0 ||
           static_cast<size_t>(I.CalleeIndex) >= M.Functions.size()))
        return Fail(BI, "callee index out of range");
      if ((I.Op == IROp::Br || I.Op == IROp::CondBr) &&
          (I.Succ0 >= F.Blocks.size() ||
           (I.Op == IROp::CondBr && I.Succ1 >= F.Blocks.size())))
        return Fail(BI, "successor out of range");
    }
  }
  return "";
}

size_t spe::regBound(const IRFunction &F) {
  size_t Bound = 0;
  for (const IRBlock &B : F.Blocks)
    for (const IRInstr &I : B.Instrs)
      if (I.HasDst && I.Dst >= Bound)
        Bound = size_t(I.Dst) + 1;
  return Bound;
}

std::string spe::verifyModule(const IRModule &M) {
  ScratchLease<std::vector<bool>> Defined;
  for (const IRFunction &F : M.Functions) {
    std::string Err = verifyFunction(M, F, *Defined);
    if (!Err.empty())
      return Err;
  }
  return "";
}
