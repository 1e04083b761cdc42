//===- compiler/IR.h - MiniCC three-address intermediate form ------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intermediate representation of MiniCC, the optimizing mini-C compiler
/// that stands in for GCC/Clang in the paper's experiments. Functions are
/// CFGs of basic blocks holding three-address instructions over
/// single-assignment virtual registers; local variables live in stack slots
/// accessed via Load/Store (the slot-propagation pass then removes most of
/// the traffic). The representation is deliberately simple but rich enough
/// that the optimization passes perform the transformations the paper's
/// motivating examples exercise (constant propagation, dead code
/// elimination, CSE, loop-invariant code motion).
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMPILER_IR_H
#define SPE_COMPILER_IR_H

#include "lang/AST.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

namespace spe {

/// An operand: nothing, an immediate constant, or a virtual register.
struct IROperand {
  enum class Kind : uint8_t { None, Const, Reg };
  /// Value type (integer or pointer).
  const Type *Ty = nullptr;
  /// Immediate payload (normalized to the type's width).
  uint64_t Imm = 0;
  /// Virtual register number.
  unsigned Reg = 0;
  Kind K = Kind::None;

  static IROperand none() { return IROperand{}; }
  static IROperand constant(uint64_t Imm, const Type *Ty) {
    IROperand O;
    O.K = Kind::Const;
    O.Imm = Imm;
    O.Ty = Ty;
    return O;
  }
  static IROperand reg(unsigned Reg, const Type *Ty) {
    IROperand O;
    O.K = Kind::Reg;
    O.Reg = Reg;
    O.Ty = Ty;
    return O;
  }
  bool isConst() const { return K == Kind::Const; }
  bool isReg() const { return K == Kind::Reg; }
  bool isNone() const { return K == Kind::None; }
};

/// Instruction opcodes.
enum class IROp : uint8_t {
  Const,     ///< Dst = Imm(A).
  Copy,      ///< Dst = A.
  Bin,       ///< Dst = A <BinOp> B (integer arithmetic/comparison).
  Neg,       ///< Dst = -A.
  BitNot,    ///< Dst = ~A.
  Not,       ///< Dst = !A (scalar to 0/1).
  AddrSlot,  ///< Dst = &slot[SlotIndex].
  AddrGlobal,///< Dst = &global[GlobalIndex].
  PtrAdd,    ///< Dst = A + B * Scale (B integer element count).
  PtrDiff,   ///< Dst = (A - B) / Scale.
  Load,      ///< Dst = *(A) with type Ty.
  Store,     ///< *(A) = B.
  Memcpy,    ///< copy Size bytes from B to A.
  Memset,    ///< zero Size bytes at A.
  Call,      ///< Dst = call Functions[CalleeIndex](args).
  Printf,    ///< printf(format, args).
  Input,     ///< Dst = spe_input(): next stdin sweep integer (side effect:
             ///< advances the input cursor, so never treated as pure).
  Ret,       ///< return A (A may be None for void/fall-off).
  Br,        ///< unconditional branch to Succ0.
  CondBr,    ///< branch to Succ0 if A is nonzero else Succ1.
  Unreachable,///< control never reaches here.
};

/// One three-address instruction. It is trivially copyable and holds no
/// buffer of its own: a Call's or Printf's operands lie in its function's
/// operand pool and a Printf's format in its function's format table
/// (IRFunction::args, IRFunction::format). So copying or compacting a
/// block, a function or a module moves instructions as bytes.
struct IRInstr {
  /// Result type.
  const Type *Ty = nullptr;
  IROperand A;
  IROperand B;
  /// PtrAdd/PtrDiff element size in bytes.
  uint64_t Scale = 1;
  /// Memcpy/Memset byte count.
  uint64_t Size = 0;
  /// Result register (meaningful when HasDst).
  unsigned Dst = 0;
  unsigned Succ0 = 0;
  unsigned Succ1 = 0;
  int SlotIndex = -1;
  int GlobalIndex = -1;
  int CalleeIndex = -1;
  /// Call and Printf: the operands are the function's
  /// Operands[ArgBegin, ArgBegin + ArgCount).
  unsigned ArgBegin = 0;
  unsigned ArgCount = 0;
  /// Printf: the format is the function's Formats[FmtIndex].
  unsigned FmtIndex = 0;
  BinaryOp Bin = BinaryOp::Add;
  IROp Op = IROp::Const;
  bool HasDst = false;

  bool isTerminator() const {
    return Op == IROp::Ret || Op == IROp::Br || Op == IROp::CondBr ||
           Op == IROp::Unreachable;
  }
  /// True when the instruction can be deleted if its result is unused.
  bool isPure() const {
    switch (Op) {
    case IROp::Const:
    case IROp::Copy:
    case IROp::Bin:
    case IROp::Neg:
    case IROp::BitNot:
    case IROp::Not:
    case IROp::AddrSlot:
    case IROp::AddrGlobal:
    case IROp::PtrAdd:
    case IROp::PtrDiff:
    case IROp::Load:
      return true;
    default:
      return false;
    }
  }
};

static_assert(std::is_trivially_copyable_v<IRInstr>,
              "instructions are copied and compacted as bytes");
static_assert(sizeof(IRInstr) <= 128, "an instruction fits in 128 bytes");

/// A Call's or Printf's operands: a range of its function's operand pool.
template <class T> struct IRArgRange {
  T *First = nullptr;
  T *Last = nullptr;

  T *begin() const { return First; }
  T *end() const { return Last; }
  size_t size() const { return static_cast<size_t>(Last - First); }
  T &operator[](size_t I) const { return First[I]; }
};

/// A basic block: straight-line instructions ending in one terminator.
struct IRBlock {
  std::vector<IRInstr> Instrs;
};

/// A stack slot backing one local variable (parameters come first).
struct IRSlot {
  std::string Name;
  const Type *Ty = nullptr;
  uint64_t Size = 0;
  /// Conservative: address observed escaping (via AddrSlot feeding anything
  /// other than a direct Load/Store). Set by IRGen.
  bool AddressTaken = false;
};

/// A compiled function. Besides its blocks it owns the operand pool and
/// the format table its Call and Printf instructions index, so every
/// instruction of the function, wherever a pass moves it in the function,
/// keeps its operands and format.
struct IRFunction {
  std::string Name;
  const Type *RetTy = nullptr;
  unsigned NumParams = 0;
  std::vector<IRSlot> Slots;
  std::vector<IRBlock> Blocks; ///< Blocks[0] is the entry.
  /// The operand pool: each Call's and Printf's operands, one contiguous
  /// range per instruction.
  std::vector<IROperand> Operands;
  /// Each Printf's format, by FmtIndex.
  std::vector<std::string> Formats;
  unsigned NumRegs = 0;

  unsigned newReg() { return NumRegs++; }

  /// The operands of \p I, an instruction of this function whose range
  /// lies inside the pool (verifyModule checks it).
  IRArgRange<const IROperand> args(const IRInstr &I) const {
    return {Operands.data() + I.ArgBegin,
            Operands.data() + I.ArgBegin + I.ArgCount};
  }
  IRArgRange<IROperand> args(const IRInstr &I) {
    return {Operands.data() + I.ArgBegin,
            Operands.data() + I.ArgBegin + I.ArgCount};
  }
  /// Makes the \p Count operands at \p Args \p I's, appending them to the
  /// pool.
  void setArgs(IRInstr &I, const IROperand *Args, size_t Count) {
    I.ArgBegin = static_cast<unsigned>(Operands.size());
    I.ArgCount = static_cast<unsigned>(Count);
    Operands.insert(Operands.end(), Args, Args + Count);
  }
  /// Printf \p I's format.
  const std::string &format(const IRInstr &I) const {
    return Formats[I.FmtIndex];
  }
  /// Makes \p Fmt Printf \p I's format, appending it to the table.
  void setFormat(IRInstr &I, std::string Fmt) {
    I.FmtIndex = static_cast<unsigned>(Formats.size());
    Formats.push_back(std::move(Fmt));
  }
};

/// A global variable image.
struct IRGlobal {
  std::string Name;
  const Type *Ty = nullptr;
  std::vector<uint8_t> InitBytes; ///< Zero-filled to the full size.
};

/// A whole compiled program.
struct IRModule {
  std::vector<IRGlobal> Globals;
  std::vector<IRFunction> Functions;
  int MainIndex = -1;

  int functionIndex(const std::string &Name) const {
    for (size_t I = 0; I < Functions.size(); ++I)
      if (Functions[I].Name == Name)
        return static_cast<int>(I);
    return -1;
  }
};

/// The type an integer Bin instruction computes in: operand A's for a
/// comparison, which carries the operands' common type, else I.Ty.
inline const Type *binComputationType(const IRInstr &I) {
  return isComparisonOp(I.Bin) && I.A.Ty ? I.A.Ty : I.Ty;
}

/// Why an integer Bin instruction produced no value.
enum class BinFault { None, DivisionByZero, DivisionOverflow, NotIntegerOp };

/// MiniCC's integer Bin semantics, the one body both the VM and the
/// constant folder evaluate: \p I's operator on the operand words \p UL and
/// \p UR, wrapping in two's complement in binComputationType(I), with
/// shift counts taken modulo the width. A non-integer computation type
/// computes as a signed 64-bit one. On success \p Out is the result
/// normalized to I.Ty, or 0/1 for a comparison, which also hands
/// \p OnCompare(L, R, Result) its operands as exact values of the
/// computation type.
template <class CompareFn>
inline BinFault evalIntBin(const IRInstr &I, uint64_t UL, uint64_t UR,
                           uint64_t &Out, CompareFn &&OnCompare) {
  const Type *Ty = binComputationType(I);
  unsigned Width = Ty->isInteger() ? Ty->intWidth() : 64;
  bool Signed = Ty->isInteger() ? Ty->isSigned() : true;
  int64_t SL = static_cast<int64_t>(UL), SR = static_cast<int64_t>(UR);
  uint64_t Raw = 0;
  switch (I.Bin) {
  case BinaryOp::Add:
    Raw = UL + UR;
    break;
  case BinaryOp::Sub:
    Raw = UL - UR;
    break;
  case BinaryOp::Mul:
    Raw = UL * UR;
    break;
  case BinaryOp::Div:
  case BinaryOp::Rem:
    if (UR == 0)
      return BinFault::DivisionByZero;
    if (Signed && SL == INT64_MIN && SR == -1)
      return BinFault::DivisionOverflow;
    if (Signed)
      Raw = static_cast<uint64_t>(I.Bin == BinaryOp::Div ? SL / SR : SL % SR);
    else
      Raw = I.Bin == BinaryOp::Div ? UL / UR : UL % UR;
    break;
  case BinaryOp::Shl:
    Raw = UL << (UR & (Width - 1));
    break;
  case BinaryOp::Shr:
    Raw = Signed ? static_cast<uint64_t>(SL >> (UR & (Width - 1)))
                 : normalizeIntValue(Ty, UL) >> (UR & (Width - 1));
    break;
  case BinaryOp::BitAnd:
    Raw = UL & UR;
    break;
  case BinaryOp::BitXor:
    Raw = UL ^ UR;
    break;
  case BinaryOp::BitOr:
    Raw = UL | UR;
    break;
  case BinaryOp::LT:
  case BinaryOp::GT:
  case BinaryOp::LE:
  case BinaryOp::GE:
  case BinaryOp::EQ:
  case BinaryOp::NE: {
    uint64_t NL = normalizeIntValue(Ty, UL), NR = normalizeIntValue(Ty, UR);
    int64_t TSL = static_cast<int64_t>(NL), TSR = static_cast<int64_t>(NR);
    bool Res;
    switch (I.Bin) {
    case BinaryOp::LT:
      Res = Signed ? TSL < TSR : NL < NR;
      break;
    case BinaryOp::GT:
      Res = Signed ? TSL > TSR : NL > NR;
      break;
    case BinaryOp::LE:
      Res = Signed ? TSL <= TSR : NL <= NR;
      break;
    case BinaryOp::GE:
      Res = Signed ? TSL >= TSR : NL >= NR;
      break;
    case BinaryOp::EQ:
      Res = NL == NR;
      break;
    default:
      Res = NL != NR;
      break;
    }
    OnCompare(Signed ? __int128(TSL) : __int128(NL),
              Signed ? __int128(TSR) : __int128(NR), Res);
    Out = Res ? 1 : 0;
    return BinFault::None;
  }
  default:
    return BinFault::NotIntegerOp;
  }
  Out = normalizeIntValue(I.Ty && I.Ty->isInteger() ? I.Ty : Ty, Raw);
  return BinFault::None;
}

/// Renders the module as readable text (for tests and debugging).
std::string printModule(const IRModule &M);
/// Renders one function.
std::string printFunction(const IRFunction &F);

/// One past the largest register \p F defines, 0 when it defines none: the
/// size of a dense table over F's registers. Tables are sized by it, not
/// by NumRegs, which is IRGen's counter and which hand-built IR need not
/// keep; an operand at or past the bound names no definition.
size_t regBound(const IRFunction &F);

/// Structural sanity checks: every block ends in exactly one terminator,
/// successors are in range, register uses are defined somewhere, slot and
/// global indices are valid. \returns an empty string when well-formed, else
/// a description of the first problem.
std::string verifyModule(const IRModule &M);

} // namespace spe

#endif // SPE_COMPILER_IR_H
