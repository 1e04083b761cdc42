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
#include <vector>

namespace spe {

/// An operand: nothing, an immediate constant, or a virtual register.
struct IROperand {
  enum class Kind { None, Const, Reg } K = Kind::None;
  /// Immediate payload (normalized to the type's width).
  uint64_t Imm = 0;
  /// Virtual register number.
  unsigned Reg = 0;
  /// Value type (integer or pointer).
  const Type *Ty = nullptr;

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
enum class IROp {
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
  Call,      ///< Dst = call Functions[CalleeIndex](Args).
  Printf,    ///< printf(Fmt, Args).
  Input,     ///< Dst = spe_input(): next stdin sweep integer (side effect:
             ///< advances the input cursor, so never treated as pure).
  Ret,       ///< return A (A may be None for void/fall-off).
  Br,        ///< unconditional branch to Succ0.
  CondBr,    ///< branch to Succ0 if A is nonzero else Succ1.
  Unreachable,///< control never reaches here.
};

/// One three-address instruction.
struct IRInstr {
  IROp Op;
  /// Result register (meaningful when HasDst).
  unsigned Dst = 0;
  bool HasDst = false;
  /// Result type.
  const Type *Ty = nullptr;
  IROperand A;
  IROperand B;
  BinaryOp Bin = BinaryOp::Add;
  /// PtrAdd/PtrDiff element size in bytes.
  uint64_t Scale = 1;
  /// Memcpy byte count.
  uint64_t Size = 0;
  int SlotIndex = -1;
  int GlobalIndex = -1;
  int CalleeIndex = -1;
  std::vector<IROperand> Args;
  std::string Fmt;
  unsigned Succ0 = 0;
  unsigned Succ1 = 0;

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

/// A compiled function.
struct IRFunction {
  std::string Name;
  const Type *RetTy = nullptr;
  unsigned NumParams = 0;
  std::vector<IRSlot> Slots;
  std::vector<IRBlock> Blocks; ///< Blocks[0] is the entry.
  unsigned NumRegs = 0;

  unsigned newReg() { return NumRegs++; }
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
