//===- compiler/Passes.cpp - MiniCC optimization passes ------------------===//

#include "compiler/Passes.h"

#include <algorithm>

using namespace spe;

namespace {

void cov(CoverageRegistry *Cov, const char *Point) {
  if (Cov)
    Cov->hit(Point);
}

/// Coverage point suffixed with the operator spelling, so each operator is
/// its own "line" within the rule family (Figure 9 granularity).
void covOp(CoverageRegistry *Cov, const char *Family, BinaryOp Op) {
  if (Cov)
    Cov->hit(std::string(Family) + "." + binaryOpSpelling(Op));
}

/// Turns \p I into a fresh \p Op instruction in place: every field as a
/// new IRInstr has it. Copying from a blank keeps I's Args and Fmt
/// buffers, where assigning a temporary would free them.
void reset(IRInstr &I, IROp Op) {
  static const IRInstr Blank{};
  I = Blank;
  I.Op = Op;
}

/// Rewrites an instruction into `Dst = Const Imm`.
void makeConst(IRInstr &I, uint64_t Imm) {
  unsigned Dst = I.Dst;
  const Type *Ty = I.Ty;
  reset(I, IROp::Const);
  I.HasDst = true;
  I.Dst = Dst;
  I.Ty = Ty;
  I.A = IROperand::constant(Imm, Ty);
}

/// Rewrites an instruction into `Dst = Copy Src`.
void makeCopy(IRInstr &I, IROperand Src) {
  unsigned Dst = I.Dst;
  const Type *Ty = I.Ty;
  reset(I, IROp::Copy);
  I.HasDst = true;
  I.Dst = Dst;
  I.Ty = Ty;
  I.A = Src;
}

/// Rewrites a terminator into `br Succ`.
void makeBr(IRInstr &I, unsigned Succ) {
  reset(I, IROp::Br);
  I.Succ0 = Succ;
}

/// Erases in place every element of \p V that \p Drop(element, index)
/// picks, keeping the others' order. Drop sees each element once, in
/// order, before anything moves, and may move out of an element it picks.
template <typename T, typename DropFn>
void eraseInPlace(std::vector<T> &V, DropFn Drop) {
  size_t Kept = 0;
  for (size_t I = 0; I < V.size(); ++I) {
    if (Drop(V[I], I))
      continue;
    if (Kept != I)
      V[Kept] = std::move(V[I]);
    ++Kept;
  }
  V.erase(V.begin() + static_cast<long>(Kept), V.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

bool spe::foldConstants(IRFunction &F, CoverageRegistry *Cov) {
  bool Changed = false;
  for (IRBlock &B : F.Blocks) {
    for (IRInstr &I : B.Instrs) {
      switch (I.Op) {
      case IROp::Bin: {
        // Folding keeps what runs: a pointer comparison, or a division the
        // VM traps on, stays.
        const Type *Ty = binComputationType(I);
        auto Ignore = [](__int128, __int128, bool) {};
        uint64_t Out;
        if (!I.A.isConst() || !I.B.isConst() || !Ty || !Ty->isInteger() ||
            (I.A.Ty && I.A.Ty->isPointer()) ||
            evalIntBin(I, I.A.Imm, I.B.Imm, Out, Ignore) != BinFault::None)
          break;
        BinaryOp FoldedOp = I.Bin;
        makeConst(I, Out);
        covOp(Cov, "constfold.bin", FoldedOp);
        Changed = true;
        break;
      }
      case IROp::Neg:
        if (I.A.isConst() && I.Ty && I.Ty->isInteger()) {
          makeConst(I, normalizeIntValue(I.Ty, 0 - I.A.Imm));
          cov(Cov, "constfold.neg");
          Changed = true;
        }
        break;
      case IROp::BitNot:
        if (I.A.isConst() && I.Ty && I.Ty->isInteger()) {
          makeConst(I, normalizeIntValue(I.Ty, ~I.A.Imm));
          cov(Cov, "constfold.bitnot");
          Changed = true;
        }
        break;
      case IROp::Not:
        if (I.A.isConst()) {
          makeConst(I, I.A.Imm == 0 ? 1 : 0);
          cov(Cov, "constfold.not");
          Changed = true;
        }
        break;
      case IROp::Copy:
        if (I.A.isConst() && I.Ty && I.Ty->isInteger() && I.A.Ty &&
            I.A.Ty->isInteger()) {
          makeConst(I, normalizeIntValue(I.Ty, I.A.Imm));
          cov(Cov, "constfold.convert");
          Changed = true;
        }
        break;
      case IROp::CondBr:
        if (I.A.isConst()) {
          makeBr(I, I.A.Imm != 0 ? I.Succ0 : I.Succ1);
          cov(Cov, "constfold.branch");
          Changed = true;
        }
        break;
      default:
        break;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Copy / constant propagation over single-assignment registers
//===----------------------------------------------------------------------===//

bool spe::propagateCopies(IRFunction &F, CoverageRegistry *Cov) {
  // Registers are single-assignment, so a Copy or Const definition may be
  // substituted into every use. Defs is dense up to the largest register
  // such a definition names; None marks a register without one.
  std::vector<IROperand> Defs;
  auto Define = [&](unsigned Reg, const IROperand &Value) {
    if (Reg >= Defs.size())
      Defs.resize(size_t(Reg) + 1);
    Defs[Reg] = Value;
  };
  for (IRBlock &B : F.Blocks) {
    for (IRInstr &I : B.Instrs) {
      if (I.Op == IROp::Const)
        Define(I.Dst, IROperand::constant(I.A.Imm, I.Ty));
      else if (I.Op == IROp::Copy && I.Ty == I.A.Ty)
        Define(I.Dst, I.A);
    }
  }
  if (Defs.empty())
    return false;
  auto DefOf = [&](const IROperand &O) {
    return O.isReg() && O.Reg < Defs.size() ? Defs[O.Reg] : IROperand::none();
  };
  auto Resolve = [&](IROperand O) {
    unsigned Guard = 0;
    for (IROperand Next = DefOf(O); !Next.isNone() && Guard++ < 64;
         Next = DefOf(O))
      O = Next;
    return O;
  };
  bool Changed = false;
  for (IRBlock &B : F.Blocks) {
    for (IRInstr &I : B.Instrs) {
      auto Rewrite = [&](IROperand &O) {
        if (DefOf(O).isNone())
          return;
        IROperand R = Resolve(O);
        if (R.isReg() && R.Reg == O.Reg)
          return;
        O = R;
        Changed = true;
        cov(Cov, "copyprop.replaced");
      };
      Rewrite(I.A);
      Rewrite(I.B);
      for (IROperand &O : I.Args)
        Rewrite(O);
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Dead code elimination
//===----------------------------------------------------------------------===//

bool spe::eliminateDeadCode(IRFunction &F, CoverageRegistry *Cov) {
  // Used is dense over the registers F defines: a use of any other
  // register keeps no definition alive.
  std::vector<bool> Used;
  const size_t Bound = regBound(F);
  bool ChangedAny = false;
  for (;;) {
    Used.assign(Bound, false);
    auto Use = [&](const IROperand &O) {
      if (O.isReg() && O.Reg < Bound)
        Used[O.Reg] = true;
    };
    for (const IRBlock &B : F.Blocks) {
      for (const IRInstr &I : B.Instrs) {
        Use(I.A);
        Use(I.B);
        for (const IROperand &O : I.Args)
          Use(O);
      }
    }
    bool Changed = false;
    for (IRBlock &B : F.Blocks)
      eraseInPlace(B.Instrs, [&](const IRInstr &I, size_t) {
        if (!I.isPure() || !I.HasDst || Used[I.Dst])
          return false;
        Changed = true;
        cov(Cov, "dce.removed");
        return true;
      });
    if (!Changed)
      return ChangedAny;
    ChangedAny = true;
  }
}

//===----------------------------------------------------------------------===//
// CFG simplification
//===----------------------------------------------------------------------===//

bool spe::simplifyControlFlow(IRFunction &F, CoverageRegistry *Cov) {
  bool Changed = false;

  // CondBr with identical arms becomes an unconditional branch.
  for (IRBlock &B : F.Blocks) {
    IRInstr &Term = B.Instrs.back();
    if (Term.Op == IROp::CondBr && Term.Succ0 == Term.Succ1) {
      makeBr(Term, Term.Succ0);
      cov(Cov, "simplifycfg.samearms");
      Changed = true;
    }
  }

  // Thread forwarder blocks that contain only `br`.
  std::vector<int> Forward(F.Blocks.size(), -1);
  for (size_t BI = 0; BI < F.Blocks.size(); ++BI) {
    const IRBlock &B = F.Blocks[BI];
    if (B.Instrs.size() == 1 && B.Instrs[0].Op == IROp::Br &&
        B.Instrs[0].Succ0 != BI)
      Forward[BI] = static_cast<int>(B.Instrs[0].Succ0);
  }
  // A chain of forwarders may close into a cycle: each walk stops at the
  // first block it has already passed, which SeenBy marks with the walk's
  // number.
  std::vector<unsigned> SeenBy(F.Blocks.size(), 0);
  unsigned Walk = 0;
  auto Thread = [&](unsigned Succ) {
    ++Walk;
    while (Forward[Succ] >= 0 && SeenBy[Succ] != Walk) {
      SeenBy[Succ] = Walk;
      Succ = static_cast<unsigned>(Forward[Succ]);
    }
    return Succ;
  };
  for (IRBlock &B : F.Blocks) {
    IRInstr &Term = B.Instrs.back();
    if (Term.Op == IROp::Br) {
      unsigned T = Thread(Term.Succ0);
      if (T != Term.Succ0) {
        Term.Succ0 = T;
        cov(Cov, "simplifycfg.thread");
        Changed = true;
      }
    } else if (Term.Op == IROp::CondBr) {
      unsigned T0 = Thread(Term.Succ0), T1 = Thread(Term.Succ1);
      if (T0 != Term.Succ0 || T1 != Term.Succ1) {
        Term.Succ0 = T0;
        Term.Succ1 = T1;
        cov(Cov, "simplifycfg.thread");
        Changed = true;
      }
    }
  }

  // Remove unreachable blocks.
  std::vector<bool> Reachable(F.Blocks.size(), false);
  std::vector<unsigned> Work{0};
  Reachable[0] = true;
  while (!Work.empty()) {
    unsigned B = Work.back();
    Work.pop_back();
    const IRInstr &Term = F.Blocks[B].Instrs.back();
    if (Term.Op == IROp::Br || Term.Op == IROp::CondBr) {
      if (!Reachable[Term.Succ0]) {
        Reachable[Term.Succ0] = true;
        Work.push_back(Term.Succ0);
      }
      if (Term.Op == IROp::CondBr && !Reachable[Term.Succ1]) {
        Reachable[Term.Succ1] = true;
        Work.push_back(Term.Succ1);
      }
    }
  }
  bool AnyUnreachable = false;
  for (bool R : Reachable)
    if (!R)
      AnyUnreachable = true;
  if (AnyUnreachable) {
    std::vector<unsigned> Remap(F.Blocks.size(), 0);
    unsigned Kept = 0;
    for (size_t BI = 0; BI < F.Blocks.size(); ++BI)
      if (Reachable[BI])
        Remap[BI] = Kept++;
    eraseInPlace(F.Blocks,
                 [&](const IRBlock &, size_t BI) { return !Reachable[BI]; });
    for (IRBlock &B : F.Blocks) {
      IRInstr &Term = B.Instrs.back();
      if (Term.Op == IROp::Br || Term.Op == IROp::CondBr) {
        Term.Succ0 = Remap[Term.Succ0];
        if (Term.Op == IROp::CondBr)
          Term.Succ1 = Remap[Term.Succ1];
      }
    }
    cov(Cov, "simplifycfg.unreachable");
    Changed = true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Store-to-load forwarding over stack slots
//===----------------------------------------------------------------------===//

bool spe::forwardStores(IRFunction &F, CoverageRegistry *Cov) {
  // Each AddrSlot result register's slot, dense up to the largest such
  // register; -1 marks any other register.
  std::vector<int> AddrToSlot;
  for (const IRBlock &B : F.Blocks)
    for (const IRInstr &I : B.Instrs)
      if (I.Op == IROp::AddrSlot) {
        if (I.Dst >= AddrToSlot.size())
          AddrToSlot.resize(size_t(I.Dst) + 1, -1);
        AddrToSlot[I.Dst] = I.SlotIndex;
      }

  auto SlotOf = [&](const IROperand &O) -> int {
    if (!O.isReg() || O.Reg >= AddrToSlot.size() || AddrToSlot[O.Reg] < 0)
      return -1;
    int Slot = AddrToSlot[O.Reg];
    // Only slots whose address never escapes are tracked.
    if (F.Slots[Slot].AddressTaken)
      return -1;
    return Slot;
  };

  // Per block and slot: the known value (None when unknown) and the index
  // of a store not yet observed (NoStore when there is none).
  constexpr size_t NoStore = ~size_t(0);
  std::vector<IROperand> Known;
  std::vector<size_t> PendingStore;
  std::vector<size_t> Dead;
  bool Changed = false;
  for (IRBlock &B : F.Blocks) {
    Known.assign(F.Slots.size(), IROperand::none());
    PendingStore.assign(F.Slots.size(), NoStore);
    Dead.clear();
    for (size_t II = 0; II < B.Instrs.size(); ++II) {
      IRInstr &I = B.Instrs[II];
      switch (I.Op) {
      case IROp::Store: {
        int Slot = SlotOf(I.A);
        if (Slot < 0)
          break;
        if (PendingStore[Slot] != NoStore) {
          // Overwritten without an intervening read: dead store.
          Dead.push_back(PendingStore[Slot]);
          cov(Cov, "forward.deadstore");
          Changed = true;
        }
        Known[Slot] = I.B;
        PendingStore[Slot] = II;
        break;
      }
      case IROp::Load: {
        int Slot = SlotOf(I.A);
        if (Slot < 0)
          break;
        if (!Known[Slot].isNone()) {
          makeCopy(I, Known[Slot]);
          cov(Cov, "forward.load");
          Changed = true;
        } else {
          // Remember the loaded value for load-to-load forwarding.
          Known[Slot] = IROperand::reg(I.Dst, I.Ty);
          cov(Cov, "forward.record");
        }
        PendingStore[Slot] = NoStore;
        break;
      }
      case IROp::Memset:
      case IROp::Memcpy: {
        int Slot = SlotOf(I.A);
        if (Slot >= 0) {
          Known[Slot] = IROperand::none();
          PendingStore[Slot] = NoStore;
        }
        break;
      }
      default:
        break;
      }
    }
    if (Dead.empty())
      continue;
    std::sort(Dead.begin(), Dead.end());
    size_t NextDead = 0;
    eraseInPlace(B.Instrs, [&](const IRInstr &, size_t II) {
      if (NextDead == Dead.size() || Dead[NextDead] != II)
        return false;
      ++NextDead;
      return true;
    });
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Algebraic peepholes
//===----------------------------------------------------------------------===//

bool spe::simplifyAlgebra(IRFunction &F, CoverageRegistry *Cov) {
  bool Changed = false;
  for (IRBlock &B : F.Blocks) {
    for (IRInstr &I : B.Instrs) {
      if (I.Op != IROp::Bin || !I.Ty || !I.Ty->isInteger())
        continue;
      BinaryOp Op = I.Bin;
      bool SameReg = I.A.isReg() && I.B.isReg() && I.A.Reg == I.B.Reg;
      if (SameReg) {
        switch (I.Bin) {
        case BinaryOp::Sub:
        case BinaryOp::BitXor:
          makeConst(I, 0);
          covOp(Cov, "algebra.selfcancel", Op);
          Changed = true;
          continue;
        case BinaryOp::BitAnd:
        case BinaryOp::BitOr:
          makeCopy(I, I.A);
          covOp(Cov, "algebra.selfidem", Op);
          Changed = true;
          continue;
        case BinaryOp::EQ:
        case BinaryOp::LE:
        case BinaryOp::GE:
          makeConst(I, 1);
          covOp(Cov, "algebra.selfcompare", Op);
          Changed = true;
          continue;
        case BinaryOp::NE:
        case BinaryOp::LT:
        case BinaryOp::GT:
          makeConst(I, 0);
          covOp(Cov, "algebra.selfcompare", Op);
          Changed = true;
          continue;
        default:
          break;
        }
      }
      auto IsConst = [](const IROperand &O, uint64_t V) {
        return O.isConst() && O.Ty && O.Ty->isInteger() &&
               normalizeIntValue(O.Ty, O.Imm) == normalizeIntValue(O.Ty, V);
      };
      // Identities with a constant on either side.
      if ((I.Bin == BinaryOp::Add && IsConst(I.B, 0)) ||
          (I.Bin == BinaryOp::Sub && IsConst(I.B, 0)) ||
          (I.Bin == BinaryOp::Mul && IsConst(I.B, 1)) ||
          (I.Bin == BinaryOp::Div && IsConst(I.B, 1)) ||
          (I.Bin == BinaryOp::Shl && IsConst(I.B, 0)) ||
          (I.Bin == BinaryOp::Shr && IsConst(I.B, 0)) ||
          (I.Bin == BinaryOp::BitOr && IsConst(I.B, 0)) ||
          (I.Bin == BinaryOp::BitXor && IsConst(I.B, 0))) {
        makeCopy(I, I.A);
        covOp(Cov, "algebra.rightident", Op);
        Changed = true;
        continue;
      }
      if ((I.Bin == BinaryOp::Add && IsConst(I.A, 0)) ||
          (I.Bin == BinaryOp::Mul && IsConst(I.A, 1)) ||
          (I.Bin == BinaryOp::BitOr && IsConst(I.A, 0)) ||
          (I.Bin == BinaryOp::BitXor && IsConst(I.A, 0))) {
        makeCopy(I, I.B);
        covOp(Cov, "algebra.leftident", Op);
        Changed = true;
        continue;
      }
      if ((I.Bin == BinaryOp::Mul && (IsConst(I.A, 0) || IsConst(I.B, 0))) ||
          (I.Bin == BinaryOp::BitAnd &&
           (IsConst(I.A, 0) || IsConst(I.B, 0))) ||
          (I.Bin == BinaryOp::Rem && IsConst(I.B, 1))) {
        makeConst(I, 0);
        covOp(Cov, "algebra.zero", Op);
        Changed = true;
        continue;
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Loop-invariant code motion
//===----------------------------------------------------------------------===//

namespace {

/// Fills \p Preds with each block's predecessors in ascending order,
/// reusing its vectors' buffers.
void collectPreds(const IRFunction &F,
                  std::vector<std::vector<unsigned>> &Preds) {
  Preds.resize(F.Blocks.size());
  for (std::vector<unsigned> &P : Preds)
    P.clear();
  for (unsigned B = 0; B < F.Blocks.size(); ++B) {
    const IRInstr &Term = F.Blocks[B].Instrs.back();
    if (Term.Op == IROp::Br || Term.Op == IROp::CondBr) {
      Preds[Term.Succ0].push_back(B);
      if (Term.Op == IROp::CondBr)
        Preds[Term.Succ1].push_back(B);
    }
  }
}

/// Each block's dominator set as one row of a bit matrix.
class Dominators {
public:
  /// Computes the sets with the classic iterative algorithm over the
  /// blocks' predecessors \p Preds.
  explicit Dominators(const std::vector<std::vector<unsigned>> &Preds)
      : Words((Preds.size() + 63) / 64) {
    const size_t N = Preds.size();
    std::vector<uint64_t> All(Words, ~uint64_t(0));
    if (N % 64)
      All.back() = (uint64_t(1) << (N % 64)) - 1;
    for (size_t B = 0; B < N; ++B)
      Bits.insert(Bits.end(), All.begin(), All.end());
    std::fill(row(0), row(0) + Words, 0);
    add(row(0), 0);
    std::vector<uint64_t> NewDom(Words);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned B = 1; B < N; ++B) {
        // An unreachable block keeps the minimal set, itself.
        if (Preds[B].empty())
          std::fill(NewDom.begin(), NewDom.end(), 0);
        else
          NewDom = All;
        for (unsigned P : Preds[B])
          for (size_t W = 0; W < Words; ++W)
            NewDom[W] &= row(P)[W];
        add(NewDom.data(), B);
        if (!std::equal(NewDom.begin(), NewDom.end(), row(B))) {
          std::copy(NewDom.begin(), NewDom.end(), row(B));
          Changed = true;
        }
      }
    }
  }

  /// \returns whether \p D dominates \p B.
  bool dominates(unsigned D, unsigned B) const {
    return Bits[B * Words + D / 64] >> (D % 64) & 1;
  }

private:
  size_t Words;
  std::vector<uint64_t> Bits;

  uint64_t *row(unsigned B) { return Bits.data() + B * Words; }
  static void add(uint64_t *Row, unsigned B) {
    Row[B / 64] |= uint64_t(1) << (B % 64);
  }
};

} // namespace

bool spe::hoistLoopInvariants(IRFunction &F, CoverageRegistry *Cov) {
  if (F.Blocks.size() < 2)
    return false;
  std::vector<std::vector<unsigned>> Preds;
  collectPreds(F, Preds);
  const Dominators Dom(Preds);

  // Find back edges U -> H where H dominates U.
  std::vector<std::pair<unsigned, unsigned>> BackEdges;
  for (unsigned B = 0; B < F.Blocks.size(); ++B) {
    const IRInstr &Term = F.Blocks[B].Instrs.back();
    auto Check = [&](unsigned Succ) {
      if (Succ != 0 && Dom.dominates(Succ, B))
        BackEdges.push_back({B, Succ});
    };
    if (Term.Op == IROp::Br)
      Check(Term.Succ0);
    if (Term.Op == IROp::CondBr) {
      Check(Term.Succ0);
      Check(Term.Succ1);
    }
  }
  if (BackEdges.empty())
    return false;

  bool Changed = false;
  std::vector<bool> InLoop;
  std::vector<unsigned> Work;
  constexpr unsigned NoBlock = ~0u;
  std::vector<unsigned> DefBlock;
  const size_t Bound = regBound(F);
  for (auto [Latch, Header] : BackEdges) {
    // Natural loop: header plus everything reaching the latch without
    // passing through the header. Earlier preheaders are blocks too.
    collectPreds(F, Preds);
    InLoop.assign(F.Blocks.size(), false);
    InLoop[Header] = InLoop[Latch] = true;
    Work.assign(1, Latch);
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      if (B == Header)
        continue;
      for (unsigned P : Preds[B])
        if (!InLoop[P]) {
          InLoop[P] = true;
          Work.push_back(P);
        }
    }

    // Definition site per register, dense over the registers F defines
    // (hoisting moves definitions, it makes none).
    DefBlock.assign(Bound, NoBlock);
    for (unsigned B = 0; B < F.Blocks.size(); ++B)
      for (const IRInstr &I : F.Blocks[B].Instrs)
        if (I.HasDst)
          DefBlock[I.Dst] = B;

    auto IsInvariantOperand = [&](const IROperand &O) {
      if (!O.isReg())
        return true;
      if (O.Reg >= Bound || DefBlock[O.Reg] == NoBlock)
        return false;
      // The preheader, past the loop's blocks, is outside it.
      unsigned Def = DefBlock[O.Reg];
      return Def >= InLoop.size() || !InLoop[Def];
    };
    auto IsHoistable = [&](const IRInstr &I) {
      if (!I.isPure() || I.Op == IROp::Load)
        return false;
      // Division can trap; moving it above the loop guard is unsound.
      if (I.Op == IROp::Bin &&
          (I.Bin == BinaryOp::Div || I.Bin == BinaryOp::Rem))
        return false;
      if (!IsInvariantOperand(I.A) || !IsInvariantOperand(I.B))
        return false;
      for (const IROperand &O : I.Args)
        if (!IsInvariantOperand(O))
          return false;
      return true;
    };

    // Build a preheader: a fresh block branching to the header; all
    // non-loop predecessors of the header are redirected to it.
    std::vector<unsigned> OutsidePreds;
    for (unsigned P : Preds[Header])
      if (!InLoop[P])
        OutsidePreds.push_back(P);
    if (OutsidePreds.empty())
      continue;
    unsigned Preheader = static_cast<unsigned>(F.Blocks.size());
    F.Blocks.emplace_back();
    {
      IRInstr Br;
      Br.Op = IROp::Br;
      Br.Succ0 = Header;
      F.Blocks[Preheader].Instrs.push_back(std::move(Br));
    }
    for (unsigned P : OutsidePreds) {
      IRInstr &Term = F.Blocks[P].Instrs.back();
      if (Term.Succ0 == Header)
        Term.Succ0 = Preheader;
      if (Term.Op == IROp::CondBr && Term.Succ1 == Header)
        Term.Succ1 = Preheader;
    }

    // Hoist to the preheader until fixpoint, visiting the loop's blocks in
    // ascending order (the preheader's instruction order shows it). A
    // block's terminator always stays.
    std::vector<IRInstr> &PH = F.Blocks[Preheader].Instrs;
    bool LocalChanged = true;
    while (LocalChanged) {
      LocalChanged = false;
      for (unsigned B = 0; B < InLoop.size(); ++B) {
        if (!InLoop[B])
          continue;
        const size_t Last = F.Blocks[B].Instrs.size() - 1;
        eraseInPlace(F.Blocks[B].Instrs, [&](IRInstr &I, size_t II) {
          if (II == Last || !I.HasDst || !IsHoistable(I))
            return false;
          DefBlock[I.Dst] = Preheader;
          // Insert before the preheader terminator.
          PH.insert(PH.end() - 1, std::move(I));
          cov(Cov, "licm.hoist");
          Changed = true;
          LocalChanged = true;
          return true;
        });
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Pipeline
//===----------------------------------------------------------------------===//

void spe::registerPassCoverageCatalog(CoverageRegistry &Cov) {
  static const char *Points[] = {
      "constfold.neg",      "constfold.bitnot",        "constfold.not",
      "constfold.convert",  "constfold.branch",        "copyprop.replaced",
      "dce.removed",        "simplifycfg.samearms",    "simplifycfg.thread",
      "simplifycfg.unreachable",                       "forward.deadstore",
      "forward.load",       "forward.record",          "licm.hoist",
      "irgen.function",     "irgen.loop",              "irgen.branch",
      "irgen.call",         "irgen.pointer",           "irgen.struct",
      "irgen.goto",
  };
  for (const char *P : Points)
    Cov.registerPoint(P);

  // Per-operator "lines" within each rule family.
  static const BinaryOp FoldableOps[] = {
      BinaryOp::Add,    BinaryOp::Sub,    BinaryOp::Mul, BinaryOp::Div,
      BinaryOp::Rem,    BinaryOp::Shl,    BinaryOp::Shr, BinaryOp::LT,
      BinaryOp::GT,     BinaryOp::LE,     BinaryOp::GE,  BinaryOp::EQ,
      BinaryOp::NE,     BinaryOp::BitAnd, BinaryOp::BitXor,
      BinaryOp::BitOr,
  };
  auto RegisterFamily = [&Cov](const char *Family,
                               std::initializer_list<BinaryOp> Ops) {
    for (BinaryOp Op : Ops)
      Cov.registerPoint(std::string(Family) + "." + binaryOpSpelling(Op));
  };
  for (BinaryOp Op : FoldableOps) {
    Cov.registerPoint(std::string("constfold.bin.") + binaryOpSpelling(Op));
    Cov.registerPoint(std::string("irgen.bin.") + binaryOpSpelling(Op));
  }
  RegisterFamily("algebra.selfcancel", {BinaryOp::Sub, BinaryOp::BitXor});
  RegisterFamily("algebra.selfidem", {BinaryOp::BitAnd, BinaryOp::BitOr});
  RegisterFamily("algebra.selfcompare",
                 {BinaryOp::EQ, BinaryOp::NE, BinaryOp::LT, BinaryOp::GT,
                  BinaryOp::LE, BinaryOp::GE});
  RegisterFamily("algebra.rightident",
                 {BinaryOp::Add, BinaryOp::Sub, BinaryOp::Mul,
                  BinaryOp::Div, BinaryOp::Shl, BinaryOp::Shr,
                  BinaryOp::BitOr, BinaryOp::BitXor});
  RegisterFamily("algebra.leftident", {BinaryOp::Add, BinaryOp::Mul,
                                       BinaryOp::BitOr, BinaryOp::BitXor});
  RegisterFamily("algebra.zero",
                 {BinaryOp::Mul, BinaryOp::BitAnd, BinaryOp::Rem});
}

void spe::runPipeline(IRModule &M, unsigned OptLevel, CoverageRegistry *Cov) {
  if (OptLevel == 0)
    return;
  for (IRFunction &F : M.Functions) {
    // Round 1 (-O1): local cleanups.
    foldConstants(F, Cov);
    propagateCopies(F, Cov);
    simplifyControlFlow(F, Cov);
    eliminateDeadCode(F, Cov);
    if (OptLevel >= 2) {
      // Round 2 (-O2): memory forwarding and algebraic identities.
      forwardStores(F, Cov);
      propagateCopies(F, Cov);
      foldConstants(F, Cov);
      simplifyAlgebra(F, Cov);
      propagateCopies(F, Cov);
      foldConstants(F, Cov);
      simplifyControlFlow(F, Cov);
      eliminateDeadCode(F, Cov);
    }
    if (OptLevel >= 3) {
      // Round 3 (-O3): loop optimizations and one more strengthening pass.
      hoistLoopInvariants(F, Cov);
      forwardStores(F, Cov);
      propagateCopies(F, Cov);
      foldConstants(F, Cov);
      simplifyAlgebra(F, Cov);
      propagateCopies(F, Cov);
      foldConstants(F, Cov);
      simplifyControlFlow(F, Cov);
      eliminateDeadCode(F, Cov);
    }
  }
}
