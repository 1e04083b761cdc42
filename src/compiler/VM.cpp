//===- compiler/VM.cpp - MiniCC IR execution engine ----------------------===//

#include "compiler/VM.h"

#include "support/Divergence.h"
#include "support/Printf.h"
#include "support/StdinScan.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <vector>

using namespace spe;

namespace {

struct VMValue {
  bool IsPtr = false;
  uint64_t Bits = 0;
  uint32_t Block = 0;
  int64_t Offset = 0;

  bool operator==(const VMValue &O) const {
    return IsPtr == O.IsPtr && Bits == O.Bits && Block == O.Block &&
           Offset == O.Offset;
  }
};

/// The VM's view of an activation at a retreating branch (DESIGN.md
/// Section 18): the branch target and the activation's registers.
struct ActivationView {
  unsigned Target;
  const std::vector<VMValue> &Regs;
};

/// A loop's drift plan (DESIGN.md Section 18.5) plus what the VM needs to
/// use it: the loop's head, the registers live there, and the slot
/// (Global false) or global behind each cell.
struct VMLoopPlan : DriftPlan {
  unsigned Target = 0;
  std::vector<unsigned> Live;
  struct CellRef {
    bool Global;
    int Index;
  };
  std::vector<CellRef> Refs;
};

/// The saved activation. Before its loop is classified every register is
/// compared (a miscompiled module may read one before the iteration
/// redefines it); after, only the registers live at the loop head.
struct SavedActivation {
  unsigned Target = 0;
  std::vector<VMValue> Regs;

  bool sameLoop(const ActivationView &V) const { return Target == V.Target; }
  static bool covers(const DriftPlan &P, const ActivationView &V) {
    return static_cast<const VMLoopPlan &>(P).Target == V.Target;
  }
  bool matches(const ActivationView &V, const DriftPlan *P) const {
    if (!P)
      return Regs == V.Regs;
    for (unsigned R : static_cast<const VMLoopPlan *>(P)->Live)
      if (!(Regs[R] == V.Regs[R]))
        return false;
    return true;
  }
  SavedActivation &operator=(const ActivationView &V) {
    Target = V.Target;
    Regs = V.Regs;
    return *this;
  }
};

class VM {
public:
  VM(const IRModule &M, const VMOptions &Opts)
      : M(M), Opts(Opts), Stdin(Opts.Input) {}

  VMResult run();

private:
  void trap(const std::string &Message) {
    if (Done)
      return;
    Done = true;
    Result.Status = VMStatus::Trap;
    Result.Message = Message;
  }
  void timeout(TimeoutReason Reason, const char *Message) {
    Done = true;
    Result.Status = VMStatus::Timeout;
    Result.Reason = Reason;
    Result.Message = Message;
  }
  bool step() {
    if (Done)
      return false;
    if (++Steps > Opts.MaxSteps) {
      timeout(TimeoutReason::Budget, "step budget exhausted");
      return false;
    }
    return true;
  }

  /// Counts a retreating branch to \p Target; on a check, ends the run
  /// with Timeout when the state repeats one saved earlier, or repeats up
  /// to drift cells the budget ends before.
  void loopHead(LoopDetector<SavedActivation> &D, unsigned FnIndex,
                unsigned Target, const std::vector<VMValue> &Regs,
                const std::vector<uint32_t> &SlotBlocks);
  /// \returns the plan of the loop headed by \p Target, classifying it on
  /// first use, and arms \p W when it has drift cells.
  const DriftPlan *armDrift(DriftWatch &W, unsigned FnIndex, unsigned Target,
                            const std::vector<uint32_t> &SlotBlocks);
  VMLoopPlan classifyLoop(unsigned FnIndex, unsigned Target);
  void noteStore(uint32_t Block) {
    for (DriftWatch *W : Watches)
      if (W->recording())
        W->stored(Mem, Block);
  }
  bool checkAccess(uint32_t Block, int64_t Offset, uint64_t Size,
                   const char *What) {
    if (Block == 0 || Block >= Mem.Blocks.size() || !Mem.Blocks[Block].Alive) {
      trap(std::string("bad pointer ") + What);
      return false;
    }
    if (Offset < 0 ||
        static_cast<uint64_t>(Offset) + Size > Mem.Blocks[Block].Bytes.size()) {
      trap(std::string("out-of-bounds ") + What);
      return false;
    }
    return true;
  }

  VMValue convertTo(const VMValue &V, const Type *Ty) {
    VMValue R;
    if (Ty->isPointer()) {
      if (V.IsPtr)
        return V;
      R.IsPtr = true;
      R.Block = 0;
      R.Offset = static_cast<int64_t>(V.Bits);
      return R;
    }
    uint64_t Raw = V.IsPtr ? Mem.pointerToInt(V.Block, V.Offset) : V.Bits;
    R.Bits = normalizeIntValue(Ty, Raw);
    return R;
  }

  VMValue evalOperand(const IROperand &O,
                      const std::vector<VMValue> &Regs) {
    VMValue V;
    if (O.isConst()) {
      if (O.Ty && O.Ty->isPointer()) {
        V.IsPtr = true;
        V.Block = 0;
        V.Offset = static_cast<int64_t>(O.Imm);
      } else {
        V.Bits = O.Imm;
      }
      return V;
    }
    if (O.isReg())
      return Regs[O.Reg];
    return V;
  }

  static bool truthy(const VMValue &V) {
    return V.IsPtr ? (V.Block != 0 || V.Offset != 0) : V.Bits != 0;
  }

  VMValue loadFrom(uint32_t Block, int64_t Offset, const Type *Ty);
  void storeTo(uint32_t Block, int64_t Offset, const Type *Ty,
               const VMValue &V);

  VMValue applyBin(const IRInstr &I, const VMValue &L, const VMValue &R);
  void doPrintf(const IRInstr &I, const std::vector<VMValue> &Regs);

  VMValue callFunction(unsigned FnIndex, const std::vector<VMValue> &Args);

  const IRModule &M;
  const VMOptions &Opts;
  VMResult Result;
  bool Done = false;
  uint64_t Steps = 0;
  MachineMemory Mem;
  std::vector<uint32_t> GlobalBlocks;
  unsigned CallDepth = 0;
  StdinIntScanner Stdin; ///< Sweep-input cursor for IROp::Input.

  // --- drift proofs (DESIGN.md Section 18.5) -------------------------------
  /// Classified loops of this run, by function and head block.
  std::map<std::pair<unsigned, unsigned>, VMLoopPlan> Plans;
  std::vector<DriftWatch *> Watches; ///< Armed watches.
  /// Globals whose address is used other than to load or store them;
  /// filled on first use.
  std::vector<bool> EscapedGlobals;
  bool EscapedKnown = false;
};

void VM::loopHead(LoopDetector<SavedActivation> &D, unsigned FnIndex,
                  unsigned Target, const std::vector<VMValue> &Regs,
                  const std::vector<uint32_t> &SlotBlocks) {
  TimeoutReason Reason = D.visit(
      Mem, Stdin.position(), ActivationView{Target, Regs}, Steps,
      Opts.MaxSteps, [&](DriftWatch &W) {
        return armDrift(W, FnIndex, Target, SlotBlocks);
      });
  if (Reason != TimeoutReason::None)
    timeout(Reason, Reason == TimeoutReason::Repeat
                        ? "state repeats at loop head"
                        : "state drifts at loop head");
}

const DriftPlan *VM::armDrift(DriftWatch &W, unsigned FnIndex,
                              unsigned Target,
                              const std::vector<uint32_t> &SlotBlocks) {
  auto Key = std::make_pair(FnIndex, Target);
  auto It = Plans.find(Key);
  if (It == Plans.end())
    It = Plans.emplace(Key, classifyLoop(FnIndex, Target)).first;
  const VMLoopPlan &P = It->second;
  if (!P.empty()) {
    std::vector<uint32_t> Cells;
    for (const VMLoopPlan::CellRef &R : P.Refs)
      Cells.push_back(R.Global ? GlobalBlocks[R.Index] : SlotBlocks[R.Index]);
    W.arm(P, std::move(Cells), Watches);
  }
  return &P;
}

namespace {

std::vector<unsigned> successors(const IRBlock &B) {
  const IRInstr &T = B.Instrs.back();
  if (T.Op == IROp::Br)
    return {T.Succ0};
  if (T.Op == IROp::CondBr)
    return {T.Succ0, T.Succ1};
  return {};
}

/// Calls \p Fn(Operand, Role) on each register operand of \p I; Role is 0
/// for A, 1 for B, 2 for a call or printf argument.
template <class FnT> void forEachRegUse(const IRInstr &I, FnT &&Fn) {
  if (I.A.isReg())
    Fn(I.A.Reg, 0);
  if (I.B.isReg())
    Fn(I.B.Reg, 1);
  for (const IROperand &O : I.Args)
    if (O.isReg())
      Fn(O.Reg, 2);
}

/// Whether operand \p Role of \p I is the address of a load or store.
bool addressUse(const IRInstr &I, int Role) {
  return Role == 0 && (I.Op == IROp::Load || I.Op == IROp::Store);
}

/// Each register's definition in \p F; null when it has several.
std::vector<const IRInstr *> definitions(const IRFunction &F) {
  std::vector<const IRInstr *> Def(F.NumRegs, nullptr);
  std::vector<bool> Seen(F.NumRegs, false);
  for (const IRBlock &B : F.Blocks)
    for (const IRInstr &I : B.Instrs)
      if (I.HasDst) {
        Def[I.Dst] = Seen[I.Dst] ? nullptr : &I;
        Seen[I.Dst] = true;
      }
  return Def;
}

/// Marks in \p Out each slot or global (\p AddrOp) whose address \p F
/// uses other than to load or store it: a pointer anything may follow.
void markEscapes(const IRFunction &F, const std::vector<const IRInstr *> &Def,
                 IROp AddrOp, std::vector<bool> &Out) {
  for (const IRBlock &B : F.Blocks)
    for (const IRInstr &I : B.Instrs)
      forEachRegUse(I, [&](unsigned R, int Role) {
        const IRInstr *D = Def[R];
        if (D && D->Op == AddrOp && !addressUse(I, Role))
          Out[AddrOp == IROp::AddrSlot ? D->SlotIndex : D->GlobalIndex] =
              true;
      });
}

bool relational(BinaryOp Op) {
  return Op == BinaryOp::LT || Op == BinaryOp::GT || Op == BinaryOp::LE ||
         Op == BinaryOp::GE;
}

} // namespace

/// The drift classification of DESIGN.md Section 18.5 over IR def-use,
/// for the loop of \p Target: the blocks on some cycle through it.
VMLoopPlan VM::classifyLoop(unsigned FnIndex, unsigned Target) {
  const IRFunction &F = M.Functions[FnIndex];
  size_t NB = F.Blocks.size();
  std::vector<std::vector<unsigned>> Succs(NB), Preds(NB);
  for (unsigned B = 0; B < NB; ++B)
    for (unsigned S : successors(F.Blocks[B])) {
      Succs[B].push_back(S);
      Preds[S].push_back(B);
    }
  auto Reach = [&](const std::vector<std::vector<unsigned>> &Edges) {
    std::vector<bool> Seen(NB, false);
    std::vector<unsigned> Work{Target};
    Seen[Target] = true;
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      for (unsigned N : Edges[B])
        if (!Seen[N]) {
          Seen[N] = true;
          Work.push_back(N);
        }
    }
    return Seen;
  };
  std::vector<bool> Forward = Reach(Succs), Backward = Reach(Preds);
  std::vector<bool> InLoop(NB);
  for (size_t B = 0; B < NB; ++B)
    InLoop[B] = Forward[B] && Backward[B];

  VMLoopPlan P;
  P.Target = Target;

  // Registers live at the head: backward dataflow to a fixpoint.
  std::vector<std::vector<bool>> LiveIn(NB, std::vector<bool>(F.NumRegs));
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t B = NB; B-- > 0;) {
      std::vector<bool> Live(F.NumRegs, false);
      for (unsigned S : Succs[B])
        for (unsigned R = 0; R < F.NumRegs; ++R)
          Live[R] = Live[R] || LiveIn[S][R];
      const std::vector<IRInstr> &Is = F.Blocks[B].Instrs;
      for (size_t K = Is.size(); K-- > 0;) {
        if (Is[K].HasDst)
          Live[Is[K].Dst] = false;
        forEachRegUse(Is[K], [&](unsigned R, int) { Live[R] = true; });
      }
      if (Live != LiveIn[B]) {
        LiveIn[B] = std::move(Live);
        Changed = true;
      }
    }
  }
  for (unsigned R = 0; R < F.NumRegs; ++R)
    if (LiveIn[Target][R])
      P.Live.push_back(R);

  // Each register's unique definition (null when it has several).
  std::vector<const IRInstr *> Def = definitions(F);
  std::vector<bool> DefInLoop(F.NumRegs, false);
  for (size_t B = 0; B < NB; ++B)
    for (const IRInstr &I : F.Blocks[B].Instrs)
      if (I.HasDst && InLoop[B])
        DefInLoop[I.Dst] = true;
  // A cell is a slot index, or a global index offset by the slot count.
  int NumSlots = static_cast<int>(F.Slots.size());
  auto CellOf = [&](const IROperand &O) -> int {
    const IRInstr *D = O.isReg() ? Def[O.Reg] : nullptr;
    if (D && D->Op == IROp::AddrSlot)
      return D->SlotIndex;
    if (D && D->Op == IROp::AddrGlobal)
      return NumSlots + D->GlobalIndex;
    return -1;
  };
  auto CellType = [&](int C) {
    return C < NumSlots ? F.Slots[C].Ty : M.Globals[C - NumSlots].Ty;
  };
  // A value register of a cell holds the cell's value as the loop loaded
  // it, plus Offset: a chain of small constants (self-update sums).
  std::vector<int> ValueCell(F.NumRegs, -2); // -2: not yet resolved.
  std::vector<int64_t> Offset(F.NumRegs, 0);
  std::function<int(unsigned)> ValueOf = [&](unsigned R) {
    if (ValueCell[R] != -2)
      return ValueCell[R];
    ValueCell[R] = -1; // Also ends a cycle.
    const IRInstr *D = Def[R];
    if (!D || !DefInLoop[R])
      return -1;
    if (D->Op == IROp::Load)
      return ValueCell[R] = CellOf(D->A);
    if (D->Op != IROp::Bin ||
        (D->Bin != BinaryOp::Add && D->Bin != BinaryOp::Sub))
      return -1;
    bool ConstFirst = D->Bin == BinaryOp::Add && D->A.isConst();
    const IROperand &V = ConstFirst ? D->B : D->A;
    const IROperand &K = ConstFirst ? D->A : D->B;
    if (!V.isReg() || !K.isConst() || K.Imm > 0x7fff)
      return -1;
    int C = ValueOf(V.Reg);
    int64_t Step = static_cast<int64_t>(K.Imm);
    Offset[R] = Offset[V.Reg] + (D->Bin == BinaryOp::Add ? Step : -Step);
    return ValueCell[R] = C;
  };
  auto DirectLoad = [&](unsigned R) {
    return Def[R] && Def[R]->Op == IROp::Load ? ValueOf(R) : -1;
  };

  // Inside the loop, a cell's address may only be loaded from and stored
  // to; a store to it must put back a sum of its own value; and its values
  // may only feed those sums, printf, or one side of a relational
  // comparison (directly as loaded) whose other side no candidate feeds.
  int NumCells = NumSlots + static_cast<int>(M.Globals.size());
  std::vector<bool> Bad(NumCells, false);
  std::vector<std::vector<int64_t>> Deltas(NumCells);
  struct Compare {
    const IRInstr *Site;
    int Cell;
    bool CellOnLeft;
  };
  std::vector<Compare> Compares;
  bool Calls = false, Derefs = false;
  for (size_t B = 0; B < NB; ++B) {
    if (!InLoop[B])
      continue;
    for (const IRInstr &I : F.Blocks[B].Instrs) {
      Calls = Calls || I.Op == IROp::Call;
      bool Access = I.Op == IROp::Load || I.Op == IROp::Store ||
                    I.Op == IROp::Memcpy || I.Op == IROp::Memset;
      Derefs = Derefs || (Access && CellOf(I.A) < 0) ||
               (I.Op == IROp::Memcpy && CellOf(I.B) < 0);
      int Target = I.Op == IROp::Load || I.Op == IROp::Store ? CellOf(I.A)
                                                              : -1;
      if (Target >= 0 && I.Ty != CellType(Target))
        Bad[Target] = true;
      bool IsSum = I.HasDst && I.Op == IROp::Bin && ValueOf(I.Dst) >= 0;
      bool IsCompare = I.Op == IROp::Bin && relational(I.Bin);
      if (I.Op == IROp::Store && Target >= 0) {
        const IRInstr *Sum = I.B.isReg() ? Def[I.B.Reg] : nullptr;
        if (!Sum || Sum->Op != IROp::Bin || ValueOf(I.B.Reg) != Target) {
          Bad[Target] = true;
        } else {
          // The store moves the cell by the whole chain when nothing was
          // stored since its load, else by the last link (the earlier
          // links were stored already).
          bool ConstFirst = Sum->Bin == BinaryOp::Add && Sum->A.isConst();
          int64_t K = static_cast<int64_t>(ConstFirst ? Sum->A.Imm
                                                      : Sum->B.Imm);
          Deltas[Target].push_back(Sum->Bin == BinaryOp::Add ? K : -K);
          Deltas[Target].push_back(Offset[I.B.Reg]);
        }
      }
      forEachRegUse(I, [&](unsigned R, int Role) {
        int C = CellOf(IROperand::reg(R, nullptr));
        if (C >= 0 && !addressUse(I, Role))
          Bad[C] = true; // The address is used as a value.
        C = ValueOf(R);
        if (C < 0 || IsSum || (I.Op == IROp::Printf && Role == 2) ||
            (I.Op == IROp::Store && Role == 1 && CellOf(I.A) == C))
          return;
        if (IsCompare && DirectLoad(R) >= 0)
          Compares.push_back({&I, C, Role == 0});
        else
          Bad[C] = true;
      });
    }
  }

  // Only a loop that dereferences or calls can reach a cell through a
  // pointer, and only a cell whose address escapes somewhere.
  std::vector<bool> EscapedSlots(F.Slots.size(), false);
  if (Calls || Derefs) {
    if (!EscapedKnown) {
      EscapedKnown = true;
      EscapedGlobals.assign(M.Globals.size(), false);
      for (const IRFunction &G : M.Functions)
        markEscapes(G, definitions(G), IROp::AddrGlobal, EscapedGlobals);
    }
    markEscapes(F, Def, IROp::AddrSlot, EscapedSlots);
  }
  std::vector<bool> Candidate(NumCells, false);
  for (int C = 0; C < NumCells; ++C) {
    const Type *Ty = CellType(C);
    bool Global = C >= NumSlots;
    bool Escaped = (Calls || Derefs) &&
                   (Global ? EscapedGlobals[C - NumSlots] : EscapedSlots[C]);
    Candidate[C] = !Bad[C] && !Deltas[C].empty() && Ty && Ty->isInteger() &&
                   !(Global && Calls) && !Escaped;
  }
  // Whether a register the loop defines may carry a candidate's value.
  std::vector<int> Fed(F.NumRegs, -1); // -1: not yet resolved.
  std::function<bool(unsigned)> Feeds = [&](unsigned R) {
    if (Fed[R] >= 0)
      return Fed[R] == 1;
    Fed[R] = 0; // Also ends a cycle.
    if (!Def[R] || !DefInLoop[R])
      return false;
    int C = ValueOf(R);
    bool Result = C >= 0 && Candidate[C];
    forEachRegUse(*Def[R], [&](unsigned Op, int) {
      Result = Result || Feeds(Op);
    });
    Fed[R] = Result;
    return Result;
  };
  std::vector<bool> Drifting = Candidate;
  for (const Compare &Cmp : Compares) {
    const IROperand &Other = Cmp.CellOnLeft ? Cmp.Site->B : Cmp.Site->A;
    const Type *Ty = binComputationType(*Cmp.Site);
    const Type *Cell = CellType(Cmp.Cell);
    bool Fits = Ty && Ty->isInteger() && Cell->isInteger() &&
                Ty->intWidth() >= Cell->intWidth() &&
                !(Cell->isSigned() && !Ty->isSigned());
    if (!Fits || (Other.isReg() && Feeds(Other.Reg)))
      Drifting[Cmp.Cell] = false;
  }

  std::vector<unsigned> CellIndex(NumCells, 0);
  for (int C = 0; C < NumCells; ++C) {
    if (!Drifting[C])
      continue;
    DriftPlan::Cell Cell;
    Cell.Width = CellType(C)->intWidth();
    Cell.Signed = CellType(C)->isSigned();
    Cell.Deltas = Deltas[C];
    CellIndex[C] = static_cast<unsigned>(P.Cells.size());
    P.Refs.push_back({C >= NumSlots, C >= NumSlots ? C - NumSlots : C});
    P.Cells.push_back(std::move(Cell));
  }
  for (const Compare &Cmp : Compares) {
    if (!Drifting[Cmp.Cell])
      continue;
    DriftPlan::Guard G;
    G.Site = Cmp.Site;
    G.Cell = CellIndex[Cmp.Cell];
    G.CellOnLeft = Cmp.CellOnLeft;
    bool Less = Cmp.Site->Bin == BinaryOp::LT || Cmp.Site->Bin == BinaryOp::LE;
    bool Strict =
        Cmp.Site->Bin == BinaryOp::LT || Cmp.Site->Bin == BinaryOp::GT;
    if (!Cmp.CellOnLeft)
      Less = !Less;
    G.Op = Less ? (Strict ? GuardOp::Less : GuardOp::LessEq)
                : (Strict ? GuardOp::Greater : GuardOp::GreaterEq);
    P.Guards.push_back(G);
  }
  return P;
}

VMValue VM::loadFrom(uint32_t Block, int64_t Offset, const Type *Ty) {
  uint64_t Size = Ty->isPointer() ? 8 : Ty->sizeInBytes();
  if (!checkAccess(Block, Offset, Size, "load"))
    return {};
  if (Ty->isPointer() ? Mem.Blocks[Block].HeldInteger : Mem.Blocks[Block].HeldPointer)
    ++Mem.Exposures;
  const std::vector<uint8_t> &Bytes = Mem.Blocks[Block].Bytes;
  VMValue V;
  if (Ty->isPointer()) {
    V.IsPtr = true;
    uint32_t Blk = 0, Off = 0;
    for (int I = 3; I >= 0; --I)
      Blk = (Blk << 8) | Bytes[Offset + I];
    for (int I = 3; I >= 0; --I)
      Off = (Off << 8) | Bytes[Offset + 4 + I];
    V.Block = Blk;
    V.Offset = static_cast<int32_t>(Off);
    return V;
  }
  uint64_t Raw = 0;
  for (uint64_t I = Size; I-- > 0;)
    Raw = (Raw << 8) | Bytes[Offset + I];
  V.Bits = normalizeIntValue(Ty, Raw);
  return V;
}

void VM::storeTo(uint32_t Block, int64_t Offset, const Type *Ty,
                 const VMValue &V) {
  uint64_t Size = Ty && Ty->isPointer() ? 8
                  : Ty                  ? Ty->sizeInBytes()
                                        : 8;
  bool AsPtr = V.IsPtr;
  if (!checkAccess(Block, Offset, AsPtr ? 8 : Size, "store"))
    return;
  Mem.touch(Block);
  std::vector<uint8_t> &Bytes = Mem.Blocks[Block].Bytes;
  if (AsPtr) {
    Mem.Blocks[Block].HeldPointer = true;
    uint32_t Off = static_cast<uint32_t>(static_cast<int32_t>(V.Offset));
    for (int I = 0; I < 4; ++I)
      Bytes[Offset + I] = static_cast<uint8_t>(V.Block >> (8 * I));
    for (int I = 0; I < 4; ++I)
      Bytes[Offset + 4 + I] = static_cast<uint8_t>(Off >> (8 * I));
    return;
  }
  Mem.Blocks[Block].HeldInteger = true;
  for (uint64_t I = 0; I < Size; ++I)
    Bytes[Offset + I] = static_cast<uint8_t>(V.Bits >> (8 * I));
  if (!Watches.empty())
    noteStore(Block);
}

VMValue VM::applyBin(const IRInstr &I, const VMValue &L, const VMValue &R) {
  VMValue V;
  // Pointer comparisons.
  if ((L.IsPtr || R.IsPtr) && isComparisonOp(I.Bin)) {
    VMValue PL = L.IsPtr ? L : VMValue{true, 0, 0, static_cast<int64_t>(L.Bits)};
    VMValue PR = R.IsPtr ? R : VMValue{true, 0, 0, static_cast<int64_t>(R.Bits)};
    bool Res = false;
    switch (I.Bin) {
    case BinaryOp::EQ:
      Res = PL.Block == PR.Block && PL.Offset == PR.Offset;
      break;
    case BinaryOp::NE:
      Res = PL.Block != PR.Block || PL.Offset != PR.Offset;
      break;
    case BinaryOp::LT:
      Res = std::pair(PL.Block, PL.Offset) < std::pair(PR.Block, PR.Offset);
      break;
    case BinaryOp::GT:
      Res = std::pair(PL.Block, PL.Offset) > std::pair(PR.Block, PR.Offset);
      break;
    case BinaryOp::LE:
      Res = std::pair(PL.Block, PL.Offset) <= std::pair(PR.Block, PR.Offset);
      break;
    default:
      Res = std::pair(PL.Block, PL.Offset) >= std::pair(PR.Block, PR.Offset);
      break;
    }
    V.Bits = Res ? 1 : 0;
    return V;
  }

  auto Guarded = [&](__int128 CL, __int128 CR, bool Res) {
    for (DriftWatch *W : Watches)
      if (W->recording())
        W->guarded(&I, CL, CR, Res);
  };
  switch (evalIntBin(I, L.Bits, R.Bits, V.Bits, Guarded)) {
  case BinFault::None:
    return V;
  case BinFault::DivisionByZero:
    trap("division by zero");
    break;
  case BinFault::DivisionOverflow:
    trap("division overflow");
    break;
  case BinFault::NotIntegerOp:
    trap("unsupported binary operator in VM");
    break;
  }
  return {};
}

void VM::doPrintf(const IRInstr &I, const std::vector<VMValue> &Regs) {
  std::vector<uint64_t> Args;
  Args.reserve(I.Args.size());
  for (const IROperand &O : I.Args)
    Args.push_back(evalOperand(O, Regs).Bits);
  PrintfFailure F = formatPrintf(I.Fmt, Args, Result.Output);
  if (F.What == PrintfFailure::MissingArgument)
    trap("printf: missing argument");
  else if (F.What == PrintfFailure::UnknownConversion)
    trap(std::string("printf conversion %") + F.Conv);
}

VMValue VM::callFunction(unsigned FnIndex,
                         const std::vector<VMValue> &Args) {
  if (++CallDepth > Opts.MaxCallDepth) {
    timeout(TimeoutReason::CallDepth, "call depth exceeded");
    --CallDepth;
    return {};
  }
  const IRFunction &F = M.Functions[FnIndex];
  std::vector<VMValue> Regs(F.NumRegs);
  std::vector<uint32_t> SlotBlocks(F.Slots.size());
  for (size_t S = 0; S < F.Slots.size(); ++S)
    SlotBlocks[S] = Mem.allocate(
        F.Slots[S].Ty->isPointer() ? 8 : F.Slots[S].Size, false, false);
  for (size_t A = 0; A < Args.size() && A < F.NumParams; ++A)
    storeTo(SlotBlocks[A], 0, F.Slots[A].Ty, Args[A]);

  unsigned BlockIndex = 0;
  size_t InstrIndex = 0;
  VMValue RetVal;
  // Every CFG cycle has an edge whose target index is <= its source's, so
  // checking after those branches sees every loop.
  LoopDetector<SavedActivation> Detector;
  while (!Done) {
    if (!step())
      break;
    assert(BlockIndex < F.Blocks.size() &&
           InstrIndex < F.Blocks[BlockIndex].Instrs.size());
    const IRInstr &I = F.Blocks[BlockIndex].Instrs[InstrIndex];
    ++InstrIndex;
    switch (I.Op) {
    case IROp::Const: {
      Regs[I.Dst] = evalOperand(I.A, Regs);
      break;
    }
    case IROp::Copy:
      Regs[I.Dst] = convertTo(evalOperand(I.A, Regs), I.Ty);
      break;
    case IROp::Bin:
      Regs[I.Dst] = applyBin(I, evalOperand(I.A, Regs),
                             evalOperand(I.B, Regs));
      break;
    case IROp::Neg: {
      VMValue V = evalOperand(I.A, Regs);
      Regs[I.Dst].IsPtr = false;
      Regs[I.Dst].Bits = normalizeIntValue(I.Ty, 0 - V.Bits);
      break;
    }
    case IROp::BitNot: {
      VMValue V = evalOperand(I.A, Regs);
      Regs[I.Dst].IsPtr = false;
      Regs[I.Dst].Bits = normalizeIntValue(I.Ty, ~V.Bits);
      break;
    }
    case IROp::Not: {
      VMValue V = evalOperand(I.A, Regs);
      Regs[I.Dst] = VMValue{};
      Regs[I.Dst].Bits = truthy(V) ? 0 : 1;
      break;
    }
    case IROp::AddrSlot: {
      VMValue V;
      V.IsPtr = true;
      V.Block = SlotBlocks[I.SlotIndex];
      Regs[I.Dst] = V;
      break;
    }
    case IROp::AddrGlobal: {
      VMValue V;
      V.IsPtr = true;
      V.Block = GlobalBlocks[I.GlobalIndex];
      Regs[I.Dst] = V;
      break;
    }
    case IROp::PtrAdd: {
      VMValue P = evalOperand(I.A, Regs);
      VMValue D = evalOperand(I.B, Regs);
      P.Offset += static_cast<int64_t>(D.Bits) *
                  static_cast<int64_t>(I.Scale);
      Regs[I.Dst] = P;
      break;
    }
    case IROp::PtrDiff: {
      VMValue A = evalOperand(I.A, Regs);
      VMValue B = evalOperand(I.B, Regs);
      if (A.Block != B.Block) {
        trap("cross-object pointer difference");
        break;
      }
      VMValue V;
      V.Bits = normalizeIntValue(
          I.Ty, static_cast<uint64_t>((A.Offset - B.Offset) /
                                      static_cast<int64_t>(I.Scale)));
      Regs[I.Dst] = V;
      break;
    }
    case IROp::Load: {
      VMValue P = evalOperand(I.A, Regs);
      Regs[I.Dst] = loadFrom(P.Block, P.Offset, I.Ty);
      break;
    }
    case IROp::Store: {
      VMValue P = evalOperand(I.A, Regs);
      VMValue V = evalOperand(I.B, Regs);
      storeTo(P.Block, P.Offset, I.Ty, V);
      break;
    }
    case IROp::Memcpy: {
      VMValue D = evalOperand(I.A, Regs);
      VMValue S = evalOperand(I.B, Regs);
      if (!checkAccess(D.Block, D.Offset, I.Size, "memcpy dst") ||
          !checkAccess(S.Block, S.Offset, I.Size, "memcpy src"))
        break;
      Mem.touch(D.Block);
      Mem.Blocks[D.Block].HeldPointer |= Mem.Blocks[S.Block].HeldPointer;
      Mem.Blocks[D.Block].HeldInteger |= Mem.Blocks[S.Block].HeldInteger;
      for (uint64_t Byte = 0; Byte < I.Size; ++Byte)
        Mem.Blocks[D.Block].Bytes[D.Offset + Byte] =
            Mem.Blocks[S.Block].Bytes[S.Offset + Byte];
      break;
    }
    case IROp::Memset: {
      VMValue D = evalOperand(I.A, Regs);
      if (!checkAccess(D.Block, D.Offset, I.Size, "memset"))
        break;
      Mem.touch(D.Block);
      for (uint64_t Byte = 0; Byte < I.Size; ++Byte)
        Mem.Blocks[D.Block].Bytes[D.Offset + Byte] = 0;
      break;
    }
    case IROp::Call: {
      std::vector<VMValue> CallArgs;
      for (const IROperand &O : I.Args)
        CallArgs.push_back(evalOperand(O, Regs));
      VMValue R = callFunction(static_cast<unsigned>(I.CalleeIndex),
                               CallArgs);
      if (I.HasDst)
        Regs[I.Dst] = R;
      break;
    }
    case IROp::Printf:
      doPrintf(I, Regs);
      break;
    case IROp::Input: {
      VMValue V;
      V.Bits = normalizeIntValue(I.Ty, static_cast<uint64_t>(static_cast<uint32_t>(
                                           Stdin.next())));
      if (I.HasDst)
        Regs[I.Dst] = V;
      break;
    }
    case IROp::Ret:
      if (!I.A.isNone())
        RetVal = evalOperand(I.A, Regs);
      goto FunctionExit;
    case IROp::Br:
    case IROp::CondBr: {
      unsigned From = BlockIndex;
      BlockIndex = I.Op == IROp::Br || truthy(evalOperand(I.A, Regs))
                       ? I.Succ0
                       : I.Succ1;
      InstrIndex = 0;
      if (BlockIndex <= From)
        loopHead(Detector, FnIndex, BlockIndex, Regs, SlotBlocks);
      break;
    }
    case IROp::Unreachable:
      trap("reached unreachable");
      break;
    }
  }
FunctionExit:
  for (uint32_t B : SlotBlocks)
    Mem.release(B);
  --CallDepth;
  return RetVal;
}

VMResult VM::run() {
  for (const IRGlobal &G : M.Globals) {
    uint32_t B = Mem.allocate(G.InitBytes.size(), false, false);
    Mem.Blocks[B].Bytes = G.InitBytes;
    Mem.Blocks[B].HeldInteger =
        std::any_of(G.InitBytes.begin(), G.InitBytes.end(),
                    [](uint8_t Byte) { return Byte != 0; });
    GlobalBlocks.push_back(B);
  }
  if (M.MainIndex < 0) {
    trap("no main function");
    return Result;
  }
  VMValue Exit = callFunction(static_cast<unsigned>(M.MainIndex), {});
  if (!Done) {
    Result.Status = VMStatus::Ok;
    Result.ExitCode = static_cast<int32_t>(Exit.Bits);
  }
  return Result;
}

} // namespace

VMResult spe::executeModule(const IRModule &M, VMOptions Opts) {
  VM Machine(M, Opts);
  VMResult R = Machine.run();
  // A Timeout carries no output, so no observation depends on when
  // non-termination was proven.
  if (R.Status == VMStatus::Timeout)
    R.Output.clear();
  return R;
}
