//===- compiler/VM.cpp - MiniCC IR execution engine ----------------------===//

#include "compiler/VM.h"

#include "support/Divergence.h"
#include "support/Printf.h"
#include "support/Scratch.h"
#include "support/StdinScan.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
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

/// One relational comparison a loop's classification found reading a
/// cell's value: a candidate guard.
struct LoopCompare {
  const IRInstr *Site;
  int Cell;
  bool CellOnLeft;
};

/// The buffers of the activation at one call depth: its registers, its
/// slots' blocks, and the operands it passes to a call.
struct VMFrame {
  std::vector<VMValue> Regs;
  std::vector<uint32_t> SlotBlocks;
  std::vector<VMValue> CallArgs;
};

/// The VM's per-thread scratch (support/Scratch.h). A run re-initializes
/// each table before reading it.
struct VMTables {
  /// Frames[D] serves the activation at call depth D + 1. Each frame is on
  /// the heap, so an outer activation's references to its own frame
  /// survive a deeper call that grows the vector.
  std::vector<std::unique_ptr<VMFrame>> Frames;
  /// Each function's regBound, or NoBound until its first call.
  std::vector<size_t> RegBounds;
  std::vector<uint32_t> GlobalBlocks;
  std::vector<uint64_t> PrintfArgs;
  /// Globals whose address is used other than to load or store them;
  /// filled on a run's first use.
  std::vector<bool> EscapedGlobals;

  /// classifyLoop's tables: successors and predecessors (the first
  /// Blocks.size() entries are the function's), the blocks reached from
  /// and reaching the head and on a cycle through it, live registers per
  /// block (a bit matrix), each register's unique definition, ...
  std::vector<std::vector<unsigned>> Succs, Preds;
  std::vector<unsigned> Work;
  std::vector<bool> Forward, Backward, InLoop;
  std::vector<uint64_t> LiveIn, Live;
  std::vector<const IRInstr *> Def, OtherDef;
  std::vector<bool> Seen;
  std::vector<bool> DefInLoop;
  /// ... each value register's cell and offset, whether a register may
  /// carry a candidate's value, and per cell its verdicts, deltas and plan
  /// index.
  std::vector<int> ValueCell;
  std::vector<int64_t> Offset;
  std::vector<int> Fed;
  std::vector<bool> Bad, EscapedSlots, Candidate, Drifting;
  std::vector<std::vector<int64_t>> Deltas;
  std::vector<LoopCompare> Compares;
  std::vector<unsigned> CellIndex;
};

constexpr size_t NoBound = ~size_t(0);

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
  void doPrintf(const IRFunction &F, const IRInstr &I,
                const std::vector<VMValue> &Regs);

  /// Runs function \p FnIndex on the \p NumArgs operands at \p Args.
  VMValue callFunction(unsigned FnIndex, const VMValue *Args,
                       size_t NumArgs);
  /// The size of function \p FnIndex's register file.
  size_t regBoundOf(unsigned FnIndex) {
    size_t &Bound = T->RegBounds[FnIndex];
    if (Bound == NoBound)
      Bound = regBound(M.Functions[FnIndex]);
    return Bound;
  }

  const IRModule &M;
  const VMOptions &Opts;
  VMResult Result;
  bool Done = false;
  uint64_t Steps = 0;
  MachineMemory Mem;
  ScratchLease<VMTables> T;
  unsigned CallDepth = 0;
  StdinIntScanner Stdin; ///< Sweep-input cursor for IROp::Input.

  // --- drift proofs (DESIGN.md Section 18.5) -------------------------------
  /// Classified loops of this run, by function and head block.
  std::map<std::pair<unsigned, unsigned>, VMLoopPlan> Plans;
  std::vector<DriftWatch *> Watches; ///< Armed watches.
  /// Whether T->EscapedGlobals holds this run's escaped globals.
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
      Cells.push_back(R.Global ? T->GlobalBlocks[R.Index]
                               : SlotBlocks[R.Index]);
    W.arm(P, std::move(Cells), Watches);
  }
  return &P;
}

namespace {

/// Calls \p Fn(Operand, Role) on each register operand of \p I, an
/// instruction of \p F; Role is 0 for A, 1 for B, 2 for a call or printf
/// argument.
template <class FnT>
void forEachRegUse(const IRFunction &F, const IRInstr &I, FnT &&Fn) {
  if (I.A.isReg())
    Fn(I.A.Reg, 0);
  if (I.B.isReg())
    Fn(I.B.Reg, 1);
  for (const IROperand &O : F.args(I))
    if (O.isReg())
      Fn(O.Reg, 2);
}

/// Whether operand \p Role of \p I is the address of a load or store.
bool addressUse(const IRInstr &I, int Role) {
  return Role == 0 && (I.Op == IROp::Load || I.Op == IROp::Store);
}

/// Fills \p Def with each register's definition in \p F, null when it has
/// several, dense over the registers F defines; \p Seen is scratch.
void definitions(const IRFunction &F, std::vector<const IRInstr *> &Def,
                 std::vector<bool> &Seen) {
  Def.assign(regBound(F), nullptr);
  Seen.assign(Def.size(), false);
  for (const IRBlock &B : F.Blocks)
    for (const IRInstr &I : B.Instrs)
      if (I.HasDst) {
        Def[I.Dst] = Seen[I.Dst] ? nullptr : &I;
        Seen[I.Dst] = true;
      }
}

/// Marks in \p Out each slot or global (\p AddrOp) whose address \p F
/// uses other than to load or store it: a pointer anything may follow.
void markEscapes(const IRFunction &F, const std::vector<const IRInstr *> &Def,
                 IROp AddrOp, std::vector<bool> &Out) {
  for (const IRBlock &B : F.Blocks)
    for (const IRInstr &I : B.Instrs)
      forEachRegUse(F, I, [&](unsigned R, int Role) {
        const IRInstr *D = R < Def.size() ? Def[R] : nullptr;
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
  const size_t NB = F.Blocks.size();
  const size_t NR = regBoundOf(FnIndex);
  std::vector<std::vector<unsigned>> &Succs = T->Succs, &Preds = T->Preds;
  if (Succs.size() < NB) {
    Succs.resize(NB);
    Preds.resize(NB);
  }
  for (size_t B = 0; B < NB; ++B) {
    Succs[B].clear();
    Preds[B].clear();
  }
  for (unsigned B = 0; B < NB; ++B) {
    const IRInstr &Term = F.Blocks[B].Instrs.back();
    auto Edge = [&](unsigned S) {
      Succs[B].push_back(S);
      Preds[S].push_back(B);
    };
    if (Term.Op == IROp::Br || Term.Op == IROp::CondBr)
      Edge(Term.Succ0);
    if (Term.Op == IROp::CondBr)
      Edge(Term.Succ1);
  }
  auto Reach = [&](const std::vector<std::vector<unsigned>> &Edges,
                   std::vector<bool> &Seen) {
    Seen.assign(NB, false);
    T->Work.assign(1, Target);
    Seen[Target] = true;
    while (!T->Work.empty()) {
      unsigned B = T->Work.back();
      T->Work.pop_back();
      for (unsigned N : Edges[B])
        if (!Seen[N]) {
          Seen[N] = true;
          T->Work.push_back(N);
        }
    }
  };
  Reach(Succs, T->Forward);
  Reach(Preds, T->Backward);
  std::vector<bool> &InLoop = T->InLoop;
  InLoop.assign(NB, false);
  for (size_t B = 0; B < NB; ++B)
    InLoop[B] = T->Forward[B] && T->Backward[B];

  VMLoopPlan P;
  P.Target = Target;

  // Registers live at the head: backward dataflow to a fixpoint, one row
  // of NR bits per block.
  const size_t Words = (NR + 63) / 64;
  std::vector<uint64_t> &LiveIn = T->LiveIn, &Live = T->Live;
  LiveIn.assign(NB * Words, 0);
  auto SetLive = [&](unsigned R, bool On) {
    if (R >= NR)
      return;
    if (On)
      Live[R / 64] |= uint64_t(1) << (R % 64);
    else
      Live[R / 64] &= ~(uint64_t(1) << (R % 64));
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t B = NB; B-- > 0;) {
      Live.assign(Words, 0);
      for (unsigned S : Succs[B])
        for (size_t W = 0; W < Words; ++W)
          Live[W] |= LiveIn[S * Words + W];
      const std::vector<IRInstr> &Is = F.Blocks[B].Instrs;
      for (size_t K = Is.size(); K-- > 0;) {
        if (Is[K].HasDst)
          SetLive(Is[K].Dst, false);
        forEachRegUse(F, Is[K], [&](unsigned R, int) { SetLive(R, true); });
      }
      if (!std::equal(Live.begin(), Live.end(),
                      LiveIn.begin() + B * Words)) {
        std::copy(Live.begin(), Live.end(), LiveIn.begin() + B * Words);
        Changed = true;
      }
    }
  }
  for (unsigned R = 0; R < NR; ++R)
    if (LiveIn[Target * Words + R / 64] >> (R % 64) & 1)
      P.Live.push_back(R);

  // Each register's unique definition (null when it has several).
  std::vector<const IRInstr *> &Def = T->Def;
  definitions(F, Def, T->Seen);
  auto DefOf = [&](unsigned R) { return R < NR ? Def[R] : nullptr; };
  std::vector<bool> &DefInLoop = T->DefInLoop;
  DefInLoop.assign(NR, false);
  for (size_t B = 0; B < NB; ++B)
    for (const IRInstr &I : F.Blocks[B].Instrs)
      if (I.HasDst && InLoop[B])
        DefInLoop[I.Dst] = true;
  // A cell is a slot index, or a global index offset by the slot count.
  int NumSlots = static_cast<int>(F.Slots.size());
  auto CellOf = [&](const IROperand &O) -> int {
    const IRInstr *D = O.isReg() ? DefOf(O.Reg) : nullptr;
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
  std::vector<int> &ValueCell = T->ValueCell;
  std::vector<int64_t> &Offset = T->Offset;
  ValueCell.assign(NR, -2); // -2: not yet resolved.
  Offset.assign(NR, 0);
  auto ValueOfRec = [&](auto &Self, unsigned R) -> int {
    if (R >= NR)
      return -1;
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
    int C = Self(Self, V.Reg);
    int64_t Step = static_cast<int64_t>(K.Imm);
    Offset[R] = (V.Reg < NR ? Offset[V.Reg] : 0) +
                (D->Bin == BinaryOp::Add ? Step : -Step);
    return ValueCell[R] = C;
  };
  auto ValueOf = [&](unsigned R) { return ValueOfRec(ValueOfRec, R); };
  auto DirectLoad = [&](unsigned R) {
    const IRInstr *D = DefOf(R);
    return D && D->Op == IROp::Load ? ValueOf(R) : -1;
  };

  // Inside the loop, a cell's address may only be loaded from and stored
  // to; a store to it must put back a sum of its own value; and its values
  // may only feed those sums, printf, or one side of a relational
  // comparison (directly as loaded) whose other side no candidate feeds.
  int NumCells = NumSlots + static_cast<int>(M.Globals.size());
  std::vector<bool> &Bad = T->Bad;
  Bad.assign(NumCells, false);
  std::vector<std::vector<int64_t>> &Deltas = T->Deltas;
  if (Deltas.size() < size_t(NumCells))
    Deltas.resize(NumCells);
  for (int C = 0; C < NumCells; ++C)
    Deltas[C].clear();
  std::vector<LoopCompare> &Compares = T->Compares;
  Compares.clear();
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
        const IRInstr *Sum = I.B.isReg() ? DefOf(I.B.Reg) : nullptr;
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
      forEachRegUse(F, I, [&](unsigned R, int Role) {
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
  std::vector<bool> &EscapedSlots = T->EscapedSlots;
  EscapedSlots.assign(F.Slots.size(), false);
  if (Calls || Derefs) {
    if (!EscapedKnown) {
      EscapedKnown = true;
      T->EscapedGlobals.assign(M.Globals.size(), false);
      for (const IRFunction &G : M.Functions) {
        definitions(G, T->OtherDef, T->Seen);
        markEscapes(G, T->OtherDef, IROp::AddrGlobal, T->EscapedGlobals);
      }
    }
    markEscapes(F, Def, IROp::AddrSlot, EscapedSlots);
  }
  std::vector<bool> &Candidate = T->Candidate;
  Candidate.assign(NumCells, false);
  for (int C = 0; C < NumCells; ++C) {
    const Type *Ty = CellType(C);
    bool Global = C >= NumSlots;
    bool Escaped =
        (Calls || Derefs) &&
        (Global ? T->EscapedGlobals[C - NumSlots] : EscapedSlots[C]);
    Candidate[C] = !Bad[C] && !Deltas[C].empty() && Ty && Ty->isInteger() &&
                   !(Global && Calls) && !Escaped;
  }
  // Whether a register the loop defines may carry a candidate's value.
  std::vector<int> &Fed = T->Fed;
  Fed.assign(NR, -1); // -1: not yet resolved.
  auto FeedsRec = [&](auto &Self, unsigned R) -> bool {
    if (R >= NR)
      return false;
    if (Fed[R] >= 0)
      return Fed[R] == 1;
    Fed[R] = 0; // Also ends a cycle.
    if (!Def[R] || !DefInLoop[R])
      return false;
    int C = ValueOf(R);
    bool Result = C >= 0 && Candidate[C];
    forEachRegUse(F, *Def[R], [&](unsigned Op, int) {
      Result = Result || Self(Self, Op);
    });
    Fed[R] = Result;
    return Result;
  };
  std::vector<bool> &Drifting = T->Drifting;
  Drifting = Candidate;
  for (const LoopCompare &Cmp : Compares) {
    const IROperand &Other = Cmp.CellOnLeft ? Cmp.Site->B : Cmp.Site->A;
    const Type *Ty = binComputationType(*Cmp.Site);
    const Type *Cell = CellType(Cmp.Cell);
    bool Fits = Ty && Ty->isInteger() && Cell->isInteger() &&
                Ty->intWidth() >= Cell->intWidth() &&
                !(Cell->isSigned() && !Ty->isSigned());
    if (!Fits || (Other.isReg() && FeedsRec(FeedsRec, Other.Reg)))
      Drifting[Cmp.Cell] = false;
  }

  std::vector<unsigned> &CellIndex = T->CellIndex;
  CellIndex.assign(NumCells, 0);
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
  for (const LoopCompare &Cmp : Compares) {
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
  VMValue V;
  if (Ty->isPointer()) {
    V.IsPtr = true;
    Mem.loadPointer(Block, Offset, V.Block, V.Offset);
    return V;
  }
  V.Bits = normalizeIntValue(Ty, Mem.loadInteger(Block, Offset, Size));
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
  if (AsPtr) {
    Mem.storePointer(Block, Offset, V.Block, V.Offset);
    return;
  }
  Mem.storeInteger(Block, Offset, Size, V.Bits);
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

void VM::doPrintf(const IRFunction &F, const IRInstr &I,
                  const std::vector<VMValue> &Regs) {
  std::vector<uint64_t> &Args = T->PrintfArgs;
  Args.clear();
  for (const IROperand &O : F.args(I))
    Args.push_back(evalOperand(O, Regs).Bits);
  PrintfFailure Fail =
      formatPrintf(F.format(I), Args.data(), Args.size(), Result.Output);
  if (Fail.What == PrintfFailure::MissingArgument)
    trap("printf: missing argument");
  else if (Fail.What == PrintfFailure::UnknownConversion)
    trap(std::string("printf conversion %") + Fail.Conv);
}

VMValue VM::callFunction(unsigned FnIndex, const VMValue *Args,
                         size_t NumArgs) {
  if (++CallDepth > Opts.MaxCallDepth) {
    timeout(TimeoutReason::CallDepth, "call depth exceeded");
    --CallDepth;
    return {};
  }
  const IRFunction &F = M.Functions[FnIndex];
  while (T->Frames.size() < CallDepth)
    T->Frames.push_back(std::make_unique<VMFrame>());
  VMFrame &Frame = *T->Frames[CallDepth - 1];
  // The register file is dense over the registers F defines: an operand
  // names only those in a verified module.
  std::vector<VMValue> &Regs = Frame.Regs;
  Regs.assign(regBoundOf(FnIndex), VMValue());
  std::vector<uint32_t> &SlotBlocks = Frame.SlotBlocks;
  SlotBlocks.resize(F.Slots.size());
  for (size_t S = 0; S < F.Slots.size(); ++S)
    SlotBlocks[S] = Mem.allocate(
        F.Slots[S].Ty->isPointer() ? 8 : F.Slots[S].Size, false, false);
  for (size_t A = 0; A < NumArgs && A < F.NumParams; ++A)
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
      V.Block = T->GlobalBlocks[I.GlobalIndex];
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
      Frame.CallArgs.clear();
      for (const IROperand &O : F.args(I))
        Frame.CallArgs.push_back(evalOperand(O, Regs));
      VMValue R = callFunction(static_cast<unsigned>(I.CalleeIndex),
                               Frame.CallArgs.data(), Frame.CallArgs.size());
      if (I.HasDst)
        Regs[I.Dst] = R;
      break;
    }
    case IROp::Printf:
      doPrintf(F, I, Regs);
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
  T->RegBounds.assign(M.Functions.size(), NoBound);
  T->GlobalBlocks.clear();
  for (const IRGlobal &G : M.Globals) {
    uint32_t B = Mem.allocate(G.InitBytes.size(), false, false);
    Mem.Blocks[B].Bytes = G.InitBytes;
    Mem.Blocks[B].HeldInteger =
        std::any_of(G.InitBytes.begin(), G.InitBytes.end(),
                    [](uint8_t Byte) { return Byte != 0; });
    T->GlobalBlocks.push_back(B);
  }
  if (M.MainIndex < 0) {
    trap("no main function");
    return Result;
  }
  VMValue Exit =
      callFunction(static_cast<unsigned>(M.MainIndex), nullptr, 0);
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
