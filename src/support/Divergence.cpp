//===- support/Divergence.cpp - loop-head divergence core -----------------===//

#include "support/Divergence.h"

#include <algorithm>
#include <cstring>

using namespace spe;

const char *spe::timeoutReasonName(TimeoutReason Reason) {
  switch (Reason) {
  case TimeoutReason::None:
    return "none";
  case TimeoutReason::Budget:
    return "budget";
  case TimeoutReason::Repeat:
    return "repeat";
  case TimeoutReason::Drift:
    return "drift";
  case TimeoutReason::CallDepth:
    return "call_depth";
  }
  return "?";
}

namespace {

/// The thread's spare block table and the buffers of released blocks,
/// byte and init buffers alike. Buffers past a bound in size, and tables
/// past one in capacity, are freed instead, so what a thread keeps stays
/// small.
struct SpareMemory {
  static constexpr size_t MaxBuffers = 512;
  static constexpr size_t MaxBufferSize = 4096;
  static constexpr size_t MaxTableBlocks = 4096;

  std::vector<MachineBlock> Table;
  std::vector<std::vector<uint8_t>> Buffers;

  static SpareMemory &get() {
    thread_local SpareMemory Spare;
    return Spare;
  }

  void give(std::vector<uint8_t> &Buf) {
    if (Buf.capacity() != 0 && Buf.capacity() <= MaxBufferSize &&
        Buffers.size() < MaxBuffers)
      Buffers.push_back(std::move(Buf));
    else
      std::vector<uint8_t>().swap(Buf);
  }
  void take(std::vector<uint8_t> &Buf) {
    if (Buffers.empty())
      return;
    Buf = std::move(Buffers.back());
    Buffers.pop_back();
  }
  /// Moves \p B's buffers to the pool; B keeps none.
  void recycle(MachineBlock &B) {
    give(B.Bytes);
    give(B.Init);
  }
};

} // namespace

MachineMemory::MachineMemory(const char *NullName)
    : Blocks(std::move(SpareMemory::get().Table)) {
  Blocks.clear();
  MachineBlock &Null = Blocks.emplace_back();
  Null.Name = NullName;
  Null.Alive = false;
}

MachineMemory::~MachineMemory() {
  SpareMemory &Spare = SpareMemory::get();
  for (MachineBlock &B : Blocks)
    Spare.recycle(B);
  Blocks.clear();
  if (Blocks.capacity() <= SpareMemory::MaxTableBlocks &&
      Blocks.capacity() > Spare.Table.capacity())
    Spare.Table = std::move(Blocks);
}

uint32_t MachineMemory::allocate(uint64_t Size, bool TrackInit,
                                 bool ZeroInit) {
  SpareMemory &Spare = SpareMemory::get();
  MachineBlock &B = Blocks.emplace_back();
  Spare.take(B.Bytes);
  B.Bytes.assign(Size, 0);
  if (TrackInit) {
    Spare.take(B.Init);
    B.Init.assign(Size, ZeroInit ? 1 : 0);
  }
  uint32_t Id = static_cast<uint32_t>(Blocks.size() - 1);
  ++LiveBlocks;
  touch(Id);
  return Id;
}

void MachineMemory::release(uint32_t Id) {
  // Nothing reads a dead block's bytes, so they leave it: a loop that
  // declares an array would otherwise keep every iteration's storage until
  // the run ends.
  MachineBlock &B = Blocks[Id];
  B.Alive = false;
  SpareMemory::get().recycle(B);
  --LiveBlocks;
  touch(Id);
}

void MemorySnapshot::save(const MachineMemory &M, size_t Pos) {
  Clock = M.Clock;
  LiveBlocks = M.LiveBlocks;
  Exposures = M.Exposures;
  StdinPos = Pos;
  Ids.clear();
  Starts.clear();
  Bytes.clear();
  Init.clear();
  for (uint32_t Id = 1; Id < M.Blocks.size(); ++Id) {
    const MachineBlock &B = M.Blocks[Id];
    if (!B.Alive)
      continue;
    Ids.push_back(Id);
    Starts.push_back(Bytes.size());
    Bytes.insert(Bytes.end(), B.Bytes.begin(), B.Bytes.end());
    Init.insert(Init.end(), B.Init.begin(), B.Init.end());
  }
  Starts.push_back(Bytes.size());
}

bool MemorySnapshot::blockMatches(const MachineMemory &M, size_t Index,
                                  bool CompareBytes) const {
  const MachineBlock &B = M.Blocks[Ids[Index]];
  if (B.Written <= Clock)
    return true; // Untouched since the save.
  size_t Start = Starts[Index];
  if (!B.Alive || B.Bytes.size() != Starts[Index + 1] - Start ||
      (CompareBytes && !B.Bytes.empty() &&
       std::memcmp(B.Bytes.data(), Bytes.data() + Start, B.Bytes.size())))
    return false;
  // The VM keeps no init bytes; the interpreter keeps one per byte.
  return B.Init.empty() ||
         !std::memcmp(B.Init.data(), Init.data() + Start, B.Init.size());
}

StateMatch MemorySnapshot::compare(const MachineMemory &M, size_t Pos,
                                   const std::vector<uint32_t> &Masked) const {
  if (M.Exposures != Exposures || M.LiveBlocks != LiveBlocks ||
      Pos != StdinPos)
    return StateMatch::Differs;
  auto IsMasked = [&](uint32_t Id) {
    return std::binary_search(Masked.begin(), Masked.end(), Id);
  };
  // The latest write is the likeliest difference; try it first.
  auto Last = std::lower_bound(Ids.begin(), Ids.end(), M.LastWritten);
  if (Last != Ids.end() && *Last == M.LastWritten &&
      !blockMatches(M, Last - Ids.begin(), !IsMasked(M.LastWritten)))
    return StateMatch::Differs;
  bool Drifted = false;
  for (size_t I = 0; I < Ids.size(); ++I) {
    bool Mask = !Masked.empty() && IsMasked(Ids[I]);
    if (!blockMatches(M, I, !Mask))
      return StateMatch::Differs;
    Drifted = Drifted || (Mask && !blockMatches(M, I, true));
  }
  return Drifted ? StateMatch::MaskedEqual : StateMatch::Equal;
}

//===----------------------------------------------------------------------===//
// Drift proofs (DESIGN.md Section 18.5)
//===----------------------------------------------------------------------===//

int DriftPlan::guardAt(const void *Site) const {
  for (size_t I = 0; I < Guards.size(); ++I)
    if (Guards[I].Site == Site)
      return static_cast<int>(I);
  return -1;
}

namespace {

using Wide = DriftWatch::Wide;

/// Larger than any period count a 64-bit step budget can reach.
const Wide Never = Wide(1) << 100;

Wide minOf(const DriftPlan::Cell &C) {
  return C.Signed ? -(Wide(1) << (C.Width - 1)) : Wide(0);
}
Wide maxOf(const DriftPlan::Cell &C) {
  return C.Signed ? (Wide(1) << (C.Width - 1)) - 1
                  : (Wide(1) << C.Width) - 1;
}

/// The first period n >= 1 in which a value that was at most \p Max in the
/// window, moving by \p D > 0 per period, may exceed \p Upper.
Wide firstPeriodAbove(Wide Max, Wide D, Wide Upper) {
  return Upper < Max ? 0 : (Upper - Max) / D + 1;
}

/// The first period n >= 1 in which a value that was at least \p Min in
/// the window, moving by \p D < 0 per period, may fall below \p Lower.
Wide firstPeriodBelow(Wide Min, Wide D, Wide Lower) {
  return Min < Lower ? 0 : (Min - Lower) / -D + 1;
}

} // namespace

DriftWatch::~DriftWatch() {
  if (!Registry)
    return;
  auto It = std::find(Registry->begin(), Registry->end(), this);
  if (It != Registry->end())
    Registry->erase(It);
}

void DriftWatch::arm(const DriftPlan &P, std::vector<uint32_t> CellBlocks,
                     std::vector<DriftWatch *> &Reg) {
  // A store that wraps moves its cell by a delta plus or minus 2^Width;
  // deltas under half of that can never be mistaken for one another.
  for (const DriftPlan::Cell &C : P.Cells)
    for (int64_t D : C.Deltas)
      if (Wide(D) >= (Wide(1) << (C.Width - 1)) ||
          -Wide(D) >= (Wide(1) << (C.Width - 1)))
        return;
  Plan = &P;
  Blocks = std::move(CellBlocks);
  Sorted = Blocks;
  std::sort(Sorted.begin(), Sorted.end());
  Cells.assign(Blocks.size(), CellWindow());
  Guards.assign(P.Guards.size(), GuardWindow());
  Registry = &Reg;
  Reg.push_back(this);
}

Wide DriftWatch::valueOf(const MachineMemory &M, size_t Cell) const {
  const DriftPlan::Cell &C = Plan->Cells[Cell];
  uint64_t Raw = M.integerAt(Blocks[Cell], 0, C.Width / 8);
  if (!C.Signed)
    return Wide(Raw);
  unsigned Shift = 64 - C.Width;
  return Wide(static_cast<int64_t>(Raw << Shift) >> Shift);
}

void DriftWatch::openWindow(const MachineMemory &M, uint64_t Steps) {
  Recording = Steps >= SleepUntil;
  if (!Recording)
    return;
  WindowSteps = Steps;
  for (size_t I = 0; I < Cells.size(); ++I) {
    const MachineBlock &B = M.Blocks[Blocks[I]];
    CellWindow &W = Cells[I];
    W = CellWindow();
    // A dead or uninitialized cell has no value to drift from.
    W.Linear = B.Alive && B.Bytes.size() * 8 >= Plan->Cells[I].Width &&
               std::find(B.Init.begin(), B.Init.end(), 0) == B.Init.end();
    if (W.Linear)
      W.Start = W.Last = W.Min = W.Max = valueOf(M, I);
  }
  Guards.assign(Guards.size(), GuardWindow());
}

void DriftWatch::stored(const MachineMemory &M, uint32_t Block) {
  for (size_t I = 0; I < Blocks.size(); ++I) {
    if (Blocks[I] != Block || !Cells[I].Linear)
      continue;
    CellWindow &W = Cells[I];
    Wide V = valueOf(M, I);
    const std::vector<int64_t> &Deltas = Plan->Cells[I].Deltas;
    W.Linear = std::find(Deltas.begin(), Deltas.end(), V - W.Last) !=
               Deltas.end();
    W.Last = V;
    W.Min = std::min(W.Min, V);
    W.Max = std::max(W.Max, V);
  }
}

void DriftWatch::guarded(const void *Site, Wide L, Wide R, bool Outcome) {
  int Index = Plan->guardAt(Site);
  if (Index < 0)
    return;
  bool OnLeft = Plan->Guards[Index].CellOnLeft;
  Wide X = OnLeft ? L : R, Other = OnLeft ? R : L;
  GuardWindow &G = Guards[Index];
  if (!G.Seen) {
    G.Seen = true;
    G.Outcome = Outcome;
    G.CellMin = G.CellMax = X;
    G.OtherMin = G.OtherMax = Other;
    return;
  }
  G.Flipped = G.Flipped || Outcome != G.Outcome;
  G.CellMin = std::min(G.CellMin, X);
  G.CellMax = std::max(G.CellMax, X);
  G.OtherMin = std::min(G.OtherMin, Other);
  G.OtherMax = std::max(G.OtherMax, Other);
}

bool DriftWatch::proves(const MachineMemory &M, uint64_t Steps,
                        uint64_t MaxSteps) {
  uint64_t Period = Steps - WindowSteps;
  if (Period == 0 || MaxSteps < WindowSteps)
    return false;
  // Each period from the save repeats the window's path and moves every
  // cell by its delta until the first period with an event (Horizon). The
  // step past the budget falls in period Budget.
  Wide Budget = Wide(MaxSteps - WindowSteps) / Period;
  Wide Horizon = Never;
  std::vector<Wide> Delta(Cells.size());
  std::vector<bool> Guarded(Cells.size(), false);
  for (const DriftPlan::Guard &G : Plan->Guards)
    Guarded[G.Cell] = true;
  for (size_t I = 0; I < Cells.size(); ++I) {
    const CellWindow &W = Cells[I];
    if (!W.Linear || valueOf(M, I) != W.Last)
      return false;
    Delta[I] = W.Last - W.Start;
    const DriftPlan::Cell &C = Plan->Cells[I];
    if (!C.UbOnWrap && !Guarded[I])
      continue; // Its wrap changes nothing the run can observe.
    if (Delta[I] > 0)
      Horizon = std::min(Horizon, firstPeriodAbove(W.Max, Delta[I], maxOf(C)));
    if (Delta[I] < 0)
      Horizon = std::min(Horizon, firstPeriodBelow(W.Min, Delta[I], minOf(C)));
  }
  for (size_t I = 0; I < Guards.size(); ++I) {
    const GuardWindow &G = Guards[I];
    if (!G.Seen)
      continue; // Not on the window's path, so on no later period's.
    if (G.Flipped)
      return false;
    // Every evaluation so far kept the cell at most (or at least) a bound
    // the other side sets; the guard can flip only once it crosses it.
    GuardOp Op = Plan->Guards[I].Op;
    bool Below = (Op == GuardOp::Less || Op == GuardOp::LessEq) == G.Outcome;
    bool Strict = Op == GuardOp::Less || Op == GuardOp::GreaterEq;
    Wide D = Delta[Plan->Guards[I].Cell];
    if (Below && D > 0)
      Horizon = std::min(Horizon,
                         firstPeriodAbove(G.CellMax, D,
                                          Strict ? G.OtherMin - 1 : G.OtherMin));
    if (!Below && D < 0)
      Horizon = std::min(Horizon,
                         firstPeriodBelow(G.CellMin, D,
                                          Strict ? G.OtherMax : G.OtherMax + 1));
  }
  if (Budget < Horizon)
    return true;
  // Something can change in period Horizon: stop recording until then.
  Wide Wake = Wide(WindowSteps) + Horizon * Period;
  SleepUntil = Wake > Wide(~uint64_t(0)) ? ~uint64_t(0)
                                         : static_cast<uint64_t>(Wake);
  Recording = false;
  return false;
}
