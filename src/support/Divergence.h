//===- support/Divergence.h - loop-head divergence core -------------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part of the loop-head divergence check (DESIGN.md Section 18) that
/// the reference interpreter and the MiniCC VM share: the block memory both
/// executors run on, the snapshot of it a loop-head visit saves, the
/// comparison that proves a later visit repeats it, and Brent's schedule of
/// when to save and when to compare.
///
/// The schedule saves at checks 1, 2, 4, 8, ... and compares every later
/// check with the last save. Only every 8th visit is a check. That is still
/// exact: the states at visits 8, 16, 24, ... are the orbit of f^8, where f
/// maps one visit's state to the next, and f^8 is eventually periodic
/// whenever f is, so Brent's algorithm on it finds every cycle f has.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_DIVERGENCE_H
#define SPE_SUPPORT_DIVERGENCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spe {

/// Why an executor ended a run with Timeout.
enum class TimeoutReason {
  None,      ///< The run did not time out.
  Budget,    ///< The step budget ran out.
  Repeat,    ///< The loop-head state repeated a saved one.
  Drift,     ///< The state repeats up to drifting counters, and the budget
             ///< ends before anything they steer can change.
  CallDepth, ///< The call-depth limit was exceeded.
};

/// \returns "none", "budget", "repeat", "drift" or "call_depth".
const char *timeoutReasonName(TimeoutReason Reason);

/// One allocation of either executor.
struct MachineBlock {
  std::vector<uint8_t> Bytes;
  /// Per-byte init bits; the interpreter keeps them, the VM leaves this
  /// empty.
  std::vector<bool> Init;
  /// The declaration's name, which the AST owns for longer than the run;
  /// only the interpreter sets it, for UB messages.
  const char *Name = nullptr;
  /// MachineMemory::Clock at the block's last store, copy, fill,
  /// allocation or free: a block not written since a snapshot still
  /// matches it.
  uint64_t Written = 0;
  bool Alive = true;
  /// Whether a pointer, or a non-pointer scalar, was ever stored here. A
  /// load of the other kind reinterprets bytes and may expose a block id.
  bool HeldPointer = false;
  bool HeldInteger = false;
};

/// The blocks of one run plus the counters the check compares. Block 0 is
/// the dead null block.
struct MachineMemory {
  std::vector<MachineBlock> Blocks;
  uint64_t Clock = 0;       ///< Bumped by every memory mutation.
  uint32_t LastWritten = 0; ///< Block of the latest mutation.
  uint64_t LiveBlocks = 0;
  /// Pointer-to-integer conversions plus reinterpreting loads so far: the
  /// only operations that can observe which id a fresh block received.
  uint64_t Exposures = 0;

  explicit MachineMemory(const char *NullName = nullptr);

  /// Allocates \p Size zero bytes; with \p TrackInit, init bits set to
  /// \p ZeroInit.
  uint32_t allocate(uint64_t Size, bool TrackInit, bool ZeroInit);
  /// Ends \p Id's lifetime and frees its bytes and init bits.
  void release(uint32_t Id);
  void touch(uint32_t Id) {
    Blocks[Id].Written = ++Clock;
    LastWritten = Id;
  }
  /// The integer a pointer converts to in both executors: its block id in
  /// the high 32 bits and its offset in the low 32. The conversion can
  /// observe which id a block received, so it counts as an exposure.
  uint64_t pointerToInt(uint32_t Block, int64_t Offset) {
    ++Exposures;
    return (static_cast<uint64_t>(Block) << 32) |
           static_cast<uint32_t>(Offset);
  }
};

/// How a loop-head state compares with a saved one.
enum class StateMatch {
  Differs,     ///< Some unmasked byte, counter or register differs.
  Equal,       ///< Everything is equal: the run repeats forever.
  MaskedEqual, ///< Equal except the bytes of masked (drift) blocks.
};

/// Memory and counters at one loop-head visit (DESIGN.md Section 18.1).
/// Block ids are not part of it: only a pointer-to-integer conversion or a
/// reinterpreting load can tell a fresh block's id apart, and Exposures
/// counts both.
class MemorySnapshot {
public:
  void save(const MachineMemory &M, size_t StdinPos);

  /// Equal memory at two visits of one loop activation means the run
  /// repeats the stretch between them forever. Blocks of outer frames
  /// cannot be freed while the loop runs and a block allocated since the
  /// save can only die, so an equal live count says every such block is
  /// dead again. The bytes of the blocks in \p Masked (ascending) are
  /// compared only to tell Equal from MaskedEqual; their liveness, size
  /// and init bits must match like any block's.
  StateMatch compare(const MachineMemory &M, size_t StdinPos,
                     const std::vector<uint32_t> &Masked = {}) const;

private:
  bool blockMatches(const MachineMemory &M, size_t Index,
                    bool CompareBytes) const;

  uint64_t Clock = 0;
  uint64_t LiveBlocks = 0;
  uint64_t Exposures = 0;
  size_t StdinPos = 0;
  /// Every live block (ascending ids), its bytes at Starts[I], and its
  /// init bits at the same offsets.
  std::vector<uint32_t> Ids;
  std::vector<size_t> Starts;
  std::vector<uint8_t> Bytes;
  std::vector<bool> Init;
};

/// A relational comparison, with the drift cell on the left.
enum class GuardOp { Less, LessEq, Greater, GreaterEq };

/// What a loop's classification found (DESIGN.md Section 18.5): the
/// integer scalar cells that only drift, and the guards that read them.
/// An executor computes it once per loop per run, at the loop's first
/// failed full match; an empty plan means no cell qualified.
struct DriftPlan {
  struct Cell {
    unsigned Width = 32;
    bool Signed = true;
    /// The constants of the cell's self-updates, as signed deltas.
    std::vector<int64_t> Deltas;
    /// Leaving the type's range is UB (a signed overflow in the oracle),
    /// so the first period that would do it ends the proof's horizon.
    bool UbOnWrap = false;
  };
  struct Guard {
    const void *Site = nullptr; ///< The comparison node or instruction.
    unsigned Cell = 0;
    /// The comparison's operator with the cell on the left.
    GuardOp Op = GuardOp::Less;
    bool CellOnLeft = true;
  };
  std::vector<Cell> Cells;
  std::vector<Guard> Guards;

  bool empty() const { return Cells.empty(); }
  /// \returns the Guards index of \p Site, or -1.
  int guardAt(const void *Site) const;
};

/// Records, over one Brent window (save to check), what the proof needs to
/// know about a loop's drift cells: whether every store moved a cell by
/// one of its constants, each cell's range of values, and each guard's
/// outcomes and operand ranges. The executor calls stored() after each
/// store and guarded() after each comparison while recording() holds.
class DriftWatch {
public:
  using Wide = __int128;

  DriftWatch() = default;
  DriftWatch(const DriftWatch &) = delete;
  DriftWatch &operator=(const DriftWatch &) = delete;
  ~DriftWatch();

  /// Starts watching \p Plan's cells, which live in \p Blocks (parallel to
  /// Plan.Cells). The watch registers itself in \p Registry, the
  /// executor's list of watches its hooks report to, until destroyed.
  void arm(const DriftPlan &Plan, std::vector<uint32_t> Blocks,
           std::vector<DriftWatch *> &Registry);
  bool armed() const { return Plan != nullptr; }
  /// The watched blocks, ascending: the snapshot's compare mask.
  const std::vector<uint32_t> &masked() const { return Sorted; }

  /// Opens a window at a save, at step \p Steps.
  void openWindow(const MachineMemory &M, uint64_t Steps);
  bool recording() const { return Recording; }

  /// Hooks. \p Block was just stored to; the comparison at \p Site gave
  /// \p Outcome on \p L and \p R (exact values in its comparison type).
  void stored(const MachineMemory &M, uint32_t Block);
  void guarded(const void *Site, Wide L, Wide R, bool Outcome);

  /// On a MaskedEqual check at step \p Steps, \returns true when the run
  /// from the save provably spends \p MaxSteps before any event its drift
  /// can cause: a signed overflow, a guard flip, or a wrap a guard sees.
  /// Otherwise the watch sleeps until the earliest such event.
  bool proves(const MachineMemory &M, uint64_t Steps, uint64_t MaxSteps);

private:
  Wide valueOf(const MachineMemory &M, size_t Cell) const;

  struct CellWindow {
    Wide Start = 0, Last = 0, Min = 0, Max = 0;
    bool Linear = true;
  };
  struct GuardWindow {
    bool Seen = false, Outcome = false, Flipped = false;
    Wide CellMin = 0, CellMax = 0, OtherMin = 0, OtherMax = 0;
  };

  const DriftPlan *Plan = nullptr;
  std::vector<DriftWatch *> *Registry = nullptr;
  std::vector<uint32_t> Blocks;
  std::vector<uint32_t> Sorted;
  std::vector<CellWindow> Cells;
  std::vector<GuardWindow> Guards;
  uint64_t WindowSteps = 0;
  /// No window opens before this step (an event the last proof attempt
  /// found lies ahead).
  uint64_t SleepUntil = 0;
  bool Recording = false;
};

/// When to save and when to compare: Brent's algorithm on every 8th visit.
class BrentSchedule {
public:
  /// Counts one visit; \returns true when this visit is a check.
  bool due() { return (++Visits & 7) == 0; }

  /// Whether a check has a saved state to compare against.
  bool saved() const { return Power != 0; }

  /// Called on each check after the comparison; \returns true when the
  /// caller must replace the saved state with the current one.
  bool advance() {
    bool Save = Lam == Power;
    if (Save) {
      Power = Power ? Power * 2 : 1;
      Lam = 0;
    }
    ++Lam;
    return Save;
  }

private:
  uint64_t Visits = 0;
  uint64_t Power = 0; ///< Checks between two saves; 0 = nothing saved yet.
  uint64_t Lam = 0;   ///< Checks since the last save.
};

/// One loop activation's check: the schedule, the memory it last saved,
/// the executor's own image of the activation, and the drift watch.
///
/// ActivationT is what the executor saves of its activation (the
/// interpreter's frame map, the VM's branch target and registers). It
/// provides sameLoop(View); covers(Plan, View), whether the plan is the
/// one of the loop the view is at; matches(View, Plan), a full comparison
/// under a null plan and otherwise one that may skip what the plan proves
/// dead; and assignment from the View.
template <class ActivationT> struct LoopDetector {
  BrentSchedule Schedule;
  MemorySnapshot Memory;
  ActivationT Activation;
  DriftWatch Watch;
  const DriftPlan *Plan = nullptr;
  bool Classified = false;

  /// Counts a visit at step \p Steps. At a check, \returns Repeat when the
  /// state repeats the saved one, and Drift when it repeats up to drift
  /// cells whose horizon lies past \p MaxSteps; saves when the schedule
  /// says so. \p Classify(Watch) runs at the loop's first failed full
  /// match: it returns the loop's plan and arms the watch when the plan is
  /// not empty.
  template <class ViewT, class ClassifyT>
  TimeoutReason visit(const MachineMemory &M, size_t StdinPos,
                      const ViewT &Current, uint64_t Steps,
                      uint64_t MaxSteps, ClassifyT &&Classify) {
    if (!Schedule.due())
      return TimeoutReason::None;
    if (Schedule.saved() && Activation.sameLoop(Current)) {
      const DriftPlan *P =
          Plan && ActivationT::covers(*Plan, Current) ? Plan : nullptr;
      StateMatch Match = StateMatch::Differs;
      if (Activation.matches(Current, P))
        Match = Memory.compare(M, StdinPos,
                               P ? Watch.masked() : std::vector<uint32_t>());
      if (Match == StateMatch::Equal)
        return TimeoutReason::Repeat;
      if (Match == StateMatch::MaskedEqual && Watch.recording() &&
          Watch.proves(M, Steps, MaxSteps))
        return TimeoutReason::Drift;
      if (!Classified) {
        Classified = true;
        Plan = Classify(Watch);
      }
    }
    if (Schedule.advance()) {
      Memory.save(M, StdinPos);
      Activation = Current;
      if (Watch.armed())
        Watch.openWindow(M, Steps);
    }
    return TimeoutReason::None;
  }
};

} // namespace spe

#endif // SPE_SUPPORT_DIVERGENCE_H
