//===- skeleton/ProgramEnumerator.h - whole-program enumeration ----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Whole-program enumeration over a list of skeleton units: Algorithm 1
/// line 7 of the paper ("the global solution of P is obtained by computing
/// the Cartesian product of each function"). Counting multiplies per-unit
/// counts; enumeration streams the Cartesian product with a limit. With
/// inter-procedural extraction there is a single unit and this reduces to
/// SpeEnumerator.
///
/// ProgramCursor makes the product pull-based and rankable: per-unit
/// AssignmentCursors compose into a mixed-radix cursor whose radices are the
/// per-unit BigInt counts, so whole-program variant #k is addressable
/// directly via seek(k). It is the one cursor every consumer drives, and
/// the only owner of an active range, of validity pruning and of the saved
/// CursorState: a campaign's rank chunk or a fleet lease is a CursorState
/// over a contiguous rank range (cursor_detail::shardRange), restored into
/// a cursor -- the primitive behind the parallel differential campaigns in
/// testing/Harness.h.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SKELETON_PROGRAMENUMERATOR_H
#define SPE_SKELETON_PROGRAMENUMERATOR_H

#include "core/AssignmentCursor.h"
#include "core/SpeEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "support/BigInt.h"

#include <functional>
#include <string>

namespace spe {

/// One variant of the whole program: one assignment per skeleton unit.
using ProgramAssignment = std::vector<Assignment>;

/// Serializable cursor position, the unit of state the persistence layer
/// (src/persist/) snapshots per worker. All three fields are decimal BigInt
/// strings, so the format is stable across word sizes and the rank space
/// may exceed 2^64. Restoring is pure rank arithmetic: because cursors make
/// every variant addressable by rank, a restored cursor re-derives its
/// odometer by unranking -- positions are never renumbered, in exact or
/// paper-faithful mode.
struct CursorState {
  std::string Position; ///< Rank the next next() will produce.
  std::string End;      ///< Exclusive upper bound of the active range.
  std::string Pruned;   ///< Ranks skipped as invalid so far.

  bool operator==(const CursorState &Other) const {
    return Position == Other.Position && End == Other.End &&
           Pruned == Other.Pruned;
  }
};

namespace cursor_detail {

/// Splits [Pos, End) into \p Count contiguous near-equal rank ranges and
/// stores the \p Index-th as [Begin, NewEnd); the union of the \p Count
/// ranges is exactly [Pos, End). The harness cuts a seed's budget into its
/// rank chunks with it, each chunk restoring its range into a cursor.
inline void shardRange(const BigInt &Pos, const BigInt &End, uint64_t Index,
                       uint64_t Count, BigInt &Begin, BigInt &NewEnd) {
  BigInt Len = End < Pos ? BigInt(0) : End - Pos;
  Begin = Pos + (Len * Index).divideBySmall(Count);
  NewEnd = Pos + (Len * (Index + 1)).divideBySmall(Count);
}

} // namespace cursor_detail

/// Pull-based, rankable cursor over whole-program variants: the mixed-radix
/// Cartesian product of per-unit cursors, unit 0 most significant. Rank
/// order equals ProgramEnumerator::enumerate() order.
class ProgramCursor {
public:
  ProgramCursor(const std::vector<SkeletonUnit> &Units, SpeMode Mode);

  /// \returns the total number of program variants (the product of the
  /// per-unit counts).
  const BigInt &size() const { return Size; }

  /// \returns the rank of the variant the next call to next() produces.
  const BigInt &position() const { return Pos; }

  /// \returns the exclusive upper bound of the active range.
  const BigInt &end() const { return End; }

  /// Produces the next program variant, or nullptr when the active range is
  /// exhausted. The pointee is owned by the cursor and valid until the next
  /// call to next(), seek() or restoreState().
  const ProgramAssignment *next();

  /// Repositions the cursor so the next call to next() produces the variant
  /// with rank \p Rank (clamped to size()).
  void seek(const BigInt &Rank);

  /// Shrinks the active range's exclusive upper bound (clamped to size()).
  void setEnd(const BigInt &Rank);

  /// Enables validity pruning: next() skips program variants in which some
  /// unit's assignment violates that unit's constraints, in exact mode by
  /// jumping whole mixed-radix subranges (all combinations of the
  /// less-significant units below an offending digit are skipped at once).
  /// \p PerUnit must have one entry per unit (nullptr entries disable
  /// pruning for that unit) and outlive the cursor. Ranks are not
  /// renumbered, so seek, shard-range and budget semantics and shard-merge
  /// determinism are unchanged.
  void setConstraints(std::vector<const ValidityConstraints *> PerUnit);

  /// \returns the total number of ranks next() skipped as invalid.
  const BigInt &pruned() const { return Pruned; }

  /// The one-rank rule over the whole program (AssignmentCursor::offense):
  /// the first unit whose assignment violates its table in \p PerUnit (one
  /// entry per unit, nullptr = none) decides, and its OneRank stands only
  /// when every later unit has exactly one assignment. Reads the variant
  /// next() produced last, or seek() positioned on.
  AssignmentCursor::Offense
  offense(const std::vector<const ValidityConstraints *> &PerUnit) const;

  /// Exact mode: \returns the exclusive end of the maximal subrange starting
  /// at \p Rank that is invalid under \p PerUnit, or \p Rank itself when
  /// that variant is valid. Pure rank arithmetic; in paper-faithful mode the
  /// result is always \p Rank.
  BigInt invalidSpanEnd(const BigInt &Rank,
                        const std::vector<const ValidityConstraints *>
                            &PerUnit) const;

  /// Snapshots the cursor's position for persistence. Per-unit cursor
  /// states need not be captured: the program rank alone addresses the
  /// whole mixed-radix configuration. Constraints are not part of the
  /// state -- the caller re-derives and re-attaches them on restore
  /// (validated by fingerprint in src/persist/Checkpoint.h).
  CursorState saveState() const;

  /// Repositions the cursor from a saved state: setEnd(End) + seek(Position)
  /// with the pruned counter restored. A Position the cursor already holds
  /// is not sought again, so a cursor runs consecutive ranges with no rank
  /// decode between them. \returns false (cursor untouched) on malformed
  /// fields or an inconsistent range.
  bool restoreState(const CursorState &State);

private:
  /// Decodes rank \p Rank into per-unit cursor positions and fills Current.
  void materialize(const BigInt &Rank);

  /// Produces the variant at Pos with no validity filtering.
  const ProgramAssignment *produce();

  std::vector<AssignmentCursor> UnitCursors;
  std::vector<BigInt> UnitSuffix; ///< UnitSuffix[u] = prod sizes of u..N-1.
  SpeMode Mode;
  BigInt Size;
  BigInt Pos;
  BigInt End;
  ProgramAssignment Current;
  BigInt OdoRank; ///< Rank currently materialized in Current.
  bool OdoValid = false;
  /// Per-unit validity constraints; empty vector = pruning disabled.
  std::vector<const ValidityConstraints *> Constraints;
  bool HasForbidden = false;
  BigInt Pruned;
};

/// Enumerates and counts program variants across units.
class ProgramEnumerator {
public:
  ProgramEnumerator(const std::vector<SkeletonUnit> &Units, SpeMode Mode);

  /// \returns the product of the per-unit SPE counts.
  BigInt countSpe() const;

  /// \returns the product of the per-unit naive counts (prod |v_i|).
  BigInt countNaive() const;

  /// Streams program variants until the callback declines or \p Limit is
  /// reached (0 = unlimited). \returns the number of variants produced.
  /// Thin wrapper over a cursor.
  uint64_t enumerate(
      const std::function<bool(const ProgramAssignment &)> &Callback,
      uint64_t Limit = 0) const;

private:
  const std::vector<SkeletonUnit> &Units;
  SpeMode Mode;
};

} // namespace spe

#endif // SPE_SKELETON_PROGRAMENUMERATOR_H
