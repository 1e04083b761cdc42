//===- core/AssignmentCursor.h - Pull-based rankable enumeration ---------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pull-based cursor over a skeleton's canonical assignments. The cursor
/// defines a total order on the class space -- the same order the classic
/// push enumeration produces -- and makes every assignment *addressable* by
/// its rank in that order:
///
///   * next()        produces assignments one at a time (O(1) amortized in
///                   exact mode);
///   * seek(rank)    jumps directly to the assignment with a given BigInt
///                   rank, in exact mode by *unranking* restricted growth
///                   strings against the counting tree DP, i.e. without
///                   stepping through any intervening assignment;
///   * shard(i, n)   restricts the cursor to the i-th of n contiguous,
///                   near-equal rank ranges, which is how the differential
///                   harness splits one variant space across worker threads.
///
/// Sharding is an exact partition: the union of the n shards visits every
/// assignment of the original range exactly once. In SpeMode::PaperFaithful
/// the published recursion has no closed unranking, so seek degrades to a
/// restartable skip-window over the push driver (fine for the threshold-
/// bounded spaces that mode is used for); see DESIGN.md Section 5.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_CORE_ASSIGNMENTCURSOR_H
#define SPE_CORE_ASSIGNMENTCURSOR_H

#include "core/AbstractSkeleton.h"
#include "core/SpeEnumerator.h"
#include "core/ValidityPruning.h"
#include "support/BigInt.h"

#include <memory>
#include <string>

namespace spe {

/// Serializable cursor position, the unit of state the persistence layer
/// (src/persist/) snapshots per worker. All three fields are decimal BigInt
/// strings, so the format is stable across word sizes and the rank space
/// may exceed 2^64. Restoring is pure rank arithmetic: because cursors make
/// every assignment addressable by rank, a restored cursor re-derives its
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

/// Pull-based, rankable cursor over the canonical assignments of a skeleton.
class AssignmentCursor {
public:
  AssignmentCursor(const AbstractSkeleton &Skeleton, SpeMode Mode);
  ~AssignmentCursor();
  AssignmentCursor(AssignmentCursor &&Other) noexcept;
  AssignmentCursor &operator=(AssignmentCursor &&Other) noexcept;

  /// \returns the total number of assignments in cursor order (the same
  /// value SpeEnumerator::count() reports for this mode).
  const BigInt &size() const;

  /// \returns the rank of the assignment the next call to next() produces.
  const BigInt &position() const;

  /// \returns the exclusive upper bound of the active range.
  const BigInt &end() const;

  /// Produces the next assignment, or nullptr when the active range is
  /// exhausted. The pointee is owned by the cursor and valid until the next
  /// call to next(), seek() or shard().
  const Assignment *next();

  /// Repositions the cursor so the next call to next() produces the
  /// assignment with rank \p Rank (clamped to size()).
  void seek(const BigInt &Rank);

  /// Equivalent to seek(0) but without the unranking cost: the odometer is
  /// rewound to its first configuration directly. This is the hot rewind on
  /// ProgramCursor's mixed-radix carry path.
  void reset();

  /// Shrinks the active range's exclusive upper bound to \p Rank (clamped
  /// to size()). Positions at or past the bound are exhausted.
  void setEnd(const BigInt &Rank);

  /// Restricts the cursor to shard \p Index of \p Count over the active
  /// range [position(), end()): contiguous rank sub-ranges of near-equal
  /// length whose union is exactly the original range.
  void shard(uint64_t Index, uint64_t Count);

  /// Enables validity pruning: next() silently skips every assignment that
  /// violates \p C (see core/ValidityPruning.h), in exact mode by jumping
  /// over whole subranges that share the offending digit. Ranks are not
  /// renumbered -- position(), seek() and shard() keep their unpruned
  /// semantics. \p C must outlive the cursor; pass nullptr to disable.
  void setConstraints(const ValidityConstraints *C);

  /// \returns the total number of ranks next() skipped as invalid since
  /// construction.
  const BigInt &pruned() const;

  /// Snapshots the cursor's position for persistence. Constraints are not
  /// part of the state -- the caller re-derives and re-attaches them on
  /// restore (validated by fingerprint in src/persist/Checkpoint.h).
  CursorState saveState() const;

  /// Repositions the cursor from a saved state: equivalent to setEnd(End)
  /// + seek(Position) with the pruned counter restored. \returns false
  /// (cursor untouched) when a field is not a decimal integer or the
  /// range is inconsistent (Position > End or End > size()).
  bool restoreState(const CursorState &State);

  /// Where the most significant digit of the odometer's assignment (the
  /// one next() produced last, or seek() positioned on) that a constraint
  /// table forbids sits, as far as pruning needs to know.
  enum class Offense {
    None,    ///< The assignment violates nothing.
    OneRank, ///< A per-scope group, and every less significant digit has
             ///< radix 1: the invalid span is this one rank.
    Span,    ///< Anything else: only invalidSpanEnd knows the span.
  };

  /// Exact mode: walks the odometer's digits in the order invalidSpanEnd
  /// decodes them -- per type, the level digit of every hole, then the
  /// per-scope groups -- and classifies the first one \p C forbids. This is
  /// the one-rank rule: a OneRank violation is stepped over on the odometer
  /// with no rank decode. Paper-faithful mode has no odometer to read, and
  /// a cursor positioned on no assignment has none either; both answer
  /// Span.
  Offense offense(const ValidityConstraints &C) const;

  /// Exact mode: \returns the exclusive end of the maximal invalid-under-\p
  /// C subrange starting at \p Rank, or \p Rank itself when the assignment
  /// with that rank violates nothing. Every rank in [Rank, result) shares
  /// the most significant forbidden digit and is invalid. Pure rank
  /// arithmetic -- the cursor's position and odometer are untouched. In
  /// paper-faithful mode there is no closed digit decomposition and the
  /// result is always \p Rank (callers filter produced assignments
  /// instead).
  BigInt invalidSpanEnd(const BigInt &Rank,
                        const ValidityConstraints &C) const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

namespace cursor_detail {

/// Strict decimal parse for restoreState: \returns false unless \p Text is
/// a non-empty all-digit string (BigInt::fromDecimalString asserts on
/// malformed input, which is wrong for data read from disk).
inline bool parseDecimal(const std::string &Text, BigInt &Out) {
  if (Text.empty())
    return false;
  for (char C : Text)
    if (C < '0' || C > '9')
      return false;
  Out = BigInt::fromDecimalString(Text);
  return true;
}

/// Splits [Pos, End) into \p Count contiguous near-equal rank ranges and
/// stores the \p Index-th as [Begin, NewEnd). Shared by the per-skeleton and
/// per-program cursors so the exact-partition arithmetic cannot drift.
inline void shardRange(const BigInt &Pos, const BigInt &End, uint64_t Index,
                       uint64_t Count, BigInt &Begin, BigInt &NewEnd) {
  BigInt Len = End < Pos ? BigInt(0) : End - Pos;
  Begin = Pos + (Len * Index).divideBySmall(Count);
  NewEnd = Pos + (Len * (Index + 1)).divideBySmall(Count);
}

} // namespace cursor_detail

} // namespace spe

#endif // SPE_CORE_ASSIGNMENTCURSOR_H
