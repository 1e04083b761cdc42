//===- core/AssignmentCursor.h - Pull-based rankable enumeration ---------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pull-based odometer over one skeleton's canonical assignments. The
/// cursor defines a total order on the class space -- the same order the
/// classic push enumeration produces -- and makes every assignment
/// *addressable* by its rank in that order:
///
///   * next()        produces assignments one at a time (O(1) amortized in
///                   exact mode);
///   * seek(rank)    jumps directly to the assignment with a given BigInt
///                   rank, in exact mode by *unranking* restricted growth
///                   strings against the counting tree DP, i.e. without
///                   stepping through any intervening assignment.
///
/// This is the per-skeleton digit of skeleton/ProgramEnumerator.h's
/// ProgramCursor, which composes one cursor per skeleton unit and alone
/// owns the active range, validity pruning and the saved cursor state. The
/// cursor only answers where a validity table's invalid subranges lie
/// (offense, invalidSpanEnd); one rank decoder serves both seek and
/// invalidSpanEnd. In SpeMode::PaperFaithful the published recursion has
/// no closed unranking, so seek degrades to a restartable skip-window over
/// the push driver (fine for the threshold-bounded spaces that mode is used
/// for); see DESIGN.md Section 5.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_CORE_ASSIGNMENTCURSOR_H
#define SPE_CORE_ASSIGNMENTCURSOR_H

#include "core/AbstractSkeleton.h"
#include "core/SpeEnumerator.h"
#include "core/ValidityPruning.h"
#include "support/BigInt.h"

#include <memory>

namespace spe {

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

  /// Produces the next assignment, or nullptr once the space is exhausted.
  /// The pointee is owned by the cursor and valid until the next call to
  /// next(), seek() or reset().
  const Assignment *next();

  /// Repositions the cursor so the next call to next() produces the
  /// assignment with rank \p Rank (clamped to size()).
  void seek(const BigInt &Rank);

  /// Equivalent to seek(0) but without the unranking cost: the odometer is
  /// rewound to its first configuration directly. This is the hot rewind on
  /// ProgramCursor's mixed-radix carry path.
  void reset();

  /// Where the most significant digit of the odometer's assignment (the
  /// one next() produced last, or seek() positioned on) that a constraint
  /// table forbids sits, as far as pruning needs to know.
  enum class Offense {
    None,    ///< The assignment violates nothing.
    OneRank, ///< A per-scope group, and every less significant digit has
             ///< radix 1: the invalid span is this one rank.
    Span,    ///< Anything else: only invalidSpanEnd knows the span.
  };

  /// Exact mode: walks the odometer's digits in the rank decoder's order
  /// -- per type, the level digit of every hole, then the per-scope groups
  /// -- and classifies the first one \p C forbids. This is the one-rank
  /// rule: a OneRank violation is stepped over on the odometer with no rank
  /// decode. Paper-faithful mode has no odometer to read, and a cursor
  /// positioned on no assignment has none either; both answer Span.
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

} // namespace spe

#endif // SPE_CORE_ASSIGNMENTCURSOR_H
