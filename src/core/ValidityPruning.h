//===- core/ValidityPruning.h - Per-hole forbidden variable sets ----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Skeleton-level validity constraints: per-hole sets of *forbidden*
/// variables, i.e. single hole choices that make the variant invalid no
/// matter what the other holes do. The facts are produced by the frontend
/// def-before-use analysis (skeleton/ValidityAnalysis.h) and consumed by
/// ProgramCursor (skeleton/ProgramEnumerator.h), whose one pruning loop
/// skips whole mixed-radix subranges whose most significant offending digit
/// is forbidden -- most invalid variants are never materialized, rendered,
/// or interpreted (compare the by-construction rejection argument of
/// Stepanov et al., "Type-Centric Kotlin Compiler Fuzzing", 2020). The
/// per-skeleton cursors only locate those subranges
/// (AssignmentCursor::offense and invalidSpanEnd).
///
/// Ranks are *not* renumbered: a pruned cursor walks the same canonical rank
/// space as an unpruned one and merely skips invalid ranks, so seek(rank),
/// shard ranges, budget prefixes, and deterministic shard merges keep their
/// exact semantics.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_CORE_VALIDITYPRUNING_H
#define SPE_CORE_VALIDITYPRUNING_H

#include "core/AbstractSkeleton.h"

#include <vector>

namespace spe {

/// Per-hole forbidden variable sets for one skeleton. Forbidden[h][v] means:
/// every variant assigning variable v to hole h is invalid (it fails the
/// variant frontend or is rejected by the reference oracle) regardless of
/// the other holes, so the whole stratum may be skipped.
struct ValidityConstraints {
  /// Forbidden[h][v] indexed by hole index and VarId; empty when no analysis
  /// ran. Stored as uint8_t to dodge std::vector<bool> aliasing costs.
  std::vector<std::vector<uint8_t>> Forbidden;

  /// Sizes the table to \p Sk with nothing forbidden.
  void reset(const AbstractSkeleton &Sk) {
    Forbidden.assign(Sk.numHoles(),
                     std::vector<uint8_t>(Sk.numVars(), 0));
  }

  void forbid(unsigned Hole, VarId V) { Forbidden[Hole][V] = 1; }

  bool forbids(unsigned Hole, VarId V) const {
    return Hole < Forbidden.size() && V < Forbidden[Hole].size() &&
           Forbidden[Hole][V] != 0;
  }

  /// \returns true when no (hole, var) pair is forbidden; cursors skip all
  /// pruning work in that case.
  bool empty() const {
    for (const auto &Row : Forbidden)
      for (uint8_t B : Row)
        if (B)
          return false;
    return true;
  }

  /// \returns the number of forbidden (hole, var) pairs.
  uint64_t forbiddenPairs() const {
    uint64_t N = 0;
    for (const auto &Row : Forbidden)
      for (uint8_t B : Row)
        N += B;
    return N;
  }
};

/// \returns true iff \p A assigns some hole a variable \p C forbids.
bool assignmentViolates(const Assignment &A, const ValidityConstraints &C);

/// Borrows a per-unit pointer view of \p Tables, the shape
/// ProgramCursor::setConstraints consumes. \p Tables must outlive the view;
/// shared by the harness shard workers, the variant-rank minimizer, and the
/// pruning tests.
inline std::vector<const ValidityConstraints *>
constraintPtrs(const std::vector<ValidityConstraints> &Tables) {
  std::vector<const ValidityConstraints *> Ptrs;
  Ptrs.reserve(Tables.size());
  for (const ValidityConstraints &C : Tables)
    Ptrs.push_back(&C);
  return Ptrs;
}

} // namespace spe

#endif // SPE_CORE_VALIDITYPRUNING_H
