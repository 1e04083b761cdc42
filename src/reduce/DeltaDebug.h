//===- reduce/DeltaDebug.h - generic ddmin over indexed chunks -----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Zeller & Hildebrandt's ddmin ("Simplifying and Isolating Failure-Inducing
/// Input", TSE 2002), the workhorse behind the bug-triage pipeline's
/// structural reduction. The algorithm is generic: it minimizes an *index
/// set* [0, N) against a caller-supplied interestingness predicate; the
/// reducer's statement-deletion pass maps the indices onto statements.
///
/// Contract: the predicate must hold on the full index set; the result is a
/// 1-minimal subset on which it still holds (removing any single element
/// makes it fail). Probes are issued in a fixed order, so runs are
/// deterministic for a deterministic predicate -- the property the
/// post-campaign triage pass's thread-count invariance rests on.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_REDUCE_DELTADEBUG_H
#define SPE_REDUCE_DELTADEBUG_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace spe {

/// Counters of one ddmin run.
struct DdminStats {
  /// Predicate evaluations (excluding any the caller memoized away).
  uint64_t Probes = 0;
  /// Probes on which the predicate held (each one shrinks the set).
  uint64_t Reductions = 0;
  /// Granularity-doubling rounds.
  uint64_t Rounds = 0;
};

/// The interestingness predicate: receives the kept indices in ascending
/// order and \returns true when the property of interest (e.g. "the bug
/// still reproduces") holds for that subset.
using DdminPredicate = std::function<bool(const std::vector<size_t> &)>;

/// Runs ddmin over the index set [0, \p N). \p Test must hold on the full
/// set; \returns a 1-minimal subset (ascending) on which it still holds.
/// \p Stats, when non-null, accumulates probe counters.
std::vector<size_t> ddmin(size_t N, const DdminPredicate &Test,
                          DdminStats *Stats = nullptr);

} // namespace spe

#endif // SPE_REDUCE_DELTADEBUG_H
