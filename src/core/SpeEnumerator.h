//===- core/SpeEnumerator.h - Non-alpha-equivalent enumeration -----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The combinatorial SPE algorithm of Section 4: enumerate (and count) one
/// canonical representative per alpha-equivalence class of a skeleton's
/// realizations. Two modes are provided:
///
/// * SpeMode::PaperFaithful implements Algorithm 1 plus Procedure
///   PartitionScope exactly as published. It reproduces every number the
///   paper states (e.g. 36 partitions in Example 6) but, as documented in
///   DESIGN.md Section 4, the published recursion misses classes that use a
///   local variable while occupying fewer than |v^g| global blocks.
///
/// * SpeMode::Exact enumerates every class exactly once. It factorizes an
///   assignment into (a) a *level map* sending each hole to the ancestor
///   scope declaring its variable and (b) one set partition per (scope, type)
///   class, and enumerates restricted growth strings per class. Counting
///   uses a bottom-up tree DP over the scope tree with BigInt arithmetic
///   (no materialization), so Table 1's 10^163-sized spaces are counted in
///   microseconds.
///
/// Both modes are per-skeleton; intra- vs inter-procedural granularity
/// (Section 4.3) is chosen by how the frontend slices programs into
/// skeletons (see skeleton/SkeletonExtractor.h).
///
/// SpeMode::Exact is the default throughout the codebase; PaperFaithful is
/// opt-in for the paper-reproduction benches. Enumeration is pull-based:
/// enumerate() is a thin wrapper over core/AssignmentCursor.h, the
/// per-skeleton odometer that also seeks by rank. Campaigns drive
/// skeleton/ProgramEnumerator.h's ProgramCursor, which composes one such
/// odometer per skeleton unit and owns ranges, pruning and saved state.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_CORE_SPEENUMERATOR_H
#define SPE_CORE_SPEENUMERATOR_H

#include "core/AbstractSkeleton.h"
#include "support/BigInt.h"

#include <functional>

namespace spe {

/// Selects the enumeration algorithm. See the file comment.
enum class SpeMode {
  /// Complete, canonical enumeration (the default).
  Exact,
  /// The literal published algorithm (Algorithm 1 + PartitionScope).
  PaperFaithful,
};

/// \returns a human-readable name for \p Mode.
const char *speModeName(SpeMode Mode);

/// Enumerates and counts non-alpha-equivalent realizations of a skeleton.
class SpeEnumerator {
public:
  SpeEnumerator(const AbstractSkeleton &Skeleton, SpeMode Mode);

  /// \returns the number of non-alpha-equivalent programs, computed without
  /// enumeration.
  BigInt count() const;

  /// Invokes \p Callback on canonical representatives until it returns
  /// false or \p Limit assignments were produced (0 = unlimited).
  /// \returns the number of assignments produced. Thin wrapper over a
  /// cursor.
  uint64_t
  enumerate(const std::function<bool(const Assignment &)> &Callback,
            uint64_t Limit = 0) const;

private:
  const AbstractSkeleton &Skeleton;
  SpeMode Mode;
};

} // namespace spe

#endif // SPE_CORE_SPEENUMERATOR_H
