//===- reduce/VariantMinimizer.h - minimal-rank canonical reproducers ----===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonicalizes a bug witness *within its own skeleton's variant space*:
/// alpha-renaming does not change a skeleton, so the witness and every
/// hole-assignment variant of it share one enumeration space, and the
/// triage pipeline can ask for the lowest-ranked assignment in cursor order
/// that still shows the bug. Two duplicate findings whose reduced witnesses
/// share a skeleton then minimize to the *same* reproducer -- the canonical
/// one per (skeleton, signature) -- which is what makes reduced bug reports
/// comparable across seeds, shards, and campaigns.
///
/// The search walks an exact-mode ProgramCursor over the witness's
/// extracted skeleton (default extraction) from rank 0 upward under the
/// witness's ValidityConstraints -- the cursor's pruning jumps whole
/// invalid subranges, so provably frontend- or oracle-rejected assignments
/// cost no render and no probe -- and stops at the first rank whose
/// rendered variant reproduces the spec (reduce/BugRepro.h). Encountering
/// the witness's own text ends the scan: no strictly smaller rank triggers,
/// and the witness is already canonical. Fixed probe and rank budgets bound
/// the worst case; on budget exhaustion the witness is returned unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_REDUCE_VARIANTMINIMIZER_H
#define SPE_REDUCE_VARIANTMINIMIZER_H

#include "reduce/BugRepro.h"

#include <string>

namespace spe {

/// Outcome of minimizing one witness.
struct MinimizeOutcome {
  /// The canonical reproducer: the lowest-ranked triggering variant found,
  /// or the witness itself when none was found in budget.
  std::string Minimized;
  /// True when the scan found a triggering variant (possibly the witness's
  /// own text) at some rank.
  bool FoundAtRank = false;
  /// The rank of Minimized when FoundAtRank (0 otherwise).
  uint64_t Rank = 0;
  /// True when Minimized differs from the input witness.
  bool Improved = false;
  /// Rendered candidates probed.
  uint64_t Probes = 0;
  /// Oracle-side counters (reduce/BugRepro.h).
  ReproStats Oracle;
};

/// Searches a witness's own variant space for the minimal-rank reproducer.
class VariantMinimizer {
public:
  /// \p Backend: compiler the signature-preservation probes run against
  /// (reduce/BugRepro.h); null = in-process MiniCC.
  explicit VariantMinimizer(OracleCache *Cache = nullptr,
                            const CompilerBackend *Backend = nullptr)
      : Cache(Cache), Backend(Backend) {}

  MinimizeOutcome minimize(const std::string &Witness,
                           const ReproSpec &Spec) const;

private:
  OracleCache *Cache;
  const CompilerBackend *Backend;
};

} // namespace spe

#endif // SPE_REDUCE_VARIANTMINIMIZER_H
