//===- reduce/SkeletonReducer.h - structural witness reduction -----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural reduction of a bug-witness program, the triage pipeline's
/// analogue of C-Reduce in the paper's reporting workflow: parse the
/// witness, then shrink it while the signature-preservation oracle
/// (reduce/BugRepro.h) confirms the finding still reproduces. Three passes
/// iterate to a fixpoint (at most four rounds):
///
///   1. Statement deletion -- ddmin (reduce/DeltaDebug.h) over the Sema
///      statement ids of every function body; deleted statements print as
///      `;` through AstPrinter::setDeletedStmts, and the 1-minimal kept set
///      is re-parsed as the new witness.
///   2. Declaration dropping -- a greedy sweep over top-level globals,
///      records, and non-main helper functions via setDeletedDecls; a decl
///      some surviving use still needs fails the candidate's own re-parse
///      and is kept automatically.
///   3. Expression simplification and loop shrinking -- a greedy pre-order
///      sweep proposing, per expression, its own operands or the literals
///      0/1 (and, for loop conditions, 0 -- which shrinks the loop to its
///      minimum trip count) via setReplacedExprs; a replacement is accepted
///      only when it both shrinks the token count and preserves the
///      signature, which guarantees termination.
///
/// Every accepted step re-parses printed source, so the pipeline exercises
/// the renderer/parser round-trip on each shrink; a candidate that fails its
/// own frontend is simply rejected by the oracle. So is a candidate that
/// diverges (a frequent ddmin byproduct: the counter update deleted, the
/// loop kept): the reference interpreter proves it non-terminating at the
/// loop head once the loop-head state repeats or only drifts (DESIGN.md
/// Section 18), long before the step budget runs out. All probe order is
/// fixed, so reduction is deterministic for a deterministic oracle.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_REDUCE_SKELETONREDUCER_H
#define SPE_REDUCE_SKELETONREDUCER_H

#include "reduce/BugRepro.h"

#include <string>

namespace spe {

/// Outcome of reducing one witness.
struct ReductionOutcome {
  /// The reduced witness; equals the input when nothing could be removed
  /// (or when the witness does not reproduce the spec at all).
  std::string Reduced;
  uint64_t TokensBefore = 0;
  uint64_t TokensAfter = 0;
  uint64_t StatementsDeleted = 0;
  uint64_t DeclsDropped = 0;
  uint64_t ExprsSimplified = 0;
  /// Oracle-side probe counters (reduce/BugRepro.h).
  ReproStats Oracle;
};

/// Reduces bug witnesses structurally while preserving their signature.
class SkeletonReducer {
public:
  /// \p Backend: compiler the signature-preservation probes run against
  /// (reduce/BugRepro.h); null = in-process MiniCC.
  explicit SkeletonReducer(OracleCache *Cache = nullptr,
                           const CompilerBackend *Backend = nullptr)
      : Cache(Cache), Backend(Backend) {}

  /// Shrinks \p Witness while \p Spec keeps reproducing.
  ReductionOutcome reduce(const std::string &Witness,
                          const ReproSpec &Spec) const;

private:
  OracleCache *Cache;
  const CompilerBackend *Backend;
};

/// \returns the number of lexical tokens of \p Source (EOF excluded), the
/// size metric of the paper's reporting pipeline and of ReductionStats.
uint64_t tokenCount(const std::string &Source);

} // namespace spe

#endif // SPE_REDUCE_SKELETONREDUCER_H
