//===- reduce/BugRepro.h - signature-preservation oracle -----------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interestingness predicate of the whole reduction pipeline: does a
/// candidate program still constitute a *valid report of the same bug*? A
/// candidate reproduces a finding iff
///
///   1. its own frontend (parse + Sema) accepts it,
///   2. the reference oracle runs it to completion -- UB / timeout /
///      unsupported candidates are rejected exactly like the campaign's
///      Section 5.4 exclusion, so reduction can never "simplify" a crash
///      reproducer into an invalid test case, and
///   3. compiling it under the finding's configuration shows the same
///      normalized behavioral signature (triage/BugSignature.h): the same
///      crashing-pass text for ICEs, a divergence of the same kind against
///      the candidate's *own* oracle verdict for miscompilations, and a
///      pathological compile cost for performance bugs.
///
/// The oracle half (the per-candidate interpretation) is the expensive part
/// and is memoized through the campaign-shared testing/OracleCache, so
/// re-probing a candidate text the campaign or an earlier ddmin round
/// already interpreted costs a lookup; an additional per-instance verdict
/// memo makes repeated probes of identical candidate text (ddmin revisits
/// subsets near convergence) free. Both layers replay deterministic
/// verdicts, so a ReproOracle is deterministic for a fixed spec.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_REDUCE_BUGREPRO_H
#define SPE_REDUCE_BUGREPRO_H

#include "compiler/Backend.h"
#include "compiler/Bugs.h"

#include <cstdint>
#include <string>
#include <unordered_map>

namespace spe {

class OracleCache;

/// What must be preserved across reduction: the compiler configuration the
/// finding manifested under and its normalized behavioral signature.
struct ReproSpec {
  CompilerConfig Config;
  BugEffect Effect = BugEffect::Crash;
  /// Normalized signature key (triage/normalizeSignature).
  std::string SignatureKey;
  /// The stdin sweep input the finding manifested under (FoundBug::Input);
  /// empty for the classic single empty-stdin execution. Probes interpret
  /// and execute candidates under this input, so a divergence that only
  /// manifests for one seeded spe_input() value keeps reproducing while
  /// its witness shrinks.
  std::string Input;
  /// Ground-truth injection switch; mirrors HarnessOptions::InjectBugs.
  bool InjectBugs = true;
  /// Interpreter step budget of each probe's oracle verdict; mirrors
  /// HarnessOptions::OracleMaxSteps, so a witness is reduced under the
  /// campaign's own exclusion rule and the verdicts it writes into a shared
  /// cache are the ones the campaign would have computed.
  uint64_t OracleMaxSteps = 2'000'000;
};

/// Probe counters of one oracle instance.
struct ReproStats {
  uint64_t Probes = 0;          ///< reproduces() calls.
  uint64_t MemoHits = 0;        ///< Answered from the per-instance memo.
  uint64_t OracleRuns = 0;      ///< Reference interpretations performed.
  uint64_t OracleCacheHits = 0; ///< Verdicts replayed from the shared cache.
  /// Probes whose candidate parsed cleanly but did not terminate: the
  /// oracle's Timeout verdict, whether a loop-head proof or the step budget
  /// ended the run (cache-replayed Timeout verdicts count too). A
  /// reduction meets these when ddmin deletes a loop's counter update.
  uint64_t TimeoutRuns = 0;
};

/// Memoizing "does this candidate still show the bug" predicate.
class ReproOracle {
public:
  /// \p Backend is the compiler candidates are probed against; null = the
  /// in-process MiniCC driver honoring Spec.InjectBugs. Findings from an
  /// external backend must be re-probed through the same backend.
  explicit ReproOracle(ReproSpec Spec, OracleCache *Cache = nullptr,
                       const CompilerBackend *Backend = nullptr)
      : Spec(std::move(Spec)), Cache(Cache), Backend(Backend),
        Fallback(this->Spec.InjectBugs) {}

  /// \returns true iff \p Source is frontend-valid, oracle-accepted, and
  /// shows the spec's signature under the spec's configuration.
  bool reproduces(const std::string &Source);

  const ReproSpec &spec() const { return Spec; }
  const ReproStats &stats() const { return Stats; }

private:
  bool evaluate(const std::string &Source);

  ReproSpec Spec;
  OracleCache *Cache;
  const CompilerBackend *Backend;
  /// Used when Backend is null: the historical in-process probe path.
  InProcessBackend Fallback;
  ReproStats Stats;
  std::unordered_map<std::string, bool> Memo;
};

} // namespace spe

#endif // SPE_REDUCE_BUGREPRO_H
