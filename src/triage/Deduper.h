//===- triage/Deduper.h - signature clustering + triage pipeline ---------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-campaign triage pipeline: what stands between "the campaign
/// emitted raw FoundBugs" and "a human can read the report". Three stages,
/// all deterministic:
///
///   1. Cluster -- findings are grouped by behavioral signature
///      (triage/BugSignature.h); within each cluster the smallest witness
///      (fewest tokens, ties broken by text then ground-truth id) becomes
///      the representative. Duplicates across configs, shards, and personas
///      collapse here.
///   2. Reduce -- the representative witness is shrunk by the structural
///      reducer (reduce/SkeletonReducer.h) while the signature-preservation
///      oracle confirms the finding still reproduces.
///   3. Canonicalize -- the reduced witness is replaced by the minimal-rank
///      triggering variant of its own skeleton (reduce/VariantMinimizer.h),
///      so equal bugs reached through different variants converge on one
///      reproducer.
///
/// The pipeline runs on a merged CampaignResult and reads only its
/// RawFindings map (falling back to UniqueBugs for results that carry no
/// raw stream); both maps are thread-count invariant by construction, which
/// is what makes the triaged report bit-identical across harness thread
/// counts. Oracle re-probes flow through the campaign's shared
/// testing/OracleCache when it has one.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_TRIAGE_DEDUPER_H
#define SPE_TRIAGE_DEDUPER_H

#include "reduce/SkeletonReducer.h"
#include "reduce/VariantMinimizer.h"
#include "testing/Harness.h"

#include <map>
#include <vector>

namespace spe {

/// \returns the normalized signature of one finding.
BugSignature signatureOf(const FoundBug &Bug);

/// Stage 1 alone: clusters findings by signature and picks the smallest
/// representative per cluster (fewest witness tokens, ties broken by
/// witness text then ground-truth id; no reduction). Clusters are sorted
/// by signature; MemberIds ascending and unique. Findings are visited in
/// the order given, which both map overloads make deterministic.
std::vector<TriagedBug>
clusterBySignature(const std::vector<const FoundBug *> &Bugs);
std::vector<TriagedBug>
clusterBySignature(const std::map<FindingKey, FoundBug> &Raw);
std::vector<TriagedBug>
clusterBySignature(const std::map<int, FoundBug> &Bugs);

/// Runs the full pipeline over \p Result's raw finding stream (falling
/// back to UniqueBugs for results that carry none) and fills
/// \p Result.Triaged / \p Result.Reduction, with default reducer and
/// minimizer options. \p Opts is the campaign's own: its Cache memoizes
/// every re-probe, and its InjectBugs and OracleMaxSteps shape each probe
/// (ReproSpec). A finding re-probes through the roster backend it was
/// attributed to (FoundBug::Backend matching an identity()), else through
/// Backend (null = in-process MiniCC): an external compiler's
/// signature-only finding would never reproduce under another compiler.
/// Findings attributed to "reference-oracle" skip reduction entirely -- no
/// single compiler reproduces an oracle-outvoted divergence. Stages record
/// global-phase spans (triage_dedup / triage_ddmin / triage_minimize) into
/// Telemetry when set. Deterministic: depends only on those maps and
/// \p Opts (a shared cache changes cost counters, never verdicts).
void triageCampaign(CampaignResult &Result, const HarnessOptions &Opts = {});

} // namespace spe

#endif // SPE_TRIAGE_DEDUPER_H
