//===- testing/Harness.h - differential testing campaign -----------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential-testing loop of Section 5: enumerate a seed's skeleton,
/// validate each variant with the reference oracle (UB/timeout variants are
/// excluded, Section 5.4), compile and execute with each configuration
/// through the pluggable CompilerBackend (the paper uses -O0/-O3 x two
/// machine modes for crash hunting) and compare behavior against the
/// oracle. Under the default in-process MiniCC backend, crash signatures
/// and wrong-code divergences are deduplicated against the ground-truth
/// injected-bug ids, which is information the paper's authors did not
/// have -- it lets the benches report found/missed precisely. Backends
/// without ground truth (compiler/ExternalBackend.h) flow through
/// signature-only dedup instead: FoundBug::BugId 0, raw findings keyed by
/// normalized behavioral signature.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_TESTING_HARNESS_H
#define SPE_TESTING_HARNESS_H

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "core/SpeEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "support/Telemetry.h"
#include "testing/OracleCache.h"
#include "triage/BugSignature.h"

#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace spe {

class CampaignStatusFeed;

/// The campaign-shaping options: plain values only, so a fleet ships them
/// to its workers as they are (distrib/FleetProtocol.h). walkCampaignSpec
/// below is where each field's kind and the reason for it are written.
struct CampaignSpec {
  /// Enumeration mode; Exact is the default everywhere, PaperFaithful is
  /// opt-in for the paper-reproduction benches.
  SpeMode Mode = SpeMode::Exact;
  ExtractorOptions Extract;
  /// Skip seeds whose SPE count exceeds this (the paper's 10K threshold).
  uint64_t VariantThreshold = 10'000;
  /// Cap on variants actually executed per seed (testing budget).
  uint64_t VariantBudget = 400;
  /// Worker threads of the campaign (0 = one per hardware thread). Each
  /// seed's budgeted range is cut into the same grid of at most 16 rank
  /// chunks at every thread count, so a campaign never runs more threads
  /// than that (a larger value is cut with a warning on stderr); above one
  /// thread, this many workers claim a seed's chunks in rank order.
  /// Results, and the checkpoint layout, are identical for any thread
  /// count, so a snapshot resumes under any value. Fleet leases always run
  /// single-cursor.
  unsigned Threads = 1;
  /// Variants per compile batch handed to CompilerBackend::beginBatch
  /// (DESIGN.md Section 13); 1 = unbatched: each tested variant is a
  /// batch of one, finished before the next variant's oracle runs. Larger
  /// batches profit only backends with real per-compile subprocess cost
  /// (ExternalBackend); the in-process backend lowers each variant once
  /// for all configs at any batch size.
  uint64_t BatchSize = 1;
  /// Ground-truth bug injection on/off.
  bool InjectBugs = true;
  /// Validity pruning (skeleton/ValidityAnalysis.h): skip variants that are
  /// provably frontend- or oracle-rejected without rendering or
  /// interpreting them. Sound by construction -- bugs, coverage and
  /// VariantsTested are bit-identical with pruning off; only
  /// VariantsEnumerated / VariantsPruned / oracle-cost counters change.
  bool PruneInvalid = true;
  /// Opt-in post-campaign triage (triage/Deduper.h): cluster the raw
  /// findings by behavioral signature, reduce each cluster's representative
  /// witness (statement ddmin + decl dropping + expression simplification,
  /// reduce/SkeletonReducer.h), and canonicalize it to the minimal-rank
  /// triggering variant of its own skeleton (reduce/VariantMinimizer.h).
  /// Runs single-threaded on the merged result, so the triaged output is
  /// deterministic and identical for any Threads value; reduction re-probes
  /// share the campaign's Cache when set.
  bool Triage = false;
  /// Interpreter step budget per oracle execution. Variants that exhaust
  /// it are Timeout and excluded from testing, the paper's treatment of
  /// (potential) non-termination. Loop-corpus campaigns lower this so
  /// diverging variants are cheap to exclude. It also salts the
  /// OracleCache verdict key.
  uint64_t OracleMaxSteps = 2'000'000;
  /// Compiler configurations to test.
  std::vector<CompilerConfig> Configs;
};

/// Whether a campaign option can change what the campaign produces.
enum class OptionKind {
  /// Folded into the checkpoint options fingerprint, so a snapshot never
  /// resumes under another value.
  ResultAffecting,
  /// Left out of it: a snapshot may resume under any value.
  ResultNeutral,
};

/// Visits every CampaignSpec field as V(Name, Kind, Field), in the order
/// the fleet spec document writes them. This walk alone decides which
/// fields the checkpoint options fingerprint folds, and it writes and
/// parses the fleet spec document. Configs is visited whole; visitors step
/// into each entry with walkCompilerConfig. The structured bindings must
/// name every member, so a field added to CampaignSpec, ExtractorOptions
/// or CompilerConfig without an entry here does not compile.
template <class Spec, class Visitor>
void walkCampaignSpec(Spec &S, Visitor &&V) {
  using Base = std::conditional_t<std::is_const_v<Spec>, const CampaignSpec,
                                  CampaignSpec>;
  constexpr OptionKind Affecting = OptionKind::ResultAffecting;
  auto &[Mode, Extract, VariantThreshold, VariantBudget, Threads, BatchSize,
         InjectBugs, PruneInvalid, Triage, OracleMaxSteps, Configs] =
      static_cast<Base &>(S);
  auto &[Gran, Model] = Extract;
  V("Mode", Affecting, Mode);
  V("Extract.Gran", Affecting, Gran);
  V("Extract.Model", Affecting, Model);
  V("VariantThreshold", Affecting, VariantThreshold);
  V("VariantBudget", Affecting, VariantBudget);
  // Results are identical for any thread count, and a snapshot's in-flight
  // section lists the seed's rank chunks, whose grid does not depend on
  // it: a campaign may resume on more or fewer threads.
  V("Threads", OptionKind::ResultNeutral, Threads);
  // By the batch contract every recorded observation has unbatched
  // provenance, so findings, counters, triage and checkpoint bytes are
  // bit-identical for every batch size, and a campaign may resume at
  // another one (e.g. re-tuned for a new host).
  V("BatchSize", OptionKind::ResultNeutral, BatchSize);
  V("InjectBugs", Affecting, InjectBugs);
  V("PruneInvalid", Affecting, PruneInvalid);
  // Triaged/Reduction are recomputed on resume, so a snapshot written
  // without triage must not resume under a triaging campaign.
  V("Triage", Affecting, Triage);
  // The step budget decides which variants are excluded as Timeout.
  V("OracleMaxSteps", Affecting, OracleMaxSteps);
  V("Configs", Affecting, Configs);
}

/// walkCampaignSpec's step into one Configs entry.
template <class Config, class Visitor>
void walkCompilerConfig(Config &C, Visitor &&V) {
  constexpr OptionKind Affecting = OptionKind::ResultAffecting;
  auto &[P, Version, OptLevel, Mode64, ExecSweep] = C;
  V("P", Affecting, P);
  V("Version", Affecting, Version);
  V("OptLevel", Affecting, OptLevel);
  V("Mode64", Affecting, Mode64);
  // The sweep set shapes which matrix cells exist.
  V("ExecSweep", Affecting, ExecSweep);
}

/// Harness configuration: the campaign's spec plus the objects, paths and
/// hooks one process attaches to it.
struct HarnessOptions : CampaignSpec {
  HarnessOptions() = default;
  /// \p Spec with no backend, cache, coverage, paths or hooks attached.
  explicit HarnessOptions(CampaignSpec Spec) : CampaignSpec(std::move(Spec)) {}

  /// The compiler under test (compiler/Backend.h). Null = the in-process
  /// MiniCC driver honoring InjectBugs. Backends without ground truth
  /// (ExternalBackend) produce signature-only findings: FoundBug::BugId 0,
  /// RawFindings keyed by normalized signature, UniqueBugs left empty.
  /// The backend's identity() is folded into the checkpoint options
  /// fingerprint, so a snapshot can never resume against a different
  /// compiler or command line.
  const CompilerBackend *Backend = nullptr;
  /// Additional compilers for the N-way differential matrix (DESIGN.md
  /// Section 14). Every tested variant is compiled by the whole roster
  /// (Backend is slot 0) under every config, each compiled artifact is
  /// executed once per sweep input, and the per-cell observations are
  /// attributed by majority-vs-outlier voting (triage/MatrixVote.h).
  /// Empty = the classic campaign, the 1x1 matrix: with Backend alone
  /// against the reference oracle the vote is plain backend-vs-oracle
  /// comparison, and MatrixCellsCompared stays 0. With two or more
  /// backends findings carry the attributed backend's identity(); the full
  /// roster's identities are folded into the checkpoint options
  /// fingerprint in slot order.
  std::vector<const CompilerBackend *> ExtraBackends;
  /// Optional coverage registry threaded into every compilation. Each rank
  /// chunk records into a private copy; the copies merge back in chunk
  /// order once the seed's rows are all recorded.
  CoverageRegistry *Cov = nullptr;
  /// Optional shared oracle memoization (testing/OracleCache.h). Repeat
  /// variants -- across configs, chunks, seeds, and whole campaigns --
  /// replay the memoized verdict instead of re-running parse + Sema +
  /// interpretation. Bugs, coverage, and every oracle-visible counter are
  /// bit-identical with and without it; only OracleExecutions and
  /// OracleCacheHits move.
  OracleCache *Cache = nullptr;

  //===--- Long-haul persistence (src/persist/, DESIGN.md Section 11) ---===//

  /// When non-empty, runCampaign periodically snapshots campaign state to
  /// this file (atomic write-then-rename) and resumeCampaign() restarts
  /// from it. Resume is *exact*: the resumed campaign's CampaignResult and
  /// coverage are bit-identical to the uninterrupted run's, for any thread
  /// count -- including the oracle-cost counters, provided Cache is either
  /// unset or backed by OracleStorePath.
  std::string CheckpointPath;
  /// Snapshot cadence in variants: a rank chunk republishes (and rewrites
  /// the snapshot file) after this many variants it enumerated, and chunk
  /// ends and seed-boundary commits write once at least this many new
  /// variants accumulated since the last write -- so a campaign over many
  /// small seeds or chunks is not taxed one file write each, and a crash
  /// redoes at most ~N variants per worker either way. 0 = write at every seed
  /// boundary and never mid-seed.
  uint64_t CheckpointEveryN = 1000;
  /// Optional append-only on-disk backing log for Cache
  /// (persist/OracleStore.h). Loaded at campaign start -- so a later
  /// campaign generation over overlapping seeds starts warm -- and
  /// flushed in lockstep with checkpoint publishes so a crash can never
  /// leave the log ahead of the snapshot. Ignored unless CheckpointPath
  /// is set.
  std::string OracleStorePath;
  /// Test hook for the kill-point battery: simulate a hard crash after
  /// this many variants have been enumerated campaign-wide (0 = off).
  /// Workers abandon their unpublished work with no final snapshot --
  /// exactly what SIGKILL leaves behind -- and runCampaign returns a
  /// partial result the caller should discard in favor of resuming from
  /// the last on-disk checkpoint.
  uint64_t SimulateCrashAfter = 0;

  //===--- Observability (src/support/Telemetry.h, DESIGN.md S.15) ------===//

  /// Optional telemetry sink: phase-timed trace spans (JSONL event log +
  /// Chrome trace export) and latency histograms, summarized into
  /// CampaignResult::Telemetry. Observation only -- campaign results,
  /// coverage, triage, and checkpoint bytes are bit-identical with it on
  /// or off -- so it is deliberately excluded from fingerprintOptions and
  /// resume validation. One sink per campaign.
  TelemetrySink *Telemetry = nullptr;
  /// Optional live status feed (testing/CampaignStatus.h): an atomically
  /// rewritten status.json heartbeat. Same exclusions as Telemetry.
  CampaignStatusFeed *Status = nullptr;

  /// The paper's crash-hunting matrix: -O0/-O3 x -m32/-m64 for a persona
  /// at a version.
  static std::vector<CompilerConfig> crashMatrix(Persona P, unsigned Version);
  /// All four optimization levels in -m64 (campaign classification).
  static std::vector<CompilerConfig> optLevelSweep(Persona P,
                                                   unsigned Version);
};

/// One deduplicated finding.
struct FoundBug {
  int BugId = 0; ///< Ground-truth id (always known for injected bugs).
  Persona P = Persona::GccSim;
  BugEffect Effect = BugEffect::Crash;
  std::string Signature;
  unsigned Version = 0; ///< Compiler version the finding manifested under.
  unsigned OptLevel = 0;
  bool Mode64 = true;
  /// identity() of the backend the matrix vote attributed this finding to
  /// ("reference-oracle" when a backend majority outvoted the oracle).
  /// Empty in a classic single-backend campaign, where the sole backend is
  /// implied -- which keeps signatures and checkpoint bytes unchanged.
  std::string Backend;
  /// The stdin sweep input the finding manifested under; empty for the
  /// classic single empty-stdin execution. Witness metadata, not part of
  /// the dedup signature: the same divergence reached through several
  /// sweep inputs is one bug with this input on its first witness.
  std::string Input;
  std::string WitnessProgram;

  bool operator==(const FoundBug &Other) const {
    return BugId == Other.BugId && P == Other.P && Effect == Other.Effect &&
           Signature == Other.Signature && Version == Other.Version &&
           OptLevel == Other.OptLevel && Mode64 == Other.Mode64 &&
           Backend == Other.Backend && Input == Other.Input &&
           WitnessProgram == Other.WitnessProgram;
  }
};

/// Identity of one raw finding: the ground-truth bug and the exact compiler
/// configuration it manifested under. The raw finding stream is what triage
/// consumes -- the same bug observed under four configurations is four raw
/// findings and, without ground truth, four candidate reports.
struct FindingKey {
  int BugId = 0;
  /// Redundant with BugId under the current bugDatabase() convention
  /// (ids are unique across personas), but kept in the key so the identity
  /// stays exact if that convention ever changes.
  Persona P = Persona::GccSim;
  unsigned Version = 0;
  unsigned OptLevel = 0;
  bool Mode64 = true;
  /// Matrix roster slot the finding is attributed to: 0 = the primary
  /// backend (and always 0 in a classic campaign), 1.. = ExtraBackends,
  /// roster size = the reference oracle itself (an outvoted-oracle
  /// finding). Distinct backends observing the same divergence are
  /// distinct raw findings.
  unsigned BackendIdx = 0;
  /// Index of the sweep input (within the finding config's own sweep) the
  /// divergence manifested under; 0 in a classic single-execution
  /// campaign. Distinct inputs are distinct raw findings -- the dedup
  /// that collapses them into one bug is signature triage, not this map.
  unsigned InputIdx = 0;
  /// Signature-only findings (BugId == 0, from backends without ground
  /// truth): the normalized behavioral key (triage/normalizeSignature),
  /// so distinct signature clusters stay distinct raw findings. Empty for
  /// ground-truth findings, which keeps their ordering unchanged.
  std::string Sig;

  friend bool operator<(const FindingKey &A, const FindingKey &B) {
    if (A.BugId != B.BugId)
      return A.BugId < B.BugId;
    if (A.P != B.P)
      return A.P < B.P;
    if (A.Version != B.Version)
      return A.Version < B.Version;
    if (A.OptLevel != B.OptLevel)
      return A.OptLevel < B.OptLevel;
    if (A.Mode64 != B.Mode64)
      return A.Mode64 < B.Mode64;
    if (A.BackendIdx != B.BackendIdx)
      return A.BackendIdx < B.BackendIdx;
    if (A.InputIdx != B.InputIdx)
      return A.InputIdx < B.InputIdx;
    return A.Sig < B.Sig;
  }
  friend bool operator==(const FindingKey &A, const FindingKey &B) {
    return A.BugId == B.BugId && A.P == B.P && A.Version == B.Version &&
           A.OptLevel == B.OptLevel && A.Mode64 == B.Mode64 &&
           A.BackendIdx == B.BackendIdx && A.InputIdx == B.InputIdx &&
           A.Sig == B.Sig;
  }
};

/// One signature cluster of the triaged report: duplicates collapsed, the
/// representative witness reduced and rank-canonicalized.
struct TriagedBug {
  BugSignature Sig;
  /// The cluster representative; WitnessProgram holds the reduced,
  /// minimal-rank reproducer.
  FoundBug Representative;
  /// Ground-truth ids collapsed into this cluster (ascending, unique).
  /// Signature triage has no access to these for clustering; they are kept
  /// so benches and tests can measure conflation against the injected
  /// ground truth.
  std::vector<int> MemberIds;
  /// Raw findings (id x config observations) collapsed into this cluster.
  uint64_t RawCount = 0;
  /// Token counts of the representative witness before and after reduction.
  uint64_t TokensBefore = 0;
  uint64_t TokensAfter = 0;

  bool operator==(const TriagedBug &Other) const {
    return Sig == Other.Sig && Representative == Other.Representative &&
           MemberIds == Other.MemberIds && RawCount == Other.RawCount &&
           TokensBefore == Other.TokensBefore &&
           TokensAfter == Other.TokensAfter;
  }
};

/// Aggregate cost/benefit accounting of one triage pass.
struct ReductionStats {
  uint64_t RawBugs = 0;   ///< Findings before signature dedup.
  uint64_t Clusters = 0;  ///< Signature clusters after dedup.
  uint64_t TokensBefore = 0; ///< Sum over representatives, pre-reduction.
  uint64_t TokensAfter = 0;  ///< Sum over representatives, post-reduction.
  uint64_t StatementsDeleted = 0;
  uint64_t DeclsDropped = 0;
  uint64_t ExprsSimplified = 0;
  uint64_t RankMinimized = 0; ///< Representatives improved by rank search.
  uint64_t ReductionProbes = 0;   ///< Signature-preservation probes issued.
  uint64_t OracleRuns = 0;        ///< Reference interpretations spent.
  uint64_t OracleCacheHits = 0;   ///< Verdicts replayed from the cache.

  /// Raw findings per reported cluster (1.0 = no duplicates existed).
  double dedupRatio() const {
    return Clusters == 0 ? 1.0
                         : static_cast<double>(RawBugs) /
                               static_cast<double>(Clusters);
  }
  /// Mean fractional token shrink across representatives.
  double tokenReduction() const {
    return TokensBefore == 0
               ? 0.0
               : 1.0 - static_cast<double>(TokensAfter) /
                           static_cast<double>(TokensBefore);
  }

  bool operator==(const ReductionStats &Other) const {
    return RawBugs == Other.RawBugs && Clusters == Other.Clusters &&
           TokensBefore == Other.TokensBefore &&
           TokensAfter == Other.TokensAfter &&
           StatementsDeleted == Other.StatementsDeleted &&
           DeclsDropped == Other.DeclsDropped &&
           ExprsSimplified == Other.ExprsSimplified &&
           RankMinimized == Other.RankMinimized &&
           ReductionProbes == Other.ReductionProbes &&
           OracleRuns == Other.OracleRuns &&
           OracleCacheHits == Other.OracleCacheHits;
  }
};

/// Aggregate campaign statistics.
struct CampaignResult {
  std::map<int, FoundBug> UniqueBugs; ///< Keyed by ground-truth bug id.
  /// The raw finding stream triage consumes: the first witness per (bug,
  /// configuration) pair. Where UniqueBugs collapses by ground-truth id --
  /// information real campaigns do not have -- this keeps the per-config
  /// duplication a signature-based deduper must resolve. Bounded by
  /// #bugs x #configs; first-in-rank-order witness wins, so the map is
  /// deterministic across thread counts like UniqueBugs.
  std::map<FindingKey, FoundBug> RawFindings;
  uint64_t SeedsProcessed = 0;
  uint64_t SeedsSkippedByThreshold = 0;
  uint64_t VariantsEnumerated = 0;
  uint64_t VariantsOracleExcluded = 0;
  uint64_t VariantsTested = 0;
  /// Budgeted ranks skipped by validity pruning without being rendered;
  /// VariantsEnumerated + VariantsPruned equals the unpruned enumeration
  /// count of the same budget.
  uint64_t VariantsPruned = 0;
  /// Reference-oracle interpretations actually performed.
  uint64_t OracleExecutions = 0;
  /// Oracle verdicts replayed from the shared OracleCache.
  uint64_t OracleCacheHits = 0;
  uint64_t CrashObservations = 0;
  uint64_t WrongCodeObservations = 0;
  uint64_t PerformanceObservations = 0;
  /// Compiled modules that exhausted their execution budget while the
  /// reference oracle terminated. Each is a genuine hang divergence and is
  /// also counted in WrongCodeObservations with a "miscompilation (hang)"
  /// signature; before this counter existed such variants were silently
  /// dropped.
  uint64_t ExecutionTimeouts = 0;
  /// Differential matrix cells actually compared: one per (backend,
  /// config, sweep input) observation that reached behavioral comparison
  /// (compile Ok, executed, oracle verdict valid for that input). Zero in
  /// a classic campaign (no ExtraBackends, no sweeps): the 1x1 matrix
  /// compares no matrix cells.
  uint64_t MatrixCellsCompared = 0;
  /// Sweep inputs excluded per tested variant because the reference oracle
  /// hit UB / non-termination under that input (the per-cell analogue of
  /// VariantsOracleExcluded, which tracks the primary input only).
  uint64_t SweepCellsExcluded = 0;
  /// The backing OracleStore log's on-disk size, filled at campaign end
  /// when one is attached. Excluded from merge() and operator== -- it
  /// describes the store's lifetime (which may span campaign generations),
  /// not this campaign's deterministic work.
  uint64_t OracleStoreBytes = 0;
  /// The triaged report (empty unless a triage pass ran): signature
  /// clusters sorted by signature, each holding a reduced, rank-minimized
  /// representative. Filled post-merge, so it is deterministic across
  /// thread counts; merge() deliberately leaves it untouched -- triage a
  /// merged result via triageCampaign (triage/Deduper.h).
  std::vector<TriagedBug> Triaged;
  /// Cost/benefit accounting of the triage pass (zeros when none ran).
  ReductionStats Reduction;
  /// Phase timing summary (empty unless HarnessOptions::Telemetry was
  /// set): chunk-local span aggregates merged in chunk order,
  /// plus the sink's global phases folded in at campaign end. Wall-clock
  /// data lives here and only here -- merge() folds it, but it is excluded
  /// from operator== (and from checkpoint serialization), so bit-identity
  /// batteries and resume equivalence hold with telemetry on or off.
  TelemetrySummary Telemetry;

  unsigned bugCount(Persona P) const;
  unsigned bugCount(Persona P, BugEffect E) const;

  /// Folds \p Other into this result: counters add, and bugs already seen
  /// keep their existing (earlier-rank) witness. Merging per-chunk results
  /// in chunk order reproduces the single-threaded result exactly.
  void merge(const CampaignResult &Other);

  bool operator==(const CampaignResult &Other) const;
};

/// Drives differential testing over seed programs.
class DifferentialHarness {
public:
  explicit DifferentialHarness(HarnessOptions Opts)
      : Opts(std::move(Opts)), DefaultBackend(this->Opts.InjectBugs) {}

  /// The compiler under test: Opts.Backend, or the in-process MiniCC
  /// driver when none was supplied.
  const CompilerBackend &backend() const {
    return Opts.Backend ? *Opts.Backend : DefaultBackend;
  }

  /// Runs a whole corpus: enumerates each seed and tests every (variant,
  /// config) pair. With CheckpointPath set the campaign snapshots its
  /// progress as it goes (see HarnessOptions above).
  CampaignResult runCampaign(const std::vector<std::string> &Seeds) const;

  /// Restarts a checkpointed campaign from Opts.CheckpointPath: validates
  /// the snapshot (format version, checksum, options / seed-list /
  /// constraints fingerprints, in-flight chunks on the seed's grid),
  /// truncates the oracle store back to the snapshot's recorded length,
  /// reconstitutes every in-flight chunk's cursor mid-range via
  /// restoreState, and runs the campaign to completion, at any thread
  /// count. The returned result -- bugs, raw
  /// findings, coverage, triage, and every counter -- is bit-identical to
  /// what the uninterrupted run would have produced. \returns false with
  /// a diagnostic in \p Err (and \p Result untouched beyond partial
  /// clears) when the snapshot is missing, corrupt, version-skewed, or
  /// inconsistent with \p Seeds / the options.
  bool resumeCampaign(const std::vector<std::string> &Seeds,
                      CampaignResult &Result, std::string &Err) const;

  /// Tests a single concrete program (no enumeration); used by the
  /// mutation baseline and by examples.
  void testProgram(const std::string &Source, CampaignResult &Result) const;

  /// What a fleet coordinator needs to plan leases for one seed without
  /// enumerating anything: whether the seed is enumerable at all, the
  /// header counters its front-end pass accrues (SeedsProcessed /
  /// SeedsSkippedByThreshold), and the budgeted rank-space size.
  struct SeedLeaseSummary {
    bool Enumerable = false;
    CampaignResult Header;
    BigInt Budget;
  };

  /// Front-end + threshold + budgeting for \p Source, enumeration skipped.
  /// Deterministic: matches the plan runCampaign computes for the same seed.
  SeedLeaseSummary summarizeSeed(const std::string &Source) const;

  /// Runs exactly the rank range [\p Begin, \p End) of \p Source's
  /// budgeted space into the fresh fragment \p Out -- the worker half of a
  /// fleet lease. Merging all of a seed's lease fragments in ascending
  /// Begin order on top of the summarizeSeed header reproduces the
  /// single-process result for that seed bit for bit, because a lease is
  /// one call of the variant loop every rank chunk runs, over an arbitrary
  /// contiguous subrange. Header counters are NOT accrued here
  /// (the coordinator owns them via summarizeSeed). \returns false with
  /// \p Err set when the seed is not enumerable or the range is outside
  /// [0, Budget].
  bool runLease(const std::string &Source, const BigInt &Begin,
                const BigInt &End, CampaignResult &Out,
                std::string &Err) const;

private:
  HarnessOptions Opts;
  /// Fallback backend when Opts.Backend is null; the historical inline
  /// MiniCC loop, now behind the same interface as everything else.
  InProcessBackend DefaultBackend;
};

} // namespace spe

#endif // SPE_TESTING_HARNESS_H
