//===- testing/Harness.cpp - differential testing campaign ---------------===//

#include "testing/Harness.h"

#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "persist/Checkpoint.h"
#include "persist/OracleStore.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantBinder.h"
#include "skeleton/VariantRenderer.h"
#include "testing/CampaignStatus.h"
#include "testing/OracleCache.h"
#include "triage/Deduper.h"
#include "triage/MatrixVote.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>

using namespace spe;

std::vector<CompilerConfig> HarnessOptions::crashMatrix(Persona P,
                                                        unsigned Version) {
  std::vector<CompilerConfig> Configs;
  for (unsigned Opt : {0u, 3u}) {
    for (bool Mode64 : {true, false}) {
      CompilerConfig C;
      C.P = P;
      C.Version = Version;
      C.OptLevel = Opt;
      C.Mode64 = Mode64;
      Configs.push_back(C);
    }
  }
  return Configs;
}

std::vector<CompilerConfig> HarnessOptions::optLevelSweep(Persona P,
                                                          unsigned Version) {
  std::vector<CompilerConfig> Configs;
  for (unsigned Opt = 0; Opt <= 3; ++Opt) {
    CompilerConfig C;
    C.P = P;
    C.Version = Version;
    C.OptLevel = Opt;
    Configs.push_back(C);
  }
  return Configs;
}

unsigned CampaignResult::bugCount(Persona P) const {
  unsigned N = 0;
  for (const auto &[Id, Bug] : UniqueBugs)
    if (Bug.P == P)
      ++N;
  return N;
}

unsigned CampaignResult::bugCount(Persona P, BugEffect E) const {
  unsigned N = 0;
  for (const auto &[Id, Bug] : UniqueBugs)
    if (Bug.P == P && Bug.Effect == E)
      ++N;
  return N;
}

void CampaignResult::merge(const CampaignResult &Other) {
  for (const auto &[Id, Bug] : Other.UniqueBugs)
    UniqueBugs.emplace(Id, Bug);
  for (const auto &[Key, Bug] : Other.RawFindings)
    RawFindings.emplace(Key, Bug);
  SeedsProcessed += Other.SeedsProcessed;
  SeedsSkippedByThreshold += Other.SeedsSkippedByThreshold;
  VariantsEnumerated += Other.VariantsEnumerated;
  VariantsOracleExcluded += Other.VariantsOracleExcluded;
  VariantsTested += Other.VariantsTested;
  VariantsPruned += Other.VariantsPruned;
  OracleExecutions += Other.OracleExecutions;
  OracleCacheHits += Other.OracleCacheHits;
  CrashObservations += Other.CrashObservations;
  WrongCodeObservations += Other.WrongCodeObservations;
  PerformanceObservations += Other.PerformanceObservations;
  ExecutionTimeouts += Other.ExecutionTimeouts;
  MatrixCellsCompared += Other.MatrixCellsCompared;
  SweepCellsExcluded += Other.SweepCellsExcluded;
  // Telemetry merges like coverage: per-chunk summaries folded in chunk
  // order. Deliberately absent from operator== -- wall-clock data must not
  // break the bit-identity batteries.
  Telemetry.merge(Other.Telemetry);
}

bool CampaignResult::operator==(const CampaignResult &Other) const {
  return UniqueBugs == Other.UniqueBugs &&
         RawFindings == Other.RawFindings &&
         SeedsProcessed == Other.SeedsProcessed &&
         SeedsSkippedByThreshold == Other.SeedsSkippedByThreshold &&
         VariantsEnumerated == Other.VariantsEnumerated &&
         VariantsOracleExcluded == Other.VariantsOracleExcluded &&
         VariantsTested == Other.VariantsTested &&
         VariantsPruned == Other.VariantsPruned &&
         OracleExecutions == Other.OracleExecutions &&
         OracleCacheHits == Other.OracleCacheHits &&
         CrashObservations == Other.CrashObservations &&
         WrongCodeObservations == Other.WrongCodeObservations &&
         PerformanceObservations == Other.PerformanceObservations &&
         ExecutionTimeouts == Other.ExecutionTimeouts &&
         MatrixCellsCompared == Other.MatrixCellsCompared &&
         SweepCellsExcluded == Other.SweepCellsExcluded &&
         Triaged == Other.Triaged && Reduction == Other.Reduction;
}

namespace {

/// Everything the per-seed enumeration loop needs, shared by the seed
/// runner, fleet leases, and lease planning so they cannot drift.
struct SeedPlan {
  std::unique_ptr<ASTContext> Ctx;
  std::vector<SkeletonUnit> Units;
  BigInt Budget;
  std::vector<ValidityConstraints> Validity;
  std::vector<const ValidityConstraints *> ValidityPtrs;
  /// False when the seed contributes nothing to enumerate: front-end
  /// rejection or the paper's variant threshold.
  bool Ready = false;
};

/// Front-end + extraction + budgeting for one seed. Header counters
/// (SeedsProcessed / SeedsSkippedByThreshold) accrue into \p Header.
SeedPlan buildSeedPlan(const HarnessOptions &Opts, const std::string &Source,
                       CampaignResult &Header) {
  SeedPlan Plan;
  Plan.Ctx = std::make_unique<ASTContext>();
  DiagnosticEngine Diags;
  if (!Parser::parse(Source, *Plan.Ctx, Diags))
    return Plan;
  Sema Analysis(*Plan.Ctx, Diags);
  if (!Analysis.run())
    return Plan;
  ++Header.SeedsProcessed;

  SkeletonExtractor Extractor(*Plan.Ctx, Analysis, Opts.Extract);
  Plan.Units = Extractor.extract();
  ProgramEnumerator Enumerator(Plan.Units, Opts.Mode);

  // The paper's threshold: skip skeletons with too many variants.
  BigInt Count = Enumerator.countSpe();
  if (Count > BigInt(Opts.VariantThreshold)) {
    ++Header.SeedsSkippedByThreshold;
    return Plan;
  }

  // The budget caps the tested range to the first Budget ranks; the range
  // [0, Budget) is identical for every thread count, which is what makes
  // parallel campaigns deterministic.
  Plan.Budget = Count;
  if (Opts.VariantBudget != 0 && BigInt(Opts.VariantBudget) < Plan.Budget)
    Plan.Budget = BigInt(Opts.VariantBudget);

  // Validity constraints: computed once per seed, shared read-only by every
  // worker. Pruned ranks are skipped inside the cursor, so they are never
  // rendered or interpreted.
  if (Opts.PruneInvalid) {
    Plan.Validity = analyzeValidity(*Plan.Ctx, Analysis, Plan.Units);
    Plan.ValidityPtrs = constraintPtrs(Plan.Validity);
  }
  Plan.Ready = true;
  return Plan;
}

/// Freshly computed verdicts staged for the next checkpoint flush.
using StagedVec = std::vector<std::pair<std::string, OracleCache::Entry>>;

/// The counter slice of \p R the live status feed publishes.
StatusCounters countersOf(const CampaignResult &R) {
  StatusCounters C;
  C.Enumerated = R.VariantsEnumerated;
  C.Tested = R.VariantsTested;
  C.Pruned = R.VariantsPruned;
  C.OracleExcluded = R.VariantsOracleExcluded;
  C.OracleExecs = R.OracleExecutions;
  C.CacheHits = R.OracleCacheHits;
  C.Timeouts = R.ExecutionTimeouts;
  C.MatrixCells = R.MatrixCellsCompared;
  C.RawFindings = R.RawFindings.size();
  C.UniqueBugs = R.UniqueBugs.size();
  return C;
}

/// A chunk's live progress for its status-feed shard slot; \p Out holds
/// only the chunk's work. saveState() is not free (BigInt decimal
/// round-trips), but this only runs when a status write is already due --
/// wall-clock cadence, not per variant.
CampaignStatusFeed::ShardStatus shardStatusNow(const CampaignResult &Out,
                                               ProgramCursor &Cursor) {
  CampaignStatusFeed::ShardStatus S;
  S.C = countersOf(Out);
  CursorState CS = Cursor.saveState();
  BigInt Pos = BigInt::fromDecimalString(CS.Position);
  BigInt End = BigInt::fromDecimalString(CS.End);
  BigInt Pr = BigInt::fromDecimalString(CS.Pruned);
  uint64_t PrU = Pr.fitsInUint64() ? Pr.toUint64() : ~uint64_t(0);
  // Pruned ranks fold into the result only at chunk end; the feed counts
  // them live off the cursor.
  S.C.Pruned += PrU;
  S.RanksDone = S.C.Enumerated + PrU;
  BigInt Rem = End < Pos ? BigInt(0) : End - Pos;
  S.RanksTotal = S.RanksDone + (Rem.fitsInUint64() ? Rem.toUint64() : 0);
  return S;
}

/// Oracle-phase outcome for one variant: the verdict, and whether the
/// variant proceeds to the backend configurations at all.
struct OracleOutcome {
  bool Test = false;
  /// Verdict under the primary input (sweepUnion index 0) -- the one that
  /// gates testing, exactly as the single verdict always has.
  OracleCache::Entry Verdict;
  /// Per-union-input verdicts (Sweep[0] == Verdict), computed only for
  /// testable variants of a swept campaign; empty otherwise.
  std::vector<OracleCache::Entry> Sweep;
  /// The variant's analysed AST: the cursor range's bound AST, else the
  /// oracle's own parse when any input missed the cache; null when the
  /// binder refused the variant and every verdict was replayed, or the
  /// frontend refused it.
  ASTContext *AST = nullptr;
  /// Owns AST when it is the oracle's own parse.
  std::unique_ptr<ASTContext> Parsed;
};

/// The config label of an oracle_exec / sweep_exec span: the verdict (ok,
/// ub, unsupported, or timeout.<reason>; "reject" when the frontend
/// refused the variant), so a campaign's own event log says why each
/// variant was excluded.
std::string verdictLabel(const ExecResult &Ref) {
  switch (Ref.Status) {
  case ExecStatus::Ok:
    return "ok";
  case ExecStatus::UndefinedBehavior:
    return "ub";
  case ExecStatus::Unsupported:
    return "unsupported";
  case ExecStatus::Timeout:
    return std::string("timeout.") + timeoutReasonName(Ref.Reason);
  }
  return "?";
}

/// The oracle phase of one variant: replay each input's verdict from the
/// shared cache when available, compute (and memoize) it otherwise;
/// classify the variant as excluded or testable by the *primary* input's
/// verdict. All downstream counters behave identically on a hit and on a
/// miss. \p Bound is the variant's AST bound from its seed's template, or
/// null when the binder refused it: then the first miss parses \p Source.
/// \p AllInputs is sweepUnion(Opts.Configs): {""} for an unswept
/// campaign, where this degenerates to the historical single lookup on the
/// raw source key, byte for byte.
OracleOutcome oraclePhase(const HarnessOptions &Opts,
                          const std::string &Source, ASTContext *Bound,
                          const std::vector<std::string> &AllInputs,
                          CampaignResult &Result, StagedVec *Staged) {
  OracleOutcome O;
  O.AST = Bound;
  // Telemetry spans record into the chunk's own partial summary (merged
  // in chunk order later); with no sink both pointers are null and every
  // SpanTimer below is a no-op that never reads the clock.
  TelemetrySink *Sink = Opts.Telemetry;
  TelemetrySummary *Local = Sink ? &Result.Telemetry : nullptr;
  // Without a bound AST, one parse serves every input's interpretation;
  // lazily done on the first cache miss, and kept in O.Parsed for the
  // backends. A bound AST is frontend-valid by construction.
  bool ParseTried = Bound != nullptr;
  auto VerdictFor = [&](const std::string &Input, const char *Phase) {
    OracleCache::Entry V;
    std::string Key = oracleCacheKey(Source, Input, Opts.OracleMaxSteps);
    // A miss claims Key until Miss.fill below, so a rank of another chunk
    // that renders the same text waits for this verdict and counts a hit.
    OracleCache::Claim Miss;
    if (Opts.Cache) {
      bool Hit;
      {
        SpanTimer T(Sink, Local, "cache_lookup");
        Hit = Opts.Cache->lookup(Key, V, &Miss);
      }
      if (Hit) {
        ++Result.OracleCacheHits;
        return V;
      }
    }
    {
      SpanTimer T(Sink, Local, Phase);
      if (!ParseTried) {
        O.Parsed = parseAndAnalyze(Source);
        O.AST = O.Parsed.get();
        ParseTried = true;
      }
      V.FrontendOk = O.AST != nullptr;
      if (O.AST) {
        InterpOptions IO;
        IO.MaxSteps = Opts.OracleMaxSteps;
        IO.Input = Input;
        ExecResult Ref = interpret(*O.AST, IO);
        ++Result.OracleExecutions;
        if (Sink || Local)
          T.setConfigLabel(verdictLabel(Ref));
        V.Status = Ref.Status;
        V.ExitCode = Ref.ExitCode;
        V.Output = std::move(Ref.Output);
      } else if (Sink || Local) {
        T.setConfigLabel("reject");
      }
    }
    if (Staged)
      Staged->push_back({Key, V});
    Miss.fill(V);
    return V;
  };

  O.Verdict = VerdictFor(AllInputs.empty() ? std::string() : AllInputs[0],
                         "oracle_exec");
  if (!O.Verdict.FrontendOk)
    return O;
  if (O.Verdict.Status != ExecStatus::Ok) {
    ++Result.VariantsOracleExcluded;
    return O;
  }
  ++Result.VariantsTested;
  O.Test = true;
  // Non-primary sweep verdicts, computed only for variants that will
  // actually be tested (an excluded variant never reaches any backend, so
  // its other inputs would be wasted interpretations). An input whose own
  // verdict is not Ok -- UB or non-termination under that stdin -- excludes
  // just that cell from the matrix, the per-cell analogue of the paper's
  // whole-variant exclusion.
  if (AllInputs.size() > 1) {
    O.Sweep.resize(AllInputs.size());
    O.Sweep[0] = O.Verdict;
    for (size_t I = 1; I < AllInputs.size(); ++I) {
      O.Sweep[I] = VerdictFor(AllInputs[I], "sweep_exec");
      if (!O.Sweep[I].FrontendOk || O.Sweep[I].Status != ExecStatus::Ok)
        ++Result.SweepCellsExcluded;
    }
  }
  return O;
}

/// The render/compile/execute pipeline and the one recorder of findings
/// (DESIGN.md Sections 13-14). Every tested variant runs through the
/// roster -- the primary backend in slot 0, then Opts.ExtraBackends --
/// under every config and sweep input, and every config's row is voted
/// cell by cell. A classic campaign is the 1x1 matrix: a roster of one
/// over the single empty input, where the vote is classifyDivergence.
///
/// Every tested variant reaches the backends through beginBatch and
/// finishBatch, so a backend sees a variant's whole config list at once
/// (the in-process backend lowers it once for all of them). At BatchSize
/// <= 1 each variant is a batch of one, begun and finished in add().
/// Otherwise variants accumulate into a batch of Opts.BatchSize; a full
/// batch is handed to the backend (beginBatch -- which starts pool
/// compiles and returns) *before* the previous batch is collected and
/// recorded, so the compiler works on batch N+1 while this thread records
/// batch N and then interprets oracles for batch N+2. Unbatched, each
/// variant's expectation lends its AST -- bound by the cursor range, or
/// parsed by the oracle phase on a miss -- on a cache hit as on a miss,
/// so an in-process backend lowers it instead of parsing the text;
/// batched, add() drops it, since the range rebinds its AST for the next
/// variant while the batch is still in flight. No lent AST outlives the
/// add() that lends it.
///
/// A pipeline may outlive the cursor range that feeds it: each variant
/// records into the partial result it was added with, so one batch can
/// span chunks, and the end of one seed and the start of the next. The
/// backend records a batch's coverage into one registry, so a variant
/// added with another registry than the queued ones starts a new batch:
/// every chunk's registry then holds exactly its own rows' hits, which
/// its checkpoint slot publishes. whenRecorded() runs a callback once
/// every variant queued so far is recorded: a chunk's final checkpoint
/// publish waits for its rows that way, and so does its seed's merge.
///
/// Determinism: recording happens batch-by-batch in add() order,
/// variant-major within a batch -- the exact order the unbatched loop
/// records in -- and drain() is called before every checkpoint publish,
/// so published cursor state, partial results, and staged verdicts always
/// describe exactly the same prefix as an unbatched run's publish.
/// Destroying an undrained pipeline (simulated crash) records nothing and
/// lets the ticket destructor reclaim backend resources -- precisely the
/// work a real SIGKILL would strand.
class VariantPipeline {
public:
  VariantPipeline(const HarnessOptions &Opts, const CompilerBackend &B)
      : Opts(Opts), AllInputs(sweepUnion(Opts.Configs)) {
    Roster.push_back(&B);
    Roster.insert(Roster.end(), Opts.ExtraBackends.begin(),
                  Opts.ExtraBackends.end());
    for (const CompilerConfig &C : Opts.Configs)
      ConfigInputs.push_back(configInputs(C));
    // The one way a 1x1 campaign differs from a real matrix: it compares
    // no matrix cells, so MatrixCellsCompared stays 0 there.
    CountCells = Roster.size() > 1 || AllInputs.size() > 1 ||
                 !AllInputs.front().empty();
    Sink = Opts.Telemetry;
    if (Sink) {
      // Span labels, precomputed so the hot loop never rebuilds identity
      // strings.
      for (const CompilerBackend *R : Roster)
        BackendLabels.push_back(telemetryBackendLabel(R->identity()));
    }
  }

  /// Runs \p Source's oracle phase into \p Out and, when the variant is
  /// tested, queues it; its rows record into \p Out and its coverage into
  /// \p Cov. \p Bound is the variant's bound AST, or null when it must be
  /// parsed.
  void add(const std::string &Source, ASTContext *Bound, CampaignResult &Out,
           CoverageRegistry *Cov, StagedVec *Staged) {
    OracleOutcome O =
        oraclePhase(Opts, Source, Bound, AllInputs, Out, Staged);
    if (!O.Test)
      return;
    // A batch kept in flight outlives this add(), and the range rebinds
    // its AST for the next variant: lend nothing.
    if (overlapped()) {
      O.AST = nullptr;
      O.Parsed.reset();
    }
    queue({Source, std::move(O), &Out, Cov, {}});
  }

  /// Records \p Other's in-flight batch and queues its unbatched variants
  /// here as add() would, so the unfilled batches several pipelines end a
  /// campaign with join into full ones.
  void adoptQueued(VariantPipeline &Other) {
    Other.finishInFlight();
    for (Item &It : Other.Cur)
      queue(std::move(It));
    Other.Cur.clear();
  }

  /// Flushes all pending work into the partial results. Must run before
  /// every checkpoint publish and before the pipeline's last use.
  void drain() {
    if (!Cur.empty())
      rotate();
    finishInFlight();
  }

  /// Runs \p F once every variant queued so far is recorded: now, when
  /// none is pending, else right after the batch of the last one.
  /// Recording is first in, first out, so that covers all of them.
  void whenRecorded(std::function<void()> F) {
    if (!Cur.empty())
      Cur.back().After.push_back(std::move(F));
    else if (!InFlight.empty())
      InFlight.back().After.push_back(std::move(F));
    else
      F();
  }

  /// Runs after each recorded batch (unset = nothing).
  std::function<void()> OnRecorded;

private:
  /// One config's observations of one variant: [backend][input], the input
  /// axis being that config's ConfigInputs entry.
  using Row = std::vector<std::vector<BackendObservation>>;

  struct Item {
    std::string Source;
    OracleOutcome O;
    CampaignResult *Out;
    CoverageRegistry *Cov;
    /// whenRecorded() callbacks to run once this variant is recorded.
    std::vector<std::function<void()>> After;
  };

  /// True when a begun batch stays in flight while the next one fills.
  bool overlapped() const { return Opts.BatchSize > 1; }

  void queue(Item It) {
    if (!Cur.empty() && Cur.back().Cov != It.Cov)
      rotate(); // One registry per batch (see above).
    Cur.push_back(std::move(It));
    if (Cur.size() < Opts.BatchSize)
      return;
    rotate();
    if (!overlapped())
      finishInFlight(); // Unbatched: a batch of one, begun and finished.
  }

  /// What a clean execution of a tested variant must reproduce: the
  /// primary verdict, plus one cell per non-primary union input. An input
  /// the oracle excluded (UB / non-termination under that stdin) is an
  /// invalid cell the backend never executes. It lends the variant's AST
  /// when add() kept it.
  static BatchExpectation expectationOf(const OracleOutcome &O) {
    BatchExpectation E;
    E.Valid = true;
    E.ExitCode = O.Verdict.ExitCode;
    E.Output = O.Verdict.Output;
    E.Parsed = O.AST;
    for (size_t U = 1; U < O.Sweep.size(); ++U) {
      const OracleCache::Entry &V = O.Sweep[U];
      BatchExpectation::Cell Cell;
      Cell.Valid = V.FrontendOk && V.Status == ExecStatus::Ok;
      Cell.ExitCode = V.ExitCode;
      Cell.Output = V.Output;
      E.Extra.push_back(std::move(Cell));
    }
    return E;
  }

  void rotate() {
    std::vector<std::string> Sources;
    std::vector<BatchExpectation> Expected;
    Sources.reserve(Cur.size());
    Expected.reserve(Cur.size());
    for (const Item &It : Cur) {
      Sources.push_back(It.Source);
      Expected.push_back(expectationOf(It.O));
    }
    // Start every roster member's new batch before collecting the old
    // ones: all N compiles of batch N+1 run concurrently on the shared
    // process pool while this thread records batch N -- the overlap,
    // generalized to the whole roster.
    // The last member takes the batch's inputs; the others get copies.
    std::vector<std::unique_ptr<BatchTicket>> Next;
    Next.reserve(Roster.size());
    CoverageRegistry *Cov = Cur.back().Cov;
    for (size_t B = 0; B + 1 < Roster.size(); ++B)
      Next.push_back(
          Roster[B]->beginBatch(Sources, Expected, Opts.Configs, Cov));
    Next.push_back(Roster.back()->beginBatch(
        std::move(Sources), std::move(Expected), Opts.Configs, Cov));
    finishInFlight();
    Tickets = std::move(Next);
    InFlight = std::move(Cur);
    Cur.clear();
  }

  void finishInFlight() {
    if (Tickets.empty())
      return;
    // Obs3[backend][variant][config][input]. Unbatched, the one span per
    // backend is that backend's whole run of the variant; overlapped, it
    // is the wait for a batch begun one rotation earlier.
    const char *Phase = overlapped() ? "batch_wait" : "backend_run";
    TelemetrySummary *Local = localOf(InFlight.front());
    std::vector<std::vector<std::vector<std::vector<BackendObservation>>>>
        Obs3;
    Obs3.reserve(Tickets.size());
    for (size_t B = 0; B < Tickets.size(); ++B) {
      SpanTimer T(Sink, Local, Phase,
                  Sink ? BackendLabels[B] : std::string());
      Obs3.push_back(Roster[B]->finishBatch(std::move(Tickets[B])));
    }
    Tickets.clear();
    Row Obs(Roster.size());
    for (size_t I = 0; I < InFlight.size(); ++I)
      for (size_t C = 0; C < Opts.Configs.size(); ++C) {
        for (size_t B = 0; B < Roster.size(); ++B)
          Obs[B] = I < Obs3[B].size() && C < Obs3[B][I].size()
                       ? std::move(Obs3[B][I][C])
                       : std::vector<BackendObservation>();
        recordRow(C, Obs, InFlight[I]);
      }
    for (Item &It : InFlight)
      for (std::function<void()> &F : It.After)
        F();
    InFlight.clear();
    if (OnRecorded)
      OnRecorded();
  }

  /// The summary worker-local spans about \p It record into (null when
  /// telemetry is off).
  TelemetrySummary *localOf(const Item &It) const {
    return Sink ? &It.Out->Telemetry : nullptr;
  }

  /// Records config \p C's row of one tested variant: compile-level
  /// findings per backend, read off its first cell (all cells share one
  /// compile's status fields), then one vote per input cell across the
  /// roster (triage/MatrixVote.h), each outlier's finding attributed to
  /// the backend that diverged -- or to "reference-oracle" when a strict
  /// backend majority outvoted it. Configs outer, compile rows then
  /// inputs, backends innermost: first-wins witness maps are identical for
  /// every thread count and batch size.
  void recordRow(size_t C, const Row &Obs, const Item &It) {
    SpanTimer T(Sink, localOf(It), "vote");
    CampaignResult &Result = *It.Out;
    const std::string &Source = It.Source;
    const OracleOutcome &O = It.O;
    for (size_t B = 0; B < Roster.size(); ++B) {
      if (Obs[B].empty())
        continue;
      const BackendObservation &First = Obs[B][0];
      if (First.Compile == BackendObservation::CompileStatus::Crashed) {
        ++Result.CrashObservations;
        record(C, BugEffect::Crash, First.CrashBugId, First.CrashSignature, B,
               0, Source, Result);
      }
      // Performance anomaly: MiniCC's inflated cost model, or an external
      // compile that blew its wall-clock budget.
      if (First.CompileTimeAnomaly) {
        ++Result.PerformanceObservations;
        recordFired(C, BugEffect::Performance, "pathological compile time", B,
                    First.FiredBugs, 0, Source, Result);
      }
    }

    const std::vector<std::string> &Ins = ConfigInputs[C];
    for (size_t I = 0; I < Ins.size(); ++I) {
      // This input's oracle verdict, by its position in the sweep union
      // (configInputs is a subset of the union by construction).
      size_t U = std::find(AllInputs.begin(), AllInputs.end(), Ins[I]) -
                 AllInputs.begin();
      const OracleCache::Entry &V = O.Sweep.empty() ? O.Verdict : O.Sweep[U];
      if (!V.FrontendOk || V.Status != ExecStatus::Ok)
        continue; // Cell excluded (counted once in oraclePhase).

      std::vector<const BackendObservation *> Cells(Roster.size(), nullptr);
      for (size_t B = 0; B < Roster.size(); ++B) {
        if (I >= Obs[B].size())
          continue;
        Cells[B] = &Obs[B][I];
        if (CountCells &&
            Cells[B]->Compile == BackendObservation::CompileStatus::Ok &&
            Cells[B]->Exec != BackendObservation::ExecStatus::NotRun)
          ++Result.MatrixCellsCompared;
      }

      MatrixVote Vote = voteMatrixCell(V.ExitCode, V.Output, Cells);
      for (size_t B = 0; B < Roster.size(); ++B) {
        if (Vote.Outliers[B].empty())
          continue;
        if (Cells[B]->Exec == BackendObservation::ExecStatus::Timeout)
          ++Result.ExecutionTimeouts;
        ++Result.WrongCodeObservations;
        recordFired(C, BugEffect::WrongCode, Vote.Outliers[B], B,
                    Cells[B]->FiredBugs, I, Source, Result);
      }
      if (Vote.OracleOutvoted) {
        // The roster agreed against the reference semantics: either an
        // interpreter bug or UB the exclusion pass missed. Signature-only
        // by definition -- no ground-truth id space covers the oracle.
        ++Result.WrongCodeObservations;
        record(C, BugEffect::WrongCode, 0, Vote.OracleSignature,
               Roster.size(), I, Source, Result);
      }
    }
  }

  /// Records a finding blamed on roster slot \p B: with ground truth, one
  /// per fired bug of effect \p Effect (checked lookup, so foreign ids
  /// cannot read out of bounds); without, one signature-only finding.
  void recordFired(size_t C, BugEffect Effect, const std::string &Sig,
                   size_t B, const std::vector<int> &Fired, size_t InputIdx,
                   const std::string &Source, CampaignResult &Result) {
    if (!Roster[B]->hasGroundTruth()) {
      record(C, Effect, 0, Sig, B, InputIdx, Source, Result);
      return;
    }
    for (int Id : Fired) {
      const InjectedBug *Truth = findBug(Id);
      if (Truth && Truth->Effect == Effect)
        record(C, Effect, Id, Sig, B, InputIdx, Source, Result);
    }
  }

  /// Records one finding into \p Result under config \p C, attributed to
  /// roster slot \p B (Roster.size() = the reference oracle). \p InputIdx
  /// indexes the config's sweep for behavioral findings and is 0 for
  /// compile-level ones, which carry no input. Ground-truth findings
  /// (Id != 0) key UniqueBugs and RawFindings by id; signature-only
  /// findings (Id == 0) key RawFindings by normalized signature and never
  /// touch UniqueBugs -- distinct clusters at one shared id slot would
  /// otherwise collapse arbitrarily.
  void record(size_t C, BugEffect Effect, int Id, const std::string &Sig,
              size_t B, size_t InputIdx, const std::string &Source,
              CampaignResult &Result) {
    const CompilerConfig &Config = Opts.Configs[C];
    FoundBug Bug;
    Bug.BugId = Id;
    Bug.P = Config.P;
    Bug.Effect = Effect;
    Bug.Signature = Sig;
    Bug.Version = Config.Version;
    Bug.OptLevel = Config.OptLevel;
    Bug.Mode64 = Config.Mode64;
    // A roster of one stamps no backend identity: the sole backend is
    // implied, so signatures and checkpoint bytes carry no attribution.
    if (B == Roster.size())
      Bug.Backend = "reference-oracle";
    else if (Roster.size() >= 2)
      Bug.Backend = Roster[B]->identity();
    // Only wrong-code findings are per input; compile-level ones carry none.
    if (Effect == BugEffect::WrongCode)
      Bug.Input = ConfigInputs[C][InputIdx];
    Bug.WitnessProgram = Source;
    FindingKey Key;
    Key.BugId = Id;
    Key.P = Config.P;
    Key.Version = Config.Version;
    Key.OptLevel = Config.OptLevel;
    Key.Mode64 = Config.Mode64;
    Key.BackendIdx = static_cast<unsigned>(B);
    Key.InputIdx = static_cast<unsigned>(InputIdx);
    if (Id == 0)
      Key.Sig = normalizeSignature(Effect, Sig);
    Result.RawFindings.emplace(std::move(Key), Bug);
    if (Id != 0)
      Result.UniqueBugs.emplace(Id, std::move(Bug));
  }

  const HarnessOptions &Opts;
  /// Slot 0 is the primary backend; 1.. are Opts.ExtraBackends.
  std::vector<const CompilerBackend *> Roster;
  /// sweepUnion(Opts.Configs): the matrix's input axis.
  std::vector<std::string> AllInputs;
  /// configInputs of each Opts.Configs entry.
  std::vector<std::vector<std::string>> ConfigInputs;
  bool CountCells = false;
  /// Telemetry wiring (null/empty when off): spans about a variant record
  /// into its partial result's summary so campaign merge stays
  /// deterministic.
  TelemetrySink *Sink = nullptr;
  std::vector<std::string> BackendLabels;
  std::vector<Item> Cur;
  std::vector<Item> InFlight;
  /// One in-flight ticket per roster slot (all begun before any finishes).
  std::vector<std::unique_ptr<BatchTicket>> Tickets;
};

//===----------------------------------------------------------------------===//
// Checkpointed campaigns (persist/Checkpoint.h, DESIGN.md Section 11)
//===----------------------------------------------------------------------===//

/// Shared state of one checkpointed campaign run: the live snapshot, the
/// oracle backing store, and the simulated-crash trigger. The state mutex
/// M guards snapshot mutation and store flushes; the snapshot *file*
/// write happens outside M (serialization pins the state under M, then a
/// sequence-guarded second mutex orders the disk writes) so workers do
/// not stall behind the largest I/O. Store drains do run under M -- the
/// recorded StoreBytes must be consistent with the snapshot serialized
/// in the same critical section -- but only at cadence-due events, so
/// the fsync cost is amortized over CheckpointEveryN variants.
struct CheckpointContext {
  std::mutex M;
  CampaignCheckpoint Snap;
  OracleStore *Store = nullptr; ///< Null when no backing store is active.
  std::string Path;
  uint64_t EveryN = 0;
  uint64_t CrashAfter = 0; ///< 0 = no simulated crash.
  std::atomic<uint64_t> Variants{0};
  std::atomic<bool> Crashed{false};
  /// Variants enumerated since the snapshot file was last written (guarded
  /// by M). Seed commits skip the file write until the CheckpointEveryN
  /// cadence is due, so campaigns over many small seeds are not taxed one
  /// write per seed; a crash redoes at most ~EveryN variants either way.
  uint64_t SinceWrite = 0;
  /// Monotonic snapshot generation (guarded by M) and the latest
  /// generation actually on disk (guarded by IOMutex): concurrent
  /// publishes may serialize in one order and reach the write lock in
  /// another, and an older state must never overwrite a newer one.
  uint64_t PublishSeq = 0;
  std::mutex IOMutex;
  uint64_t WrittenSeq = 0;
  bool WriteWarned = false; ///< One warning per failure streak (IOMutex).
  /// Campaign telemetry sink (null = off): snapshot writes record a
  /// global-phase "checkpoint_write" span.
  TelemetrySink *Sink = nullptr;

  /// Writes \p Text (snapshot generation \p Seq, serialized under M) to
  /// the snapshot file unless a newer generation already landed. Called
  /// WITHOUT M held. Write failures are non-fatal -- persistence is
  /// best-effort and never blocks the campaign itself -- but a campaign
  /// silently running without the crash protection it was asked for is a
  /// misconfiguration worth one loud line.
  void writeSnapshot(const std::string &Text, uint64_t Seq) {
    std::lock_guard<std::mutex> Lock(IOMutex);
    if (Seq <= WrittenSeq)
      return;
    SpanTimer Span(Sink, nullptr, "checkpoint_write");
    std::string Err;
    if (atomicWriteFile(Path, Text, &Err)) {
      WrittenSeq = Seq;
      WriteWarned = false;
    } else if (!WriteWarned) {
      std::fprintf(stderr,
                   "spe: checkpoint snapshot write failed (%s); the "
                   "campaign continues WITHOUT crash protection until a "
                   "write succeeds\n",
                   Err.c_str());
      WriteWarned = true;
    }
  }

  /// Counts one produced variant toward the simulated crash. \returns true
  /// when the "process" is dead -- this variant killed it, or another
  /// worker's already did: the caller abandons its unpublished work, which
  /// is exactly what SIGKILL would strand.
  bool countVariant() {
    if (CrashAfter == 0)
      return false;
    if (crashed() ||
        Variants.fetch_add(1, std::memory_order_relaxed) >= CrashAfter) {
      Crashed.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }
  bool crashed() const { return Crashed.load(std::memory_order_relaxed); }

  /// Verdicts accepted from worker publishes but not yet appended to the
  /// store (guarded by M). Draining -- with its fsync -- happens only when
  /// a snapshot file write is actually due: a snapshot that never reaches
  /// disk never references the bytes, so buffering costs nothing but
  /// redone work after a crash.
  std::vector<std::pair<std::string, OracleCache::Entry>> Pending;
  /// Consecutive failed drains; past a small streak the store is disabled
  /// (with a warning) so Pending cannot grow without bound.
  unsigned DrainFailures = 0;
  /// Set (never cleared) when persistent append failure disables the
  /// store. Atomic because workers poll it outside M to decide
  /// whether staging is still worthwhile; Store itself stays non-null so
  /// no pointer is ever read and written concurrently.
  std::atomic<bool> StoreDead{false};

  /// Whether freshly computed verdicts are worth staging for the store.
  bool staging() const {
    return Store && !StoreDead.load(std::memory_order_relaxed);
  }

  /// Appends Pending to the backing store and records the new durable
  /// length. Must precede serializing a snapshot that is about to be
  /// written: the recorded StoreBytes must always be covered by bytes
  /// actually on disk, so a crash between the two strands only ignorable
  /// tail bytes (persist/OracleStore.h). A failed append (disk full,
  /// foreign file at the store path) RETAINS Pending for retry at the
  /// next drain -- silently dropping verdicts would let a later resume
  /// replay less than the uninterrupted run cached, skewing the oracle
  /// counters off the bit-identical contract. Persistent failure disables
  /// the store loudly rather than leaking memory forever.
  void drainPendingLocked() {
    if (!staging() || Pending.empty())
      return;
    if (Store->append(Pending)) {
      Snap.StoreBytes = Store->bytesOnDisk();
      Pending.clear();
      DrainFailures = 0;
      return;
    }
    if (++DrainFailures >= 8) {
      std::fprintf(stderr,
                   "spe: oracle store '%s' failed %u consecutive appends; "
                   "disabling it for the rest of the campaign (resume will "
                   "recompute the unpersisted verdicts)\n",
                   Store->path().c_str(), DrainFailures);
      StoreDead.store(true, std::memory_order_relaxed);
      Pending.clear();
    }
  }

  /// Under M: drains the store and serializes the snapshot for a file
  /// write, which the caller performs outside M. \returns its generation.
  uint64_t serializeLocked(std::string &Text) {
    drainPendingLocked();
    Text = Snap.serialize();
    SinceWrite = 0;
    return ++PublishSeq;
  }

  /// Rewrites the snapshot file now, whatever the cadence owes, with
  /// \p Complete marking the campaign finished.
  void writeNow(bool Complete) {
    std::string Text;
    uint64_t Seq;
    {
      std::lock_guard<std::mutex> Lock(M);
      Snap.Complete = Complete;
      Seq = serializeLocked(Text);
    }
    writeSnapshot(Text, Seq);
  }

  /// Seats a seed's in-flight state, one slot per chunk, before any chunk
  /// runs, so a crash before the first publish resumes from the seed's
  /// start. In memory only: the file still shows the previous seed commit,
  /// from which a resume correctly re-runs this seed's prefix.
  void beginSeed(uint64_t ConstraintsFp, const CampaignResult &Header,
                 const std::vector<WorkerCheckpoint> &Workers) {
    std::lock_guard<std::mutex> Lock(M);
    Snap.InFlight = true;
    Snap.ConstraintsFingerprint = ConstraintsFp;
    Snap.SeedHeader = Header;
    Snap.Workers = Workers;
  }

  /// Publishes chunk \p W's progress. A mid-chunk publish rewrites the
  /// snapshot file: it is the only persistence a long chunk gets. A
  /// chunk's final publish (\p Finished) writes only once the cadence is
  /// due, as a seed commit does, so a seed whose chunks are shorter than
  /// EveryN still reaches disk every EveryN variants.
  void publish(unsigned W, bool Finished, CursorState Cursor,
               const CampaignResult &Partial, CoverageRegistry *Cov,
               StagedVec &Staged, uint64_t DeltaVariants) {
    std::string Text;
    uint64_t Seq = 0;
    {
      std::lock_guard<std::mutex> Lock(M);
      if (crashed())
        return; // The "process" is already dead; nothing more reaches disk.
      if (!StoreDead.load(std::memory_order_relaxed))
        Pending.insert(Pending.end(),
                       std::make_move_iterator(Staged.begin()),
                       std::make_move_iterator(Staged.end()));
      Staged.clear();
      WorkerCheckpoint &Slot = Snap.Workers[W];
      Slot.Finished = Finished;
      Slot.Cursor = std::move(Cursor);
      Slot.Partial = Partial;
      if (Cov)
        Slot.CovHits = Cov->hitSet();
      // Cadence accounting: \p DeltaVariants is this worker's work since
      // its previous publish, so SinceWrite counts exactly the variants
      // not yet covered by a file write -- no double counting between
      // mid-run publishes and seed commits.
      SinceWrite += DeltaVariants;
      if (Finished && (EveryN == 0 || SinceWrite < EveryN))
        return;
      Seq = serializeLocked(Text);
    }
    // Disk I/O happens outside the state mutex: other workers may keep
    // enumerating and publishing while this snapshot reaches disk.
    writeSnapshot(Text, Seq);
  }

  /// Folds a finished seed into the snapshot: seeds [0, NextSeed) are now
  /// fully accounted for by \p Merged and \p Cov's hit set. The file write
  /// is amortized on the EveryN cadence (worker publishes accumulate their
  /// uncovered variants into SinceWrite) so campaigns over many small
  /// seeds do not pay one write per seed; EveryN == 0 means every seed
  /// boundary writes.
  void commitSeed(const CampaignResult &Merged, const CoverageRegistry *Cov) {
    std::string Text;
    uint64_t Seq = 0;
    {
      std::lock_guard<std::mutex> Lock(M);
      Snap.InFlight = false;
      Snap.ConstraintsFingerprint = 0;
      Snap.SeedHeader = CampaignResult();
      Snap.Workers.clear();
      ++Snap.NextSeed;
      Snap.Merged = Merged;
      if (Cov)
        Snap.CovHits = Cov->hitSet();
      if (EveryN != 0 && SinceWrite < EveryN)
        return;
      Seq = serializeLocked(Text);
    }
    writeSnapshot(Text, Seq);
  }
};

//===----------------------------------------------------------------------===//
// The campaign loop
//===----------------------------------------------------------------------===//

/// What runRange drives over one seed's ranks. A worker builds it once per
/// seed and runs every chunk it claims through it: the template is parsed
/// once, and a chunk that starts where the cursor stands is not sought.
struct RangeTools {
  RangeTools(const HarnessOptions &Opts, const SeedPlan &Plan)
      : Cursor(Plan.Units, Opts.Mode), Renderer(*Plan.Ctx, Plan.Units),
        Binder(Renderer, Plan.Units, Opts.Extract) {
    if (!Plan.ValidityPtrs.empty())
      Cursor.setConstraints(Plan.ValidityPtrs);
  }

  ProgramCursor Cursor;
  VariantRenderer Renderer;
  VariantBinder Binder;
  /// The rendered text of the current variant; its capacity carries over.
  std::string Buffer;
};

/// The one variant loop: runs the cursor range \p From of a seed's budgeted
/// space -- a rank chunk, a resumed chunk, or a fleet lease -- through
/// \p Tools and \p Pipe and accrues into \p Out, which holds only this
/// range's work (a resumed chunk's restored partial included). The range's
/// last batch may still be in flight on return; the caller drains \p Pipe
/// when it needs those rows. \p Open, when set, counts the range from its
/// start until its rows are all recorded. \p Ck, when set, publishes every
/// EveryN variants, publishes the range's final state once its rows are
/// recorded, and delivers the simulated crash. \returns false when the
/// cursor rejects \p From.
bool runRange(const HarnessOptions &Opts, VariantPipeline &Pipe,
              RangeTools &Tools, const CursorState &From, unsigned Shard,
              CampaignResult &Out, CoverageRegistry *Cov,
              std::atomic<unsigned> *Open, CheckpointContext *Ck) {
  ProgramCursor &Cursor = Tools.Cursor;
  if (!Cursor.restoreState(From))
    return false;
  if (Open)
    ++*Open;
  TelemetrySink *Sink = Opts.Telemetry;
  TelemetrySummary *Local = Sink ? &Out.Telemetry : nullptr;
  std::string &Buffer = Tools.Buffer;
  StagedVec Staged;
  uint64_t SincePublish = 0;
  while (const ProgramAssignment *PA = Cursor.next()) {
    if (Ck && Ck->countVariant())
      return true; // Simulated kill: unpublished work dies with the process
                   // -- including whatever the pipeline holds undrained.
    ++Out.VariantsEnumerated;
    ASTContext *Bound;
    {
      SpanTimer T(Sink, Local, "render");
      Tools.Renderer.renderInto(*PA, Buffer);
      Bound = Tools.Binder.bind(*PA);
    }
    Pipe.add(Buffer, Bound, Out, Cov,
             Ck && Ck->staging() ? &Staged : nullptr);
    if (Opts.Status && Opts.Status->noteVariant()) {
      Opts.Status->updateShard(Shard, shardStatusNow(Out, Cursor));
      Opts.Status->writeNow();
    }
    if (Ck && Ck->EveryN != 0 && ++SincePublish >= Ck->EveryN) {
      // Drain first: the published cursor position, partial result, and
      // staged verdicts must describe exactly the same prefix an
      // unbatched publish would -- that is what keeps checkpoint bytes
      // identical across batch sizes.
      Pipe.drain();
      Ck->publish(Shard, false, Cursor.saveState(), Out, Cov, Staged,
                  SincePublish);
      SincePublish = 0;
    }
  }
  const BigInt &Pruned = Cursor.pruned();
  Out.VariantsPruned +=
      Pruned.fitsInUint64() ? Pruned.toUint64() : ~uint64_t(0);
  if (Opts.Status) {
    CampaignStatusFeed::ShardStatus S;
    S.C = countersOf(Out);
    S.RanksDone = S.RanksTotal = S.C.Enumerated + S.C.Pruned;
    S.Finished = true;
    Opts.Status->updateShard(Shard, S);
  }
  // The final publish marks the chunk finished, its pruned counter folded;
  // a resume restores it verbatim instead of re-running it. It waits for
  // the chunk's last rows, so a batch can run on into the next chunk.
  Pipe.whenRecorded([=, &Out, State = Cursor.saveState(),
                     Staged = std::move(Staged)]() mutable {
    if (Ck)
      Ck->publish(Shard, true, std::move(State), Out, Cov, Staged,
                  SincePublish);
    if (Open)
      --*Open;
  });
  return true;
}

/// Rank chunks per seed: each seed's budgeted range is cut into this many
/// (fewer when the budget is smaller) whatever the thread count, so a
/// seed's chunks, and the checkpoint's in-flight section, are the same at
/// every thread count. Sixteen keep two to four workers within about one
/// chunk of each other at a seed's join.
constexpr unsigned SeedChunks = 16;

/// The size of the chunk grid over \p Budget ranks: min(Budget,
/// SeedChunks), and one empty chunk for an empty budget.
unsigned chunkCount(const BigInt &Budget) {
  if (!Budget.fitsInUint64() || Budget.toUint64() >= SeedChunks)
    return SeedChunks;
  return std::max(1u, static_cast<unsigned>(Budget.toUint64()));
}

/// True when \p CS lies on the chunk [\p Begin, \p End): it ends at End,
/// and its position is a decimal rank in [Begin, End].
bool onChunk(const CursorState &CS, const BigInt &Begin, const BigInt &End) {
  if (CS.End != End.toString() || CS.Position.empty() ||
      CS.Position.find_first_not_of("0123456789") != std::string::npos)
    return false;
  BigInt Pos = BigInt::fromDecimalString(CS.Position);
  return Begin <= Pos && Pos <= End;
}

/// A seed's plan and the header counters its front-end pass accrued.
struct PlannedSeed {
  CampaignResult Header;
  SeedPlan Plan;
};

/// The seed loop of one campaign. Each seed's budgeted range is cut into
/// a fixed grid of rank chunks (chunkCount); each chunk is one runRange
/// call into its own partial result, and the partials merge in chunk
/// order, so a finding's witness is its first occurrence in rank order at
/// any thread count. At one thread the calling thread runs every chunk in
/// rank order through one cursor and the campaign pipeline. With more,
/// each seed starts one thread per worker; they claim the chunks in rank
/// order from one counter, each through its own cursor and its own
/// pipeline, while the calling thread plans the next seed. Every pipeline
/// outlives the seeds, so a batch fills across chunk and seed boundaries.
///
/// A seed whose enumeration has ended waits in Pending until its last
/// queued row is recorded, then merges -- in seed order -- and commits. A
/// pipeline drains only before a checkpoint publish or seed commit (with
/// checkpoints every seed drains at its end) and at campaign end.
class SeedRunner {
public:
  /// Seeds merge into \p Merged; \p Ck is null for a campaign without
  /// checkpoints.
  SeedRunner(const HarnessOptions &Opts, const CompilerBackend &Backend,
             CampaignResult &Merged, CheckpointContext *Ck)
      : Opts(Opts), Merged(Merged), Ck(Ck), Pipe(Opts, Backend) {
    Pipe.OnRecorded = [this] { settle(); };
    unsigned Threads = Opts.Threads != 0
                           ? Opts.Threads
                           : std::thread::hardware_concurrency();
    // No point in more workers than a seed has chunks.
    Threads = std::min(std::max(Threads, 1u), SeedChunks);
    if (Opts.Threads > SeedChunks)
      std::fprintf(stderr,
                   "spe: Threads = %u, but a seed has at most %u rank "
                   "chunks; the campaign runs on %u threads\n",
                   Opts.Threads, SeedChunks, Threads);
    if (Threads > 1)
      for (unsigned W = 0; W < Threads; ++W)
        WorkerPipes.push_back(
            std::make_unique<VariantPipeline>(Opts, Backend));
  }

  /// Runs seeds [\p Start, end of \p Seeds), the first of them from
  /// \p Resume's chunk states when set. \returns false with \p Err set when
  /// the resume snapshot disagrees with the re-analyzed seed; a simulated
  /// crash ends the loop early and \returns true.
  bool run(const std::vector<std::string> &Seeds, size_t Start,
           const CampaignCheckpoint *Resume, std::string &Err) {
    std::unique_ptr<PlannedSeed> Next = plan(Seeds, Start);
    for (size_t S = Start; S < Seeds.size(); ++S) {
      std::unique_ptr<PlannedSeed> Cur = std::move(Next);
      auto PlanNext = [&] { Next = plan(Seeds, S + 1); };
      if (!runSeed(S, *Cur, S == Start ? Resume : nullptr, PlanNext, Err))
        return false;
      if (Ck && Ck->crashed())
        return true;
    }
    return true;
  }

  /// Campaign end: records every queued row and merges every seed. The
  /// workers' unfilled batches join the campaign pipeline's, so how the
  /// workers split the last seeds' chunks does not leave a row alone in a
  /// batch of its own.
  void finish() {
    for (std::unique_ptr<VariantPipeline> &P : WorkerPipes)
      Pipe.adoptQueued(*P);
    Pipe.drain();
    settle();
  }

private:
  /// A seed between the end of its enumeration and its merge.
  struct PendingSeed {
    /// The seed's index in the corpus, which names it to the status feed.
    uint64_t Index = 0;
    CampaignResult Header;
    /// One partial result and (when coverage is on) one registry per chunk.
    std::vector<CampaignResult> Partials;
    std::vector<CoverageRegistry> Covs;
    /// Set when its enumeration ended: the seed merges once no chunk of it
    /// is Open, i.e. has rows unrecorded in whichever pipeline holds them.
    bool Ended = false;
    std::atomic<unsigned> Open{0};
  };

  /// The plan of \p Seeds[\p Index], or null past the end.
  std::unique_ptr<PlannedSeed> plan(const std::vector<std::string> &Seeds,
                                    size_t Index) const {
    if (Index >= Seeds.size())
      return nullptr;
    auto P = std::make_unique<PlannedSeed>();
    P->Plan = buildSeedPlan(Opts, Seeds[Index], P->Header);
    return P;
  }

  /// Runs seed \p Index of plan \p Planned: every chunk of its grid -- or,
  /// resuming mid-seed, \p Resume's chunk states -- and calls \p PlanNext
  /// once, while the pool runs the chunks when there is one. \returns false
  /// with \p Err set when the resume snapshot disagrees with the
  /// re-analyzed seed.
  bool runSeed(uint64_t Index, PlannedSeed &Planned,
               const CampaignCheckpoint *Resume,
               const std::function<void()> &PlanNext, std::string &Err);

  /// Ends the current seed's enumeration and merges what is complete.
  bool endSeed() {
    Pending.back().Ended = true;
    settle();
    return true;
  }

  /// Merges, in seed order, every pending seed whose rows are all
  /// recorded, and commits each to the checkpoint and the status feed.
  /// Runs on the calling thread only, while no worker runs.
  void settle() {
    while (!Pending.empty() && Pending.front().Ended &&
           Pending.front().Open == 0) {
      const PendingSeed &Seed = Pending.front();
      Merged.merge(Seed.Header);
      for (const CampaignResult &P : Seed.Partials)
        Merged.merge(P);
      for (const CoverageRegistry &Cov : Seed.Covs)
        Opts.Cov->merge(Cov);
      if (Ck)
        Ck->commitSeed(Merged, Opts.Cov);
      if (Opts.Status)
        Opts.Status->commitSeed(Seed.Index, countersOf(Merged));
      Pending.pop_front();
    }
  }

  const HarnessOptions &Opts;
  CampaignResult &Merged;
  CheckpointContext *Ck;
  /// Seeds not yet merged, oldest first. A deque: pipeline items point
  /// into the partials of every seed it holds, which pops at the front and
  /// pushes at the back must not move.
  std::deque<PendingSeed> Pending;
  /// The campaign pipeline, which the calling thread's chunks run through.
  VariantPipeline Pipe;
  /// One pipeline per worker thread; none at one thread.
  std::vector<std::unique_ptr<VariantPipeline>> WorkerPipes;
};

bool SeedRunner::runSeed(uint64_t Index, PlannedSeed &Planned,
                         const CampaignCheckpoint *Resume,
                         const std::function<void()> &PlanNext,
                         std::string &Err) {
  PendingSeed &Seed = Pending.emplace_back();
  Seed.Index = Index;
  Seed.Header = std::move(Planned.Header);
  const SeedPlan &Plan = Planned.Plan;
  if (!Plan.Ready) {
    if (Resume) {
      Err = "snapshot is mid-seed but the seed re-analyzes as rejected or "
            "threshold-skipped (corpus or analysis skew)";
      return false;
    }
    PlanNext();
    return endSeed();
  }

  // The grid. A resumed seed must have been cut exactly the same way: its
  // chunks' ranks are what each slot's partial result accounts for.
  const unsigned Chunks = chunkCount(Plan.Budget);
  std::vector<WorkerCheckpoint> Init(Chunks);
  for (unsigned C = 0; C < Chunks; ++C) {
    BigInt Begin, End;
    cursor_detail::shardRange(BigInt(0), Plan.Budget, C, Chunks, Begin,
                              End);
    if (Resume) {
      if (Resume->Workers.size() != Chunks ||
          !onChunk(Resume->Workers[C].Cursor, Begin, End)) {
        Err = "snapshot's in-flight chunks are not the seed's grid of " +
              std::to_string(Chunks) + " chunks over " +
              Plan.Budget.toString() + " ranks (analysis skew)";
        return false;
      }
      Init[C] = Resume->Workers[C];
      continue;
    }
    Init[C].Cursor = {Begin.toString(), End.toString(), "0"};
    if (Opts.Cov)
      Init[C].CovHits = Opts.Cov->hitSet();
  }
  if (Ck) {
    uint64_t CFp = fingerprintConstraints(Plan.Validity);
    if (Resume) {
      if (Resume->ConstraintsFingerprint != CFp) {
        Err = "validity-constraints fingerprint mismatch (analysis skew)";
        return false;
      }
      if (!(Resume->SeedHeader == Seed.Header)) {
        Err = "snapshot seed header does not match the re-analyzed seed "
              "(front-end skew)";
        return false;
      }
    }
    Ck->beginSeed(CFp, Seed.Header, Init);
  }

  if (Opts.Status)
    Opts.Status->beginSeed(Index, Chunks);
  // Each chunk owns its partial result and (when requested) a private
  // coverage registry copy, merged back in chunk order once the seed's
  // rows are all recorded.
  Seed.Partials.resize(Chunks);
  if (Opts.Cov)
    Seed.Covs.assign(Chunks, *Opts.Cov);
  std::atomic<bool> BadRestore{false};
  // Runs chunk C through a worker's pipeline and tools, the tools built on
  // the first chunk the worker runs.
  auto RunChunk = [&](unsigned C, VariantPipeline &P,
                      std::optional<RangeTools> &Tools) {
    CoverageRegistry *Cov = Opts.Cov ? &Seed.Covs[C] : nullptr;
    Seed.Partials[C] = Init[C].Partial;
    if (Cov)
      Cov->setHits(Init[C].CovHits);
    // A chunk that finished before the crash is restored verbatim.
    if (Init[C].Finished)
      return;
    if (!Tools)
      Tools.emplace(Opts, Plan);
    if (!runRange(Opts, P, *Tools, Init[C].Cursor, C, Seed.Partials[C], Cov,
                  &Seed.Open, Ck))
      BadRestore.store(true, std::memory_order_relaxed);
  };
  auto Alive = [this] { return !Ck || !Ck->crashed(); };
  // With checkpoints a seed commits before the next one is seated, so a
  // run of chunks ends by recording its rows; without, a batch runs on
  // into the next seed.
  auto EndRun = [&](VariantPipeline &P) {
    if (Ck && Alive())
      P.drain();
  };
  if (WorkerPipes.empty()) {
    std::optional<RangeTools> Tools;
    for (unsigned C = 0; C < Chunks && Alive(); ++C)
      RunChunk(C, Pipe, Tools);
    EndRun(Pipe);
    PlanNext();
  } else {
    std::atomic<unsigned> NextChunk{0};
    // Traced, a worker out of chunks waits for the others before it
    // returns; that wait, to the seed's join, is the global span seed_wait.
    const size_t Threads = std::min<size_t>(WorkerPipes.size(), Chunks);
    std::mutex JoinM;
    std::condition_variable Joined;
    size_t Busy = Threads; // Guarded by JoinM.
    std::vector<std::thread> Workers;
    Workers.reserve(Threads);
    for (size_t W = 0; W < Threads; ++W)
      Workers.emplace_back([&, P = WorkerPipes[W].get()] {
        std::optional<RangeTools> Tools;
        for (unsigned C; Alive() && (C = NextChunk++) < Chunks;)
          RunChunk(C, *P, Tools);
        EndRun(*P);
        if (!Opts.Telemetry)
          return;
        SpanTimer T(Opts.Telemetry, nullptr, "seed_wait");
        std::unique_lock<std::mutex> Lock(JoinM);
        if (--Busy == 0)
          Joined.notify_all();
        Joined.wait(Lock, [&] { return Busy == 0; });
      });
    PlanNext();
    for (std::thread &T : Workers)
      T.join();
  }

  if (BadRestore.load(std::memory_order_relaxed)) {
    Err = "snapshot cursor state does not fit the seed's rank space";
    return false;
  }
  if (!Alive())
    return true; // Campaign aborts; the caller discards the partial result.
  return endSeed();
}

/// The campaign behind runCampaign and resumeCampaign: seeds from
/// \p From's NextSeed on (all of them when \p From is null) on top of its
/// merged state, then the campaign tail -- Complete snapshot, cache
/// statistics, triage, telemetry fold, status finish. Without
/// CheckpointPath the checkpoint context is null: nothing is fingerprinted,
/// serialized, or written, and no crash is simulated.
bool runSeeds(const HarnessOptions &Opts, const CompilerBackend &Backend,
              const std::vector<std::string> &Seeds,
              const CampaignCheckpoint *From, CampaignResult &Result,
              std::string &Err) {
  // The global spans this campaign records, from here to its end.
  CampaignSpans Spans(Opts.Telemetry);
  CheckpointContext Ctx;
  CheckpointContext *Ck = Opts.CheckpointPath.empty() ? nullptr : &Ctx;
  OracleStore Store(Opts.OracleStorePath);
  size_t StartSeed = 0;
  if (From) {
    Result = From->Merged;
    StartSeed = static_cast<size_t>(From->NextSeed);
    if (Opts.Cov)
      Opts.Cov->setHits(From->CovHits);
  }
  if (Ck) {
    Ctx.Path = Opts.CheckpointPath;
    Ctx.EveryN = Opts.CheckpointEveryN;
    Ctx.CrashAfter = Opts.SimulateCrashAfter;
    Ctx.Sink = Opts.Telemetry;
    if (!Opts.OracleStorePath.empty() && Opts.Cache) {
      Ctx.Store = &Store;
      if (From) {
        // Restore the exact cache state the snapshot describes: drop any
        // bytes a crash stranded past the recorded valid length, then warm
        // the in-memory cache from the surviving prefix.
        Store.truncateTo(From->StoreBytes);
        Store.loadInto(*Opts.Cache, From->StoreBytes);
      } else {
        // Fresh campaign, possibly warm store from an earlier generation:
        // load its valid prefix and trim any torn tail so future appends
        // extend a well-formed log.
        uint64_t Valid = 0;
        Store.loadInto(*Opts.Cache, ~uint64_t(0), &Valid);
        if (Valid > 0)
          Store.truncateTo(Valid);
      }
    }
    Ctx.Snap.OptionsFingerprint = fingerprintOptions(Opts);
    Ctx.Snap.SeedsFingerprint = fingerprintSeeds(Seeds);
    Ctx.Snap.StoreBytes = Ctx.Store ? Store.bytesOnDisk() : 0;
    Ctx.Snap.NextSeed = StartSeed;
    Ctx.Snap.Merged = Result;
    if (Opts.Cov)
      Ctx.Snap.CovHits = Opts.Cov->hitSet();
    // Fresh campaigns seed the snapshot file immediately (a crash before
    // the first publish then resumes from scratch). A *resume* must not:
    // the on-disk file still holds the richer in-flight state we are about
    // to re-validate, and overwriting it early would destroy exactly the
    // progress a rejected or re-crashed resume needs to fall back on. The
    // first publish or commit replaces it once the resume is past
    // validation.
    if (!From)
      Ctx.writeNow(/*Complete=*/false);
  }

  if (Opts.Status)
    Opts.Status->beginCampaign(Seeds.size(), StartSeed, countersOf(Result));
  SeedRunner Runner(Opts, Backend, Result, Ck);
  if (!Runner.run(Seeds, StartSeed, From && From->InFlight ? From : nullptr,
                  Err))
    return false;
  if (Ck && Ck->crashed())
    return true; // Simulated death: the caller resumes from disk.
  Runner.finish();
  if (Ck)
    Ck->writeNow(/*Complete=*/true);

  if (Ctx.Store)
    Result.OracleStoreBytes = Store.bytesOnDisk();
  if (Opts.Triage) {
    // Post-merge and single-threaded, so the triaged report is identical
    // for every Opts.Threads value. Triage runs *after* the Complete
    // snapshot: it is deterministic given the merged result plus the
    // campaign's cache state, so a crash during triage resumes from the
    // Complete snapshot and simply re-runs it.
    if (Opts.Status)
      Opts.Status->beginTriage();
    triageCampaign(Result, Opts);
  }
  // Global-phase telemetry (compile, batch pack, checkpoint writes,
  // triage stages) folds into the result exactly once, at campaign end:
  // the campaign's own spans, not those of earlier campaigns on the sink.
  if (Opts.Telemetry)
    Result.Telemetry.merge(Spans.close());
  if (Opts.Status) {
    if (Opts.Triage)
      Opts.Status->setClusters(Result.Triaged.size());
    Opts.Status->finishCampaign(countersOf(Result));
  }
  return true;
}

} // namespace

CampaignResult
DifferentialHarness::runCampaign(const std::vector<std::string> &Seeds) const {
  // A fresh run has no snapshot to mis-validate and snapshot write failures
  // are non-fatal (best-effort persistence), so the error channel is unused
  // here; resumeCampaign is where validation can reject.
  CampaignResult Result;
  std::string Err;
  runSeeds(Opts, backend(), Seeds, nullptr, Result, Err);
  return Result;
}

bool DifferentialHarness::resumeCampaign(const std::vector<std::string> &Seeds,
                                         CampaignResult &Result,
                                         std::string &Err) const {
  if (Opts.CheckpointPath.empty()) {
    Err = "resumeCampaign requires HarnessOptions::CheckpointPath";
    return false;
  }
  CampaignCheckpoint CP;
  if (!CampaignCheckpoint::loadFrom(Opts.CheckpointPath, CP, Err))
    return false;
  if (CP.OptionsFingerprint != fingerprintOptions(Opts)) {
    Err = "options fingerprint mismatch: the snapshot was written under "
          "different campaign-shaping options";
    return false;
  }
  if (CP.SeedsFingerprint != fingerprintSeeds(Seeds)) {
    Err = "seed-list fingerprint mismatch: the snapshot was written for a "
          "different corpus";
    return false;
  }
  if (CP.NextSeed > Seeds.size() ||
      (CP.InFlight && CP.NextSeed >= Seeds.size())) {
    Err = "snapshot indexes past the seed list";
    return false;
  }
  // A Complete snapshot has no seeds left: the same runner reconstitutes
  // the final state (result, coverage, cache) and runs the deterministic
  // campaign tail.
  Result = CampaignResult();
  return runSeeds(Opts, backend(), Seeds, &CP, Result, Err);
}

void DifferentialHarness::testProgram(const std::string &Source,
                                      CampaignResult &Result) const {
  VariantPipeline Pipe(Opts, backend());
  Pipe.add(Source, nullptr, Result, Opts.Cov, nullptr);
  Pipe.drain();
}

DifferentialHarness::SeedLeaseSummary
DifferentialHarness::summarizeSeed(const std::string &Source) const {
  SeedLeaseSummary S;
  SeedPlan Plan = buildSeedPlan(Opts, Source, S.Header);
  S.Enumerable = Plan.Ready;
  if (Plan.Ready)
    S.Budget = Plan.Budget;
  return S;
}

bool DifferentialHarness::runLease(const std::string &Source,
                                   const BigInt &Begin, const BigInt &End,
                                   CampaignResult &Out,
                                   std::string &Err) const {
  CampaignResult Header; // Coordinator-owned; deliberately dropped here.
  SeedPlan Plan = buildSeedPlan(Opts, Source, Header);
  if (!Plan.Ready) {
    Err = "seed is not enumerable (front-end rejection or variant threshold)";
    return false;
  }
  if (End < Begin || Plan.Budget < End) {
    Err = "lease range [" + Begin.toString() + ", " + End.toString() +
          ") outside the seed's budgeted rank space of " +
          Plan.Budget.toString();
    return false;
  }
  // The cursor is positioned exactly the way a chunk's is, so a lease sees
  // the same variants, in the same order, as the chunks that would have
  // covered these ranks.
  CursorState CS{Begin.toString(), End.toString(), "0"};
  VariantPipeline Pipe(Opts, backend());
  RangeTools Tools(Opts, Plan);
  bool Ok =
      runRange(Opts, Pipe, Tools, CS, 0, Out, nullptr, nullptr, nullptr);
  Pipe.drain();
  if (Ok)
    return true;
  Err = "cursor rejected lease range [" + CS.Position + ", " + CS.End + ")";
  return false;
}
