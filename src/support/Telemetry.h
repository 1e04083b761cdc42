//===- support/Telemetry.h - campaign trace spans + metrics --------------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead campaign telemetry (DESIGN.md Section 15): scoped phase
/// timers ("spans") emitted to a per-campaign append-only JSONL event log,
/// plus counters and latency histograms keyed by (phase, backend, config).
///
/// Two accumulation paths keep the numbers deterministic without double
/// counting:
///
///  - *Worker-local* spans (render, oracle/sweep interpretation, cache
///    lookup, backend run, vote) aggregate into the rank chunk's private
///    TelemetrySummary -- a plain member of its partial CampaignResult --
///    and merge in chunk order exactly like coverage does. Event lines
///    still flow to the shared sink, but the sink does NOT fold them into
///    its own aggregate.
///
///  - *Global* spans (pooled compile, batch pack, binary exec, checkpoint
///    write, seed wait, triage stages) happen outside any chunk's partial
///    result; they aggregate inside the sink, and each campaign folds the
///    ones recorded while it ran (CampaignSpans) into
///    CampaignResult::Telemetry once, at its end.
///
/// Telemetry is observation only: it never influences enumeration,
/// verdicts, findings, or checkpoint bytes, is excluded from
/// CampaignResult::operator== and every checkpoint fingerprint, and the
/// whole layer compiles down to a null-pointer test when no sink is
/// attached -- campaigns with telemetry off run the historical code paths
/// byte for byte.
///
/// The JSONL event log converts to a Chrome about://tracing / Perfetto
/// trace via TelemetrySink::exportChromeTrace. Span events are emitted at
/// scope exit (RAII), so events of one thread are ordered by end time and
/// nest properly per thread id.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_TELEMETRY_H
#define SPE_SUPPORT_TELEMETRY_H

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace spe {

/// Aggregation key: a phase name plus the backend identity label and
/// compiler-config label the span ran under (both may be empty -- phases
/// like "render" have no backend axis).
struct TelemetryKey {
  std::string Phase;
  std::string Backend;
  std::string Config;

  friend bool operator<(const TelemetryKey &A, const TelemetryKey &B) {
    if (A.Phase != B.Phase)
      return A.Phase < B.Phase;
    if (A.Backend != B.Backend)
      return A.Backend < B.Backend;
    return A.Config < B.Config;
  }
  friend bool operator==(const TelemetryKey &A, const TelemetryKey &B) {
    return A.Phase == B.Phase && A.Backend == B.Backend &&
           A.Config == B.Config;
  }
};

/// Fixed-bucket latency histogram over microseconds. Bucket I covers
/// [2^(I-1), 2^I) microseconds (bucket 0 is [0, 1)), so merge is plain
/// addition and quantiles are deterministic for any merge order.
class LatencyHistogram {
public:
  static constexpr unsigned NumBuckets = 40;

  void record(uint64_t Us) {
    ++Buckets[bucketFor(Us)];
  }
  void merge(const LatencyHistogram &Other) {
    for (unsigned I = 0; I < NumBuckets; ++I)
      Buckets[I] += Other.Buckets[I];
  }
  uint64_t count() const {
    uint64_t N = 0;
    for (uint64_t B : Buckets)
      N += B;
    return N;
  }
  /// Upper bound (2^I us) of the bucket holding the q-quantile sample;
  /// 0 when empty. Deterministic: depends only on bucket counts.
  uint64_t quantileUs(double Q) const;

  const uint64_t *buckets() const { return Buckets; }

  static unsigned bucketFor(uint64_t Us) {
    unsigned I = 0;
    while (Us > 0 && I < NumBuckets - 1) {
      Us >>= 1;
      ++I;
    }
    return I;
  }
  /// Inclusive upper bound of bucket \p I in microseconds.
  static uint64_t bucketUpperUs(unsigned I) {
    return I == 0 ? 1 : (uint64_t(1) << I);
  }

  friend bool operator==(const LatencyHistogram &A,
                         const LatencyHistogram &B) {
    for (unsigned I = 0; I < NumBuckets; ++I)
      if (A.Buckets[I] != B.Buckets[I])
        return false;
    return true;
  }

private:
  uint64_t Buckets[NumBuckets] = {};
};

/// Count + total + histogram for one (phase, backend, config) key.
struct PhaseAggregate {
  uint64_t Count = 0;
  uint64_t TotalUs = 0;
  uint64_t MaxUs = 0;
  LatencyHistogram Hist;

  void record(uint64_t Us) {
    ++Count;
    TotalUs += Us;
    if (Us > MaxUs)
      MaxUs = Us;
    Hist.record(Us);
  }
  void merge(const PhaseAggregate &Other) {
    Count += Other.Count;
    TotalUs += Other.TotalUs;
    if (Other.MaxUs > MaxUs)
      MaxUs = Other.MaxUs;
    Hist.merge(Other.Hist);
  }
  friend bool operator==(const PhaseAggregate &A, const PhaseAggregate &B) {
    return A.Count == B.Count && A.TotalUs == B.TotalUs &&
           A.MaxUs == B.MaxUs && A.Hist == B.Hist;
  }
};

/// The mergeable metrics summary: a sorted map of phase aggregates. Not
/// thread-safe by itself -- each rank chunk owns one (inside its partial
/// CampaignResult); the shared TelemetrySink wraps its own under a mutex.
///
/// Merge is bucket-wise addition over a sorted key space, so merging
/// per-chunk summaries in chunk order (or any order) yields identical
/// bytes -- the same determinism argument coverage merging relies on.
struct TelemetrySummary {
  std::map<TelemetryKey, PhaseAggregate> Phases;

  void record(const char *Phase, const std::string &Backend,
              const std::string &Config, uint64_t Us) {
    Phases[TelemetryKey{Phase, Backend, Config}].record(Us);
  }
  void merge(const TelemetrySummary &Other) {
    for (const auto &[Key, Agg] : Other.Phases)
      Phases[Key].merge(Agg);
  }
  bool empty() const { return Phases.empty(); }

  /// Sum of TotalUs over every key whose Phase equals \p Phase (collapsing
  /// the backend/config axes).
  uint64_t totalUsFor(const std::string &Phase) const;
  uint64_t countFor(const std::string &Phase) const;

  friend bool operator==(const TelemetrySummary &A,
                         const TelemetrySummary &B) {
    return A.Phases == B.Phases;
  }
};

/// One parsed span event from the JSONL log (also the schema of one line).
struct TelemetryEvent {
  std::string Phase;
  std::string Backend;
  std::string Config;
  uint64_t StartUs = 0; ///< Microseconds since sink construction.
  uint64_t DurUs = 0;
  unsigned Tid = 0; ///< Small per-sink thread index, not the OS tid.
};

/// Thread-safe campaign telemetry sink: buffered JSONL event log plus the
/// global-phase aggregate. Share the pointer via HarnessOptions::Telemetry;
/// consecutive campaigns may share one sink.
class TelemetrySink {
public:
  struct Options {
    /// JSONL event log path; empty = keep aggregates only, log nothing.
    std::string EventLogPath;
    /// Stop appending event lines past this many bytes (aggregation
    /// continues). A backstop so a runaway campaign cannot fill the disk.
    uint64_t MaxEventBytes = uint64_t(256) << 20;
  };

  TelemetrySink() : TelemetrySink(Options()) {}
  explicit TelemetrySink(Options Opts);
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink &) = delete;
  TelemetrySink &operator=(const TelemetrySink &) = delete;

  /// Microseconds since sink construction (steady clock).
  uint64_t nowUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - Epoch)
            .count());
  }

  /// Records one finished span: an event line (when a log is configured)
  /// and, when \p Aggregate, a fold into the sink's global summary.
  /// Worker-local spans pass Aggregate=false -- their aggregation lives in
  /// the worker's own TelemetrySummary so campaign merge stays per-worker
  /// deterministic and nothing counts twice.
  void recordSpan(const char *Phase, const std::string &Backend,
                  const std::string &Config, uint64_t StartUs, uint64_t DurUs,
                  bool Aggregate);

  /// Aggregate-only fold (no event line): used where the honest latency
  /// interval spans threads (pool compile submit -> wait) and a per-thread
  /// trace event would break nesting.
  void recordAggregate(const char *Phase, const std::string &Backend,
                       const std::string &Config, uint64_t DurUs);

  /// Snapshot of the global-phase aggregate over the sink's lifetime.
  TelemetrySummary summary() const;

  /// Flushes buffered event lines to the log file.
  void flush();

  /// Converts the JSONL event log into a Chrome about://tracing trace
  /// (one complete "X" event per span). Flushes first. \returns false
  /// with \p Err set when no log is configured or I/O fails.
  bool exportChromeTrace(const std::string &Path, std::string &Err);

  const std::string &eventLogPath() const { return Opts.EventLogPath; }
  uint64_t eventsWritten() const;

  /// Parses one JSONL event line; \returns false on malformed input.
  /// Exposed so tests can replay a log and assert span nesting.
  static bool parseEventLine(const std::string &Line, TelemetryEvent &Out);

  /// Small dense per-sink thread index for trace events.
  unsigned threadId();

private:
  friend class CampaignSpans;

  Options Opts;
  std::chrono::steady_clock::time_point Epoch;
  mutable std::mutex Mu;
  TelemetrySummary Global;
  /// The open CampaignSpans' summaries; every aggregated span folds into
  /// each of them as well as into Global.
  std::vector<TelemetrySummary *> Open;
  std::string Buffer;
  uint64_t BytesWritten = 0;
  uint64_t Events = 0;
  bool LogFailed = false;
  unsigned NextTid = 0;

  void appendEventLocked(const char *Phase, const std::string &Backend,
                         const std::string &Config, uint64_t StartUs,
                         uint64_t DurUs, unsigned Tid);
  void aggregateLocked(const char *Phase, const std::string &Backend,
                       const std::string &Config, uint64_t DurUs);
  void flushLocked();
};

/// One campaign's global-phase spans. While it is open, every span its
/// sink aggregates also folds into its own summary, so campaigns that share
/// a sink each take only the spans recorded between their start and their
/// end. A summary of aggregates cannot be diffed (MaxUs does not subtract),
/// hence a fold of its own rather than two snapshots.
class CampaignSpans {
public:
  /// Opens the fold on \p Sink; with a null sink it gathers nothing.
  explicit CampaignSpans(TelemetrySink *Sink);
  ~CampaignSpans();

  CampaignSpans(const CampaignSpans &) = delete;
  CampaignSpans &operator=(const CampaignSpans &) = delete;

  /// Closes the fold and \returns what it gathered.
  TelemetrySummary close();

private:
  TelemetrySink *Sink;
  TelemetrySummary Spans;
};

/// RAII span: starts the clock at construction, records at destruction.
/// With both sink and local summary null this is a no-op that never reads
/// the clock -- the telemetry-off fast path.
class SpanTimer {
public:
  SpanTimer(TelemetrySink *Sink, TelemetrySummary *Local, const char *Phase,
            const std::string &BackendLabel = std::string(),
            const std::string &ConfigLabel = std::string())
      : Sink(Sink), Local(Local), Phase(Phase) {
    // Labels are copied only when telemetry is live, so passing temporaries
    // is safe and the off path never allocates.
    if (Sink || Local) {
      Backend = BackendLabel;
      Config = ConfigLabel;
      StartUs = Sink ? Sink->nowUs() : steadyUs();
    }
  }
  ~SpanTimer() {
    if (!Sink && !Local)
      return;
    uint64_t End = Sink ? Sink->nowUs() : steadyUs();
    uint64_t Dur = End > StartUs ? End - StartUs : 0;
    if (Local)
      Local->record(Phase, Backend, Config, Dur);
    if (Sink)
      Sink->recordSpan(Phase, Backend, Config, StartUs, Dur,
                       /*Aggregate=*/Local == nullptr);
  }

  SpanTimer(const SpanTimer &) = delete;
  SpanTimer &operator=(const SpanTimer &) = delete;

  /// Replaces the config label before the span records, for a phase that
  /// learns its label while it runs (the oracle's verdict).
  void setConfigLabel(std::string Label) { Config = std::move(Label); }

private:
  static uint64_t steadyUs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  TelemetrySink *Sink;
  TelemetrySummary *Local;
  const char *Phase;
  std::string Backend;
  std::string Config;
  uint64_t StartUs = 0;
};

/// Short human label for a backend identity(): the text before the first
/// " | " separator (the command line, for ExternalBackend), first line
/// only, capped at 48 characters. Purely cosmetic -- telemetry keys, not
/// fingerprints.
std::string telemetryBackendLabel(const std::string &Identity);

/// Short label for a compiler configuration: "O<n>" plus ".m32" for
/// 32-bit mode ("O2", "O3.m32").
std::string telemetryConfigLabel(unsigned OptLevel, bool Mode64);

/// Strict JSON validity check (full recursive-descent parse, no schema).
/// Used by tests and the status/trace emitters' own assertions.
bool isValidJsonText(const std::string &Text);

/// Escapes \p S as the body of a JSON string literal (quotes not added).
std::string jsonEscape(const std::string &S);

} // namespace spe

#endif // SPE_SUPPORT_TELEMETRY_H
