//===- testing/CampaignStatus.h - live machine-readable status feed ------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign's live heartbeat (DESIGN.md Section 15): a status.json
/// file rewritten atomically (write-then-rename, the persist/ idiom) at a
/// wall-clock cadence while the campaign runs. It carries ranks done/total
/// per shard, a windowed variants/sec rate, the campaign counters, running
/// unique-bug/cluster counts, per-backend compile latency quantiles (from
/// an attached TelemetrySink), and process-pool health (from attached
/// ProcessPools) -- the exact feed a fleet coordinator or a terminal
/// watcher tails.
///
/// The feed is observation only and wall-clock driven: it never influences
/// enumeration or results, and because writes are atomic renames a reader
/// (or a kill at any instant) always sees a complete, parseable JSON
/// document. The hot-path cost when attached is one relaxed atomic
/// increment plus a coarse clock read per variant; the serialization +
/// write happens on whichever worker hits the cadence boundary.
///
//===----------------------------------------------------------------------===//

#ifndef SPE_TESTING_CAMPAIGNSTATUS_H
#define SPE_TESTING_CAMPAIGNSTATUS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace spe {

class ProcessPool;
class TelemetrySink;

/// The counter slice of a CampaignResult the feed publishes. Plain data so
/// the feed has no dependency on the harness types.
struct StatusCounters {
  uint64_t Enumerated = 0;
  uint64_t Tested = 0;
  uint64_t Pruned = 0;
  uint64_t OracleExcluded = 0;
  uint64_t OracleExecs = 0;
  uint64_t CacheHits = 0;
  uint64_t Timeouts = 0;
  uint64_t MatrixCells = 0;
  uint64_t RawFindings = 0;
  uint64_t UniqueBugs = 0;
};

/// Live status.json writer. One instance per campaign; share the pointer
/// via HarnessOptions::Status. Thread-safe: shard workers call
/// noteVariant()/updateShard() concurrently.
class CampaignStatusFeed {
public:
  struct Options {
    /// Where the heartbeat lands (atomic write-then-rename).
    std::string Path = "status.json";
    /// Minimum milliseconds between writes. 0 = every noteVariant() is
    /// write-due (tests use this to maximize rename races under kills).
    uint64_t EveryMs = 500;
  };

  /// One shard worker's progress within its seed.
  struct ShardStatus {
    uint64_t RanksDone = 0;
    uint64_t RanksTotal = 0;
    bool Finished = false;
    /// Campaign counters accumulated by this worker in its seed.
    StatusCounters C;
  };

  explicit CampaignStatusFeed(Options O);

  CampaignStatusFeed(const CampaignStatusFeed &) = delete;
  CampaignStatusFeed &operator=(const CampaignStatusFeed &) = delete;

  /// Wires a process pool's health into every subsequent write. The pool
  /// must outlive the feed's last write.
  void attachPool(const std::string &Name, const ProcessPool *Pool);
  /// Wires per-backend compile latency quantiles (telemetry "compile"
  /// phase keys) into every subsequent write.
  void attachSink(const TelemetrySink *Sink);

  /// Campaign start (or resume): \p TotalSeeds in the corpus, \p DoneSeeds
  /// already committed, \p Base the counters those committed seeds merged.
  void beginCampaign(uint64_t TotalSeeds, uint64_t DoneSeeds,
                     const StatusCounters &Base);
  /// Seed \p Seed starts enumerating with \p Workers shard workers. It is
  /// the running seed, the one updateShard() publishes into and the shard
  /// list shows, until the next beginSeed(); its slots count in the live
  /// counters until commitSeed(\p Seed). A campaign pipeline can commit a
  /// seed after the next one began, so several seeds can be open at once.
  void beginSeed(uint64_t Seed, unsigned Workers);
  /// One variant enumerated anywhere. \returns true when a status write is
  /// due -- the caller then updateShard()s its fresh numbers and
  /// writeNow()s. At most one caller wins per cadence interval.
  bool noteVariant();
  /// Publishes shard \p W's current progress in the running seed (any
  /// time, typically right before a write this worker triggered; ignored
  /// once that seed committed).
  void updateShard(unsigned W, const ShardStatus &S);
  /// Seed \p Seed merged into the campaign result, whose counters are now
  /// \p MergedBase: the base takes them over, and the seed's shard slots
  /// leave the live sum. A rejected or threshold-skipped seed commits
  /// without having begun, and has no slots.
  void commitSeed(uint64_t Seed, const StatusCounters &MergedBase);
  /// Triage finished with this many signature clusters.
  void setClusters(uint64_t N);
  /// Campaign over: final counters, state "complete", forced write.
  void finishCampaign(const StatusCounters &Final);
  /// Entering the (single-threaded) triage phase; forced write so watchers
  /// know the variant rate legitimately dropped to zero.
  void beginTriage();

  /// Serializes and atomically writes status.json now. Safe to call from
  /// concurrent shard workers: the file only ever moves to a newer
  /// document, and a call whose document is already outdated writes
  /// nothing.
  void writeNow();

  const std::string &path() const { return Opts.Path; }
  /// Committed (successful) status writes -- failed atomic writes are
  /// counted separately in writeFailures(), never here.
  uint64_t writes() const { return Writes.load(std::memory_order_relaxed); }
  uint64_t writeFailures() const {
    return WriteFailures.load(std::memory_order_relaxed);
  }
  uint64_t variants() const {
    return TotalVariants.load(std::memory_order_relaxed);
  }

  /// Test hook: replaces the steady-clock source so cadence and window math
  /// can be driven deterministically. Re-bases the feed's start time (and
  /// the rate window) onto the injected clock's current value.
  void setClockForTest(uint64_t (*Clock)());

private:
  struct PoolRef {
    std::string Name;
    const ProcessPool *Pool;
  };

  uint64_t nowMs() const;
  std::string serializeLocked(uint64_t NowMs);

  Options Opts;
  uint64_t StartMs = 0;
  uint64_t (*ClockFn)() = nullptr; ///< Test clock; null = steady_clock.
  std::atomic<uint64_t> TotalVariants{0};
  std::atomic<uint64_t> LastWriteMs{0};
  std::atomic<uint64_t> Writes{0};
  std::atomic<uint64_t> WriteFailures{0};

  /// Orders the file writes of concurrent writeNow() calls.
  std::mutex WriteMu;
  /// Generation of the document on disk (guarded by WriteMu).
  uint64_t WrittenGen = 0;
  /// Warn on stderr once per failure streak, not once per failed cadence
  /// tick -- a persistently unwritable path would otherwise spam (guarded
  /// by WriteMu).
  bool WriteWarned = false;

  mutable std::mutex Mu;
  /// Generation of the latest serialized document (guarded by Mu).
  uint64_t SerializedGen = 0;
  std::string State = "starting"; ///< starting|running|triage|complete.
  uint64_t TotalSeeds = 0;
  uint64_t DoneSeeds = 0;
  StatusCounters Base; ///< Committed seeds (and resume prefix).
  /// Shard slots of every begun, uncommitted seed, by seed.
  std::map<uint64_t, std::vector<ShardStatus>> Open;
  /// The latest beginSeed()'s seed.
  uint64_t Running = 0;
  uint64_t Clusters = 0;
  bool HaveClusters = false;
  std::vector<PoolRef> Pools;
  const TelemetrySink *Sink = nullptr;
  /// Previous write's (timestamp, variant count) for the windowed rate.
  uint64_t PrevSampleMs = 0;
  uint64_t PrevSampleVariants = 0;
};

} // namespace spe

#endif // SPE_TESTING_CAMPAIGNSTATUS_H
