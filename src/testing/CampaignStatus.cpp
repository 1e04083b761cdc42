//===- testing/CampaignStatus.cpp - live machine-readable status feed ----===//

#include "testing/CampaignStatus.h"

#include "persist/Checkpoint.h"
#include "support/ProcessPool.h"
#include "support/Telemetry.h"

#include <chrono>
#include <cstdio>
#include <map>

using namespace spe;

CampaignStatusFeed::CampaignStatusFeed(Options O) : Opts(std::move(O)) {
  StartMs = nowMs();
}

uint64_t CampaignStatusFeed::nowMs() const {
  if (ClockFn)
    return ClockFn();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void CampaignStatusFeed::setClockForTest(uint64_t (*Clock)()) {
  std::lock_guard<std::mutex> Lock(Mu);
  ClockFn = Clock;
  StartMs = nowMs();
  PrevSampleMs = 0;
  PrevSampleVariants = 0;
  LastWriteMs.store(0, std::memory_order_relaxed);
}

void CampaignStatusFeed::attachPool(const std::string &Name,
                                    const ProcessPool *Pool) {
  if (!Pool)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Pools.push_back({Name, Pool});
}

void CampaignStatusFeed::attachSink(const TelemetrySink *S) {
  std::lock_guard<std::mutex> Lock(Mu);
  Sink = S;
}

void CampaignStatusFeed::beginCampaign(uint64_t Total, uint64_t Done,
                                       const StatusCounters &B) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    State = "running";
    TotalSeeds = Total;
    DoneSeeds = Done;
    Base = B;
    Shards.clear();
  }
  writeNow();
}

void CampaignStatusFeed::beginSeed(unsigned Workers) {
  std::lock_guard<std::mutex> Lock(Mu);
  Shards.assign(Workers, ShardStatus());
}

bool CampaignStatusFeed::noteVariant() {
  TotalVariants.fetch_add(1, std::memory_order_relaxed);
  uint64_t Now = nowMs();
  uint64_t Last = LastWriteMs.load(std::memory_order_relaxed);
  if (Opts.EveryMs != 0 && Now < Last + Opts.EveryMs)
    return false;
  // One winner per cadence interval: the thread whose CAS lands publishes.
  return LastWriteMs.compare_exchange_strong(Last, Now,
                                             std::memory_order_relaxed);
}

void CampaignStatusFeed::updateShard(unsigned W, const ShardStatus &S) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (W >= Shards.size())
    Shards.resize(W + 1);
  Shards[W] = S;
}

void CampaignStatusFeed::commitSeed(const StatusCounters &MergedBase) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ++DoneSeeds;
    Base = MergedBase;
    Shards.clear();
  }
  // Seed boundaries honor the cadence like variants do: a corpus of many
  // tiny seeds must not pay one file write per seed.
  uint64_t Now = nowMs();
  uint64_t Last = LastWriteMs.load(std::memory_order_relaxed);
  if (Opts.EveryMs != 0 && Now < Last + Opts.EveryMs)
    return;
  if (LastWriteMs.compare_exchange_strong(Last, Now,
                                          std::memory_order_relaxed))
    writeNow();
}

void CampaignStatusFeed::setClusters(uint64_t N) {
  std::lock_guard<std::mutex> Lock(Mu);
  Clusters = N;
  HaveClusters = true;
}

void CampaignStatusFeed::beginTriage() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    State = "triage";
  }
  LastWriteMs.store(nowMs(), std::memory_order_relaxed);
  writeNow();
}

void CampaignStatusFeed::finishCampaign(const StatusCounters &Final) {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    State = "complete";
    Base = Final;
    Shards.clear();
  }
  LastWriteMs.store(nowMs(), std::memory_order_relaxed);
  writeNow();
}

namespace {

void putKV(std::string &J, const char *Key, uint64_t V, bool Comma = true) {
  J += '"';
  J += Key;
  J += "\":";
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%llu", static_cast<unsigned long long>(V));
  J += Buf;
  if (Comma)
    J += ',';
}

void putKV(std::string &J, const char *Key, double V, bool Comma = true) {
  J += '"';
  J += Key;
  J += "\":";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  J += Buf;
  if (Comma)
    J += ',';
}

void putCounters(std::string &J, const StatusCounters &C) {
  J += '{';
  putKV(J, "enumerated", C.Enumerated);
  putKV(J, "tested", C.Tested);
  putKV(J, "pruned", C.Pruned);
  putKV(J, "oracle_excluded", C.OracleExcluded);
  putKV(J, "oracle_execs", C.OracleExecs);
  putKV(J, "cache_hits", C.CacheHits);
  putKV(J, "timeouts", C.Timeouts);
  putKV(J, "matrix_cells", C.MatrixCells);
  putKV(J, "raw_findings", C.RawFindings);
  putKV(J, "unique_bugs", C.UniqueBugs, /*Comma=*/false);
  J += '}';
}

} // namespace

std::string CampaignStatusFeed::serializeLocked(uint64_t Now) {
  uint64_t Vars = TotalVariants.load(std::memory_order_relaxed);

  // Campaign-wide counters: committed base plus the live shard slots.
  StatusCounters Live = Base;
  uint64_t RanksDone = 0, RanksTotal = 0;
  for (const ShardStatus &S : Shards) {
    Live.Enumerated += S.C.Enumerated;
    Live.Tested += S.C.Tested;
    Live.Pruned += S.C.Pruned;
    Live.OracleExcluded += S.C.OracleExcluded;
    Live.OracleExecs += S.C.OracleExecs;
    Live.CacheHits += S.C.CacheHits;
    Live.Timeouts += S.C.Timeouts;
    Live.MatrixCells += S.C.MatrixCells;
    Live.RawFindings += S.C.RawFindings;
    Live.UniqueBugs += S.C.UniqueBugs;
    RanksDone += S.RanksDone;
    RanksTotal += S.RanksTotal;
  }

  // Windowed rate: variants since the previous write over that interval;
  // falls back to the lifetime rate on the first write. Two writes can land
  // in the same nowMs() tick (EveryMs=0 feeds, or a coarse clock), so the
  // denominators clamp to one millisecond: the window's variants are then
  // reported at sub-tick resolution instead of silently becoming 0.0.
  uint64_t WinMs = Now - (PrevSampleMs == 0 ? StartMs : PrevSampleMs);
  if (WinMs == 0)
    WinMs = 1;
  uint64_t WinVars = Vars - PrevSampleVariants;
  double Rate =
      static_cast<double>(WinVars) * 1000.0 / static_cast<double>(WinMs);
  uint64_t UpMs = Now - StartMs;
  double TotalRate = static_cast<double>(Vars) * 1000.0 /
                     static_cast<double>(UpMs == 0 ? 1 : UpMs);
  PrevSampleMs = Now;
  PrevSampleVariants = Vars;

  std::string J;
  J.reserve(2048);
  J += '{';
  putKV(J, "schema", uint64_t(1));
  J += "\"state\":\"";
  J += State;
  J += "\",";
  putKV(J, "uptime_ms", Now - StartMs);
  J += "\"seeds\":{";
  putKV(J, "done", DoneSeeds);
  putKV(J, "total", TotalSeeds, /*Comma=*/false);
  J += "},";
  putKV(J, "variants", Vars);
  putKV(J, "variants_per_sec", Rate);
  putKV(J, "variants_per_sec_total", TotalRate);
  putKV(J, "ranks_done", RanksDone);
  putKV(J, "ranks_total", RanksTotal);

  J += "\"shards\":[";
  for (size_t W = 0; W < Shards.size(); ++W) {
    if (W)
      J += ',';
    J += '{';
    putKV(J, "worker", static_cast<uint64_t>(W));
    putKV(J, "done", Shards[W].RanksDone);
    putKV(J, "total", Shards[W].RanksTotal);
    J += "\"finished\":";
    J += Shards[W].Finished ? "true" : "false";
    J += '}';
  }
  J += "],";

  J += "\"counters\":";
  putCounters(J, Live);
  J += ',';

  if (HaveClusters) {
    putKV(J, "clusters", Clusters);
  }

  // Per-backend compile latency quantiles out of the telemetry aggregate:
  // "compile" phase keys grouped by backend label, configs collapsed.
  J += "\"backends\":[";
  if (Sink) {
    TelemetrySummary S = Sink->summary();
    std::map<std::string, PhaseAggregate> PerBackend;
    for (const auto &[Key, Agg] : S.Phases)
      if (Key.Phase == "compile")
        PerBackend[Key.Backend].merge(Agg);
    bool First = true;
    for (const auto &[Name, Agg] : PerBackend) {
      if (!First)
        J += ',';
      First = false;
      J += "{\"name\":\"";
      J += jsonEscape(Name);
      J += "\",";
      putKV(J, "compiles", Agg.Count);
      putKV(J, "total_us", Agg.TotalUs);
      putKV(J, "p50_us", Agg.Hist.quantileUs(0.50));
      putKV(J, "p90_us", Agg.Hist.quantileUs(0.90));
      putKV(J, "p99_us", Agg.Hist.quantileUs(0.99));
      putKV(J, "max_us", Agg.MaxUs, /*Comma=*/false);
      J += '}';
    }
  }
  J += "],";

  J += "\"pools\":[";
  for (size_t P = 0; P < Pools.size(); ++P) {
    if (P)
      J += ',';
    ProcessPool::Stats St = Pools[P].Pool->stats();
    J += "{\"name\":\"";
    J += jsonEscape(Pools[P].Name);
    J += "\",";
    putKV(J, "workers", static_cast<uint64_t>(Pools[P].Pool->workers()));
    putKV(J, "busy", static_cast<uint64_t>(St.BusyWorkers));
    putKV(J, "queue_depth", St.QueueDepth);
    putKV(J, "queue_high_water", St.QueueHighWater);
    putKV(J, "jobs_submitted", St.JobsSubmitted);
    putKV(J, "jobs_completed", St.JobsCompleted);
    putKV(J, "respawns", static_cast<uint64_t>(St.Respawns));
    putKV(J, "wait_ms", St.CumQueueWaitMs);
    putKV(J, "run_ms", St.CumRunMs, /*Comma=*/false);
    J += '}';
  }
  J += "],";

  // Committed writes *before* this document: pre-counting the in-flight
  // write would let a failed rename make the next successful doc lie.
  putKV(J, "write_failures",
        WriteFailures.load(std::memory_order_relaxed));
  putKV(J, "writes", Writes.load(std::memory_order_relaxed),
        /*Comma=*/false);
  J += '}';
  return J;
}

void CampaignStatusFeed::writeNow() {
  std::string Text;
  uint64_t Gen;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    // The clock is read under Mu too, so a document's timestamp never
    // precedes the rate window the previous document closed.
    Text = serializeLocked(nowMs());
    Gen = ++SerializedGen;
  }
  // Atomic write-then-rename: a reader (or a SIGKILL) at any instant sees
  // either the previous complete document or this one, never a torn file.
  // Every writer shares one temp file, so WriteMu orders the writes; a
  // document older than the one on disk is dropped, not written over it.
  std::lock_guard<std::mutex> Lock(WriteMu);
  if (Gen <= WrittenGen)
    return;
  std::string Err;
  if (atomicWriteFile(Opts.Path, Text, &Err)) {
    WrittenGen = Gen;
    Writes.fetch_add(1, std::memory_order_relaxed);
    WriteWarned = false;
    return;
  }
  WriteFailures.fetch_add(1, std::memory_order_relaxed);
  if (!WriteWarned)
    std::fprintf(stderr, "spe: status feed write failed: %s\n", Err.c_str());
  WriteWarned = true;
}
