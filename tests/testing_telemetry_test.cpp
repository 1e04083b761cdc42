//===- tests/testing_telemetry_test.cpp - observation stays observation --===//
//
// The telemetry layer's contract (DESIGN.md Section 15), pinned from three
// sides. Determinism: campaigns with the full telemetry stack attached
// (sink + event log + status feed) are bit-identical to campaigns without
// it, at 1/2/4 threads and batch sizes 1/8, down to the checkpoint file
// bytes. Crash safety: status.json is complete, parseable JSON after a
// simulated kill at any variant count, because writes are atomic renames.
// Trace sanity: the JSONL event log parses line by line, converts to a
// valid Chrome trace, and spans nest properly per thread (RAII scope-exit
// emission means a thread's events are ordered by end time and every
// overlap is a containment). Plus unit coverage for the histogram math the
// quantile feeds rely on.
//
//===----------------------------------------------------------------------===//

#include "testing/CampaignStatus.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <vector>

using namespace spe;

namespace {

struct TempDir {
  std::string Dir;
  explicit TempDir(const std::string &Name)
      : Dir("telemetry_test_tmp/" + Name) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  std::string path(const char *File) const { return Dir + "/" + File; }
};

std::vector<std::string> testSeeds() {
  const std::vector<std::string> &Embedded = embeddedSeeds();
  return {Embedded[0], Embedded[2]};
}

HarnessOptions baseOptions(unsigned Threads, uint64_t BatchSize) {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Opts.VariantBudget = 30;
  Opts.Threads = Threads;
  Opts.BatchSize = BatchSize;
  Opts.Triage = true;
  return Opts;
}

std::string fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::vector<std::string> fileLines(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

} // namespace

//===----------------------------------------------------------------------===//
// Histogram + summary units
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, HistogramBucketsArePowerOfTwoRanges) {
  EXPECT_EQ(LatencyHistogram::bucketFor(0), 0u);
  EXPECT_EQ(LatencyHistogram::bucketFor(1), 1u);
  EXPECT_EQ(LatencyHistogram::bucketFor(2), 2u);
  EXPECT_EQ(LatencyHistogram::bucketFor(3), 2u);
  EXPECT_EQ(LatencyHistogram::bucketFor(4), 3u);
  EXPECT_EQ(LatencyHistogram::bucketUpperUs(0), 1u);
  EXPECT_EQ(LatencyHistogram::bucketUpperUs(10), 1024u);
  // The top bucket absorbs everything, however absurd.
  EXPECT_LT(LatencyHistogram::bucketFor(~uint64_t(0)),
            LatencyHistogram::NumBuckets);
}

TEST(TelemetryTest, HistogramQuantilesAreNearestRankBucketBounds) {
  LatencyHistogram H;
  H.record(100); // Bucket upper bound 128.
  EXPECT_EQ(H.quantileUs(0.5), 128u);
  EXPECT_EQ(H.quantileUs(0.99), 128u);

  H.record(1);       // Upper bound 2.
  H.record(1000000); // Upper bound 2^20.
  EXPECT_EQ(H.count(), 3u);
  EXPECT_EQ(H.quantileUs(0.0), 2u);
  EXPECT_EQ(H.quantileUs(0.5), 128u);
  EXPECT_EQ(H.quantileUs(1.0), uint64_t(1) << 20);

  LatencyHistogram Empty;
  EXPECT_EQ(Empty.quantileUs(0.5), 0u);
}

TEST(TelemetryTest, HistogramMergeIsOrderIndependent) {
  LatencyHistogram A, B;
  for (uint64_t Us : {3u, 70u, 900u, 900u})
    A.record(Us);
  for (uint64_t Us : {1u, 70u, 12345u})
    B.record(Us);

  LatencyHistogram AB = A, BA = B;
  AB.merge(B);
  BA.merge(A);
  EXPECT_TRUE(AB == BA);
  EXPECT_EQ(AB.count(), 7u);
  EXPECT_EQ(AB.quantileUs(1.0), BA.quantileUs(1.0));
}

TEST(TelemetryTest, SummaryMergeIsOrderIndependent) {
  TelemetrySummary A, B;
  A.record("compile", "gcc", "O2", 500);
  A.record("compile", "gcc", "O0", 200);
  A.record("render", "", "", 7);
  B.record("compile", "gcc", "O2", 900);
  B.record("vote", "", "", 3);

  TelemetrySummary AB = A, BA = B;
  AB.merge(B);
  BA.merge(A);
  EXPECT_TRUE(AB == BA);
  EXPECT_EQ(AB.countFor("compile"), 3u);
  EXPECT_EQ(AB.totalUsFor("compile"), 1600u);
  EXPECT_EQ(AB.countFor("render"), 1u);
  EXPECT_EQ(AB.countFor("never_ran"), 0u);
}

TEST(TelemetryTest, LabelsAndJsonHelpers) {
  EXPECT_EQ(telemetryBackendLabel("cc -O2 | gcc (GCC) 12.2.0"), "cc -O2");
  EXPECT_EQ(telemetryBackendLabel("minicc-gccsim"), "minicc-gccsim");
  EXPECT_EQ(telemetryBackendLabel("first line\nsecond | x"), "first line");
  EXPECT_EQ(telemetryBackendLabel(std::string(100, 'x')),
            std::string(48, 'x'));
  EXPECT_EQ(telemetryConfigLabel(2, true), "O2");
  EXPECT_EQ(telemetryConfigLabel(3, false), "O3.m32");

  EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_TRUE(isValidJsonText("{\"a\": [1, 2.5, \"x\", null, true]}"));
  EXPECT_TRUE(isValidJsonText("{}"));
  EXPECT_FALSE(isValidJsonText(""));
  EXPECT_FALSE(isValidJsonText("{\"a\": }"));
  EXPECT_FALSE(isValidJsonText("{\"a\": 1} trailing"));
  EXPECT_FALSE(isValidJsonText("{\"a\": 1"));
  EXPECT_FALSE(isValidJsonText("{'a': 1}"));
}

//===----------------------------------------------------------------------===//
// Campaign identity: telemetry on == telemetry off, bit for bit
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, InstrumentedCampaignIsBitIdenticalIncludingCheckpoint) {
  std::vector<std::string> Seeds = testSeeds();
  for (unsigned Threads : {1u, 2u, 4u}) {
    for (uint64_t Batch : {uint64_t(1), uint64_t(8)}) {
      std::string Tag =
          "t" + std::to_string(Threads) + "_b" + std::to_string(Batch);

      TempDir PlainDir("plain_" + Tag);
      HarnessOptions Plain = baseOptions(Threads, Batch);
      Plain.CheckpointPath = PlainDir.path("campaign.ck");
      CampaignResult RPlain = DifferentialHarness(Plain).runCampaign(Seeds);

      TempDir TelDir("tel_" + Tag);
      TelemetrySink::Options SO;
      SO.EventLogPath = TelDir.path("events.jsonl");
      TelemetrySink Sink(SO);
      CampaignStatusFeed Status({TelDir.path("status.json"), 0});
      Status.attachSink(&Sink);
      HarnessOptions Instrumented = baseOptions(Threads, Batch);
      Instrumented.CheckpointPath = TelDir.path("campaign.ck");
      Instrumented.Telemetry = &Sink;
      Instrumented.Status = &Status;
      CampaignResult RTel =
          DifferentialHarness(Instrumented).runCampaign(Seeds);

      // The campaign result (operator== covers bugs, findings, triage, and
      // every deterministic counter) must not notice the observers.
      EXPECT_TRUE(RPlain == RTel) << Tag;

      // Checkpoint bytes too: telemetry is excluded from the options
      // fingerprint and from the snapshot payload.
      EXPECT_EQ(fileBytes(PlainDir.path("campaign.ck")),
                fileBytes(TelDir.path("campaign.ck")))
          << Tag;

      // And the instrumentation actually observed the campaign: phases on
      // both accumulation paths (worker-local spans, global checkpoint
      // writes and triage stages) are populated. Batched runs spend their
      // backend time in batch_wait rather than per-variant backend_run.
      EXPECT_GT(RTel.Telemetry.countFor("render"), 0u) << Tag;
      EXPECT_GT(RTel.Telemetry.countFor("backend_run") +
                    RTel.Telemetry.countFor("batch_wait"),
                0u)
          << Tag;
      EXPECT_GT(RTel.Telemetry.countFor("checkpoint_write"), 0u) << Tag;
      EXPECT_GT(RTel.Telemetry.countFor("triage_dedup"), 0u) << Tag;
      // Above one thread each worker of every seed waits once at the
      // seed's join; the calling thread runs the chunks itself at one.
      if (Threads > 1) {
        EXPECT_EQ(RTel.Telemetry.countFor("seed_wait"),
                  Threads * Seeds.size())
            << Tag;
      } else {
        EXPECT_EQ(RTel.Telemetry.countFor("seed_wait"), 0u) << Tag;
      }
      EXPECT_GT(Sink.eventsWritten(), 0u) << Tag;
      EXPECT_GT(Status.writes(), 0u) << Tag;
      EXPECT_EQ(Status.variants(), RTel.VariantsEnumerated) << Tag;
    }
  }
}

TEST(TelemetryTest, WorkerLocalPhaseCountsMatchCampaignCounters) {
  // The per-variant phases aggregate through worker partial results, so
  // their counts must line up exactly with the campaign's own counters --
  // any drift would mean spans were lost or double counted in the merge.
  TelemetrySink Sink;
  HarnessOptions Opts = baseOptions(2, 1);
  Opts.Telemetry = &Sink;
  CampaignResult R = DifferentialHarness(Opts).runCampaign(testSeeds());
  EXPECT_EQ(R.Telemetry.countFor("render"), R.VariantsEnumerated);
  // No cache attached: every enumerated variant takes one oracle_exec
  // span (the span covers the interpretation attempt, hit or not).
  EXPECT_EQ(R.Telemetry.countFor("oracle_exec"), R.VariantsEnumerated);
  EXPECT_GE(R.Telemetry.countFor("oracle_exec"), R.OracleExecutions);
  // One backend_run span per (tested variant, roster backend) on the
  // classic unbatched path: the span covers that backend's run of the
  // variant under every config. The classic roster is the one backend.
  const uint64_t RosterSize = 1 + Opts.ExtraBackends.size();
  EXPECT_EQ(R.Telemetry.countFor("backend_run"),
            R.VariantsTested * RosterSize);
}

TEST(TelemetryTest, CampaignsSharingASinkTakeOnlyTheirOwnGlobalSpans) {
  // Two checkpointed 2-thread passes over the loop corpus, sharing one
  // oracle store and cache, as the loops_ckpt benchmark runs them. Each
  // campaign takes the global spans recorded while it ran, so one sink
  // shared by both passes adds up to one sink per pass.
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  CO.BoundedLoopProb = 0.6;
  CO.RichHelperProb = 0.6;
  const std::vector<std::string> Seeds = generateCorpus(8000, 4, CO);
  const std::vector<std::vector<CompilerConfig>> Passes = {
      HarnessOptions::crashMatrix(Persona::GccSim, 48),
      HarnessOptions::crashMatrix(Persona::ClangSim, 36)};
  // \p Sinks holds one sink for both passes, or one per pass.
  auto Run = [&](const std::string &Name,
                 const std::vector<TelemetrySink *> &Sinks) {
    TempDir Dir(Name);
    OracleCache Cache;
    std::vector<CampaignResult> Results;
    for (size_t P = 0; P < Passes.size(); ++P) {
      HarnessOptions Opts;
      Opts.Configs = Passes[P];
      Opts.VariantBudget = 40;
      Opts.VariantThreshold = ~uint64_t(0);
      Opts.OracleMaxSteps = 100'000;
      Opts.Threads = 2;
      Opts.Cache = &Cache;
      Opts.OracleStorePath = Dir.path("oracle.store");
      Opts.CheckpointPath = Dir.Dir + "/pass" + std::to_string(P) + ".ckpt";
      Opts.Telemetry = Sinks[P % Sinks.size()];
      Results.push_back(DifferentialHarness(Opts).runCampaign(Seeds));
    }
    return Results;
  };
  TelemetrySink Shared;
  std::vector<CampaignResult> One = Run("shared_sink", {&Shared});
  TelemetrySink First, Second;
  std::vector<CampaignResult> Each = Run("sink_per_pass", {&First, &Second});
  CampaignResult OneMerged, EachMerged;
  for (size_t P = 0; P < Passes.size(); ++P) {
    SCOPED_TRACE("pass " + std::to_string(P));
    EXPECT_TRUE(One[P] == Each[P]);
    // Each worker of every seed waits once at the seed's join.
    EXPECT_EQ(One[P].Telemetry.countFor("seed_wait"), 2 * Seeds.size());
    EXPECT_GT(One[P].Telemetry.countFor("checkpoint_write"), 0u);
    for (const char *Phase : {"seed_wait", "checkpoint_write"})
      EXPECT_EQ(One[P].Telemetry.countFor(Phase),
                Each[P].Telemetry.countFor(Phase))
          << Phase;
    OneMerged.merge(One[P]);
    EachMerged.merge(Each[P]);
  }
  for (const char *Phase : {"seed_wait", "checkpoint_write"})
    EXPECT_EQ(OneMerged.Telemetry.countFor(Phase),
              EachMerged.Telemetry.countFor(Phase))
        << Phase;
  // The sink's own summary stays the lifetime view of both passes.
  for (const char *Phase : {"seed_wait", "checkpoint_write"})
    EXPECT_EQ(Shared.summary().countFor(Phase),
              First.summary().countFor(Phase) +
                  Second.summary().countFor(Phase))
        << Phase;
}

//===----------------------------------------------------------------------===//
// Status feed: parseable at any instant, live through a kill
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, StatusFileIsParseableAfterSimulatedKills) {
  std::vector<std::string> Seeds = testSeeds();
  for (uint64_t KillAfter : {uint64_t(3), uint64_t(7), uint64_t(19)}) {
    TempDir T("kill_" + std::to_string(KillAfter));
    // EveryMs=0: every variant is write-due, maximizing rename traffic so
    // the kill lands as close to a write as the schedule allows.
    CampaignStatusFeed Status({T.path("status.json"), 0});
    HarnessOptions Opts = baseOptions(2, 1);
    Opts.CheckpointPath = T.path("campaign.ck");
    Opts.SimulateCrashAfter = KillAfter;
    Opts.Status = &Status;
    DifferentialHarness(Opts).runCampaign(Seeds);

    std::string Doc = fileBytes(T.path("status.json"));
    ASSERT_FALSE(Doc.empty()) << "no status write before kill@" << KillAfter;
    EXPECT_TRUE(isValidJsonText(Doc)) << "kill@" << KillAfter << ": " << Doc;
    // A killed campaign never reaches finishCampaign: the file must still
    // say the campaign is in flight, which is exactly what tells a fleet
    // coordinator to resume it.
    EXPECT_NE(Doc.find("\"state\":\"running\""), std::string::npos) << Doc;
    EXPECT_NE(Doc.find("\"schema\":1"), std::string::npos);
  }
}

TEST(TelemetryTest, StatusFileReportsCompletionAndClusters) {
  TempDir T("complete");
  CampaignStatusFeed Status({T.path("status.json"), 0});
  HarnessOptions Opts = baseOptions(2, 1);
  Opts.Status = &Status;
  CampaignResult R = DifferentialHarness(Opts).runCampaign(testSeeds());

  std::string Doc = fileBytes(T.path("status.json"));
  ASSERT_TRUE(isValidJsonText(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"state\":\"complete\""), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"clusters\":" + std::to_string(R.Triaged.size())),
            std::string::npos)
      << Doc;
  EXPECT_NE(Doc.find("\"seeds\":{"), std::string::npos);
  EXPECT_NE(Doc.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(Doc.find("\"variants\":" + std::to_string(R.VariantsEnumerated)),
            std::string::npos)
      << Doc;
}

//===----------------------------------------------------------------------===//
// Event log + Chrome trace
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, EventLogParsesAndSpansNestPerThread) {
  TempDir T("trace");
  TelemetrySink::Options SO;
  SO.EventLogPath = T.path("events.jsonl");
  TelemetrySink Sink(SO);
  HarnessOptions Opts = baseOptions(2, 1);
  Opts.Telemetry = &Sink;
  (void)DifferentialHarness(Opts).runCampaign(testSeeds());
  Sink.flush();

  std::vector<std::string> Lines = fileLines(SO.EventLogPath);
  ASSERT_EQ(Lines.size(), Sink.eventsWritten());
  ASSERT_GT(Lines.size(), 0u);

  // Every line is one valid JSON object that round-trips through the
  // reader, and per thread the RAII discipline shows: events appear in
  // end-time order, and any two overlapping spans strictly nest.
  std::map<unsigned, std::vector<TelemetryEvent>> ByTid;
  bool SawBackendRun = false;
  for (const std::string &Line : Lines) {
    EXPECT_TRUE(isValidJsonText(Line)) << Line;
    TelemetryEvent Ev;
    ASSERT_TRUE(TelemetrySink::parseEventLine(Line, Ev)) << Line;
    EXPECT_FALSE(Ev.Phase.empty()) << Line;
    SawBackendRun |= Ev.Phase == "backend_run";
    ByTid[Ev.Tid].push_back(Ev);
  }
  EXPECT_TRUE(SawBackendRun);

  for (const auto &[Tid, Events] : ByTid) {
    for (size_t I = 1; I < Events.size(); ++I) {
      const TelemetryEvent &Prev = Events[I - 1];
      const TelemetryEvent &Cur = Events[I];
      uint64_t PrevEnd = Prev.StartUs + Prev.DurUs;
      uint64_t CurEnd = Cur.StartUs + Cur.DurUs;
      // Scope exits on one thread are totally ordered.
      EXPECT_LE(PrevEnd, CurEnd) << "tid " << Tid << " event " << I;
      // Overlap means the earlier-ending span was nested inside this one.
      if (Cur.StartUs < PrevEnd) {
        EXPECT_LE(Cur.StartUs, Prev.StartUs)
            << "tid " << Tid << " event " << I << " (" << Cur.Phase
            << ") partially overlaps " << Prev.Phase;
      }
    }
  }

  // The Chrome trace conversion yields one valid JSON document.
  std::string Err;
  ASSERT_TRUE(Sink.exportChromeTrace(T.path("trace.json"), Err)) << Err;
  std::string Trace = fileBytes(T.path("trace.json"));
  EXPECT_TRUE(isValidJsonText(Trace));
  EXPECT_NE(Trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos);

  // A sink without a log refuses the export instead of writing an empty
  // husk.
  TelemetrySink NoLog;
  EXPECT_FALSE(NoLog.exportChromeTrace(T.path("no.json"), Err));
  EXPECT_FALSE(Err.empty());
}

TEST(TelemetryTest, ParseEventLineRejectsMalformedInput) {
  TelemetryEvent Ev;
  EXPECT_FALSE(TelemetrySink::parseEventLine("", Ev));
  EXPECT_FALSE(TelemetrySink::parseEventLine("{\"ph\":\"x\"}", Ev));
  EXPECT_FALSE(TelemetrySink::parseEventLine(
      "{\"ph\":\"x\",\"be\":\"\",\"cfg\":\"\",\"ts\":-1,\"dur\":2,"
      "\"tid\":0}",
      Ev));
  EXPECT_TRUE(TelemetrySink::parseEventLine(
      "{\"ph\":\"compile\",\"be\":\"cc\",\"cfg\":\"O2\",\"ts\":10,"
      "\"dur\":5,\"tid\":3}",
      Ev));
  EXPECT_EQ(Ev.Phase, "compile");
  EXPECT_EQ(Ev.Backend, "cc");
  EXPECT_EQ(Ev.Config, "O2");
  EXPECT_EQ(Ev.StartUs, 10u);
  EXPECT_EQ(Ev.DurUs, 5u);
  EXPECT_EQ(Ev.Tid, 3u);
}
