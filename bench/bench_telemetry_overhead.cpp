//===- bench/bench_telemetry_overhead.cpp - telemetry cost ---------------===//
//
// Reports the telemetry layer's cost; it enforces no bound. The same
// two-persona corpus campaign runs with telemetry fully attached (event log
// + sink + status feed) and fully detached, paired, and the attached
// side's extra wall time is printed as a percentage of the detached
// side's. On a shared host that number swings by several percent from run
// to run, so it is a reading, not a gate. Both sides take the minimum over
// several repetitions (the lower envelope is the least noisy estimator on a
// shared machine), and the two CampaignResults are checked bit-identical:
// an overhead number measured across diverging campaigns would be
// meaningless. Emits BENCH_telemetry_overhead.json with both times, the
// ratio, and the instrumented run's own phase breakdown.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "testing/CampaignStatus.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <cstdio>

using namespace spe;
using namespace spe::bench;

namespace {

std::vector<std::string> corpus() {
  std::vector<std::string> Seeds = embeddedSeeds();
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  std::vector<std::string> Gen = generateCorpus(2000, 40, CO);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  return Seeds;
}

HarnessOptions campaignOptions() {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  auto Clang = HarnessOptions::crashMatrix(Persona::ClangSim, 39);
  Opts.Configs.insert(Opts.Configs.end(), Clang.begin(), Clang.end());
  Opts.VariantBudget = 400;
  return Opts;
}

} // namespace

int main() {
  BenchJson Json("telemetry_overhead");
  std::vector<std::string> Seeds = corpus();
  const unsigned Reps = 3;
  std::printf("two-persona corpus campaign: %zu seeds, budget 400, "
              "best of %u reps per side\n",
              Seeds.size(), Reps);

  CampaignResult Plain, Instrumented;
  double PlainMs = minWallMs(Reps, [&] {
    HarnessOptions Opts = campaignOptions();
    Plain = DifferentialHarness(Opts).runCampaign(Seeds);
  });

  double TelemetryMs = minWallMs(Reps, [&] {
    TelemetrySink::Options SO;
    SO.EventLogPath = "BENCH_telemetry_overhead.events.jsonl";
    TelemetrySink Sink(SO);
    CampaignStatusFeed Status({"BENCH_telemetry_overhead.status.json", 250});
    HarnessOptions Opts = campaignOptions();
    Opts.Telemetry = &Sink;
    Opts.Status = &Status;
    Status.attachSink(&Sink);
    Instrumented = DifferentialHarness(Opts).runCampaign(Seeds);
  });

  bool Identical = Plain == Instrumented;
  if (!Identical)
    std::printf("!! telemetry changed the campaign result -- the overhead "
                "number below compares different campaigns\n");

  double Ratio = PlainMs > 0 ? TelemetryMs / PlainMs : 0.0;
  std::printf("telemetry off: %8.1f ms\n", PlainMs);
  std::printf("telemetry on:  %8.1f ms  (event log + metrics + status "
              "feed)\n",
              TelemetryMs);
  std::printf("overhead:      %+7.2f%%  (reported, not enforced)\n",
              (Ratio - 1.0) * 100.0);

  Json.put("seeds", static_cast<uint64_t>(Seeds.size()));
  Json.put("reps", static_cast<uint64_t>(Reps));
  Json.put("plain_ms", PlainMs);
  Json.put("telemetry_ms", TelemetryMs);
  Json.put("overhead_ratio", Ratio);
  Json.put("overhead_percent", (Ratio - 1.0) * 100.0);
  Json.put("results_identical", Identical ? uint64_t(1) : uint64_t(0));
  Json.put("variants_tested", Instrumented.VariantsTested);
  emitPhaseBreakdown(Json, Instrumented.Telemetry);
  Json.write();

  std::remove("BENCH_telemetry_overhead.events.jsonl");
  std::remove("BENCH_telemetry_overhead.status.json");
  return 0;
}
