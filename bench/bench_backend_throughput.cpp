//===- bench/bench_backend_throughput.cpp - backend cost comparison ------===//
//
// What does trading the in-process MiniCC personas for a real subprocess
// compiler cost, and how much of it does batching buy back? Runs the same
// budgeted embedded-seed campaign through the in-process backend, then
// through the external backend at BatchSize K = 1, 8, 64, 256 (process
// pool enabled), and reports variants/sec side by side plus the raw
// process-spawn overhead (spawn/wait of /bin/true) that bounds any
// subprocess backend from below. Every campaign's CampaignResult is
// checked identical to the unbatched reference -- a sweep that changed
// findings would be measuring a bug. Emits BENCH_backend_throughput.json
// (with per-K batch_size / variants_per_compile / speedup records) so the
// trajectory is machine-comparable across PRs; the external half is
// skipped, stating why, when no host compiler is on PATH.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "compiler/ExternalBackend.h"
#include "support/ProcessRunner.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <chrono>

using namespace spe;
using namespace spe::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

HarnessOptions campaignOptions() {
  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 70, 0, true},
                  {Persona::GccSim, 70, 2, true}};
  // Large enough for the K=64 sweep point to actually fill its batches;
  // a budget below the batch size would silently measure smaller batches.
  Opts.VariantBudget = 64;
  return Opts;
}

std::vector<std::string> campaignSeeds() {
  return {embeddedSeeds()[2], embeddedSeeds()[5], embeddedSeeds()[6]};
}

} // namespace

int main() {
  BenchJson Json("backend_throughput");
  std::vector<std::string> Seeds = campaignSeeds();

  header("Raw subprocess overhead (ProcessRunner)");
  {
    const int N = 40;
    auto T0 = std::chrono::steady_clock::now();
    for (int I = 0; I < N; ++I)
      (void)runProcess({"/bin/true"});
    double PerSpawnMs = secondsSince(T0) * 1000.0 / N;
    std::printf("spawn+wait(/bin/true): %.2f ms/process\n", PerSpawnMs);
    Json.put("process_spawn_ms", PerSpawnMs);
  }

  header("In-process MiniCC backend");
  {
    HarnessOptions Opts = campaignOptions();
    auto T0 = std::chrono::steady_clock::now();
    CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
    double Secs = secondsSince(T0);
    double PerSec = Secs > 0 ? static_cast<double>(R.VariantsTested) / Secs
                             : 0.0;
    std::printf("%llu variants tested in %.3f s  (%.1f variants/sec, "
                "%zu configs each)\n",
                static_cast<unsigned long long>(R.VariantsTested), Secs,
                PerSec, Opts.Configs.size());
    Json.put("inproc_variants_tested", R.VariantsTested);
    Json.put("inproc_seconds", Secs);
    Json.put("inproc_variants_per_sec", PerSec);
  }

  header("External subprocess backend (host cc): batch-size sweep");
  {
    ExternalBackendOptions BO;
    BO.PoolWorkers = 2;
    ExternalBackend Backend(BO);
    Json.put("external_available", Backend.available() ? 1 : 0);
    if (!Backend.available()) {
      // Self-skip, loudly: a bench that silently measured nothing would
      // read as a regression to zero in the json trajectory.
      std::printf("skipped: %s\n", Backend.unavailableReason().c_str());
      Json.put("external_skip_reason", Backend.unavailableReason());
      Json.write();
      return 0;
    }
    std::printf("compiler: %s  (process pool: %u workers)\n",
                Backend.versionLine().c_str(), BO.PoolWorkers);
    Json.put("external_version", Backend.versionLine());
    Json.put("pool_workers", static_cast<uint64_t>(BO.PoolWorkers));

    const uint64_t Sweep[] = {1, 8, 64, 256};
    CampaignResult Reference;
    double BaselinePerSec = 0.0;
    for (uint64_t K : Sweep) {
      HarnessOptions Opts = campaignOptions();
      Opts.Backend = &Backend;
      Opts.BatchSize = K;
      auto T0 = std::chrono::steady_clock::now();
      CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
      double Secs = secondsSince(T0);
      double PerSec = Secs > 0
                          ? static_cast<double>(R.VariantsTested) / Secs
                          : 0.0;

      if (K == 1) {
        Reference = R;
        BaselinePerSec = PerSec;
      } else if (!(R == Reference)) {
        std::printf("!! BatchSize %llu changed the campaign result -- the "
                    "sweep below is measuring a bug, not a speedup\n",
                    static_cast<unsigned long long>(K));
        Json.put("batch_identity_violation", static_cast<uint64_t>(K));
      }

      // Each tested variant still costs one *execution* per configuration;
      // compiles are amortized across the batch.
      uint64_t Tested = R.VariantsTested;
      double VariantsPerCompile =
          static_cast<double>(K < Tested ? K : (Tested ? Tested : 1));
      double Speedup = BaselinePerSec > 0 ? PerSec / BaselinePerSec : 0.0;
      std::printf("K=%-4llu %llu variants in %6.3f s  (%6.1f variants/sec, "
                  "%4.1fx vs K=1)\n",
                  static_cast<unsigned long long>(K),
                  static_cast<unsigned long long>(Tested), Secs, PerSec,
                  Speedup);

      std::string P = "external_k" + std::to_string(K) + "_";
      Json.put(P + "batch_size", K);
      Json.put(P + "variants_per_compile", VariantsPerCompile);
      Json.put(P + "variants_tested", Tested);
      Json.put(P + "seconds", Secs);
      Json.put(P + "variants_per_sec", PerSec);
      Json.put(P + "speedup_vs_k1", Speedup);
      if (K == 1) {
        // Keep the PR-5-era field names alive so the cross-PR trajectory
        // stays comparable.
        Json.put("external_variants_tested", Tested);
        Json.put("external_seconds", Secs);
        Json.put("external_variants_per_sec", PerSec);
        uint64_t Invocations = Tested * campaignOptions().Configs.size();
        Json.put("external_per_invocation_ms",
                 Invocations > 0
                     ? Secs * 1000.0 / static_cast<double>(Invocations)
                     : 0.0);
      }
    }

    // Phase breakdown of a batched external campaign: how the wall time
    // splits across oracle work, batch packing, pooled compiles, binary
    // executions, and voting. A separate instrumented run (fresh sink and
    // backend) so the sweep's timed numbers stay uninstrumented and the
    // sink aggregates exactly one campaign.
    TelemetrySink Sink;
    ExternalBackendOptions TBO;
    TBO.PoolWorkers = 2;
    TBO.Telemetry = &Sink;
    ExternalBackend TBackend(TBO);
    HarnessOptions Opts = campaignOptions();
    Opts.Backend = &TBackend;
    Opts.BatchSize = 64;
    Opts.Telemetry = &Sink;
    CampaignResult RT = DifferentialHarness(Opts).runCampaign(Seeds);
    if (!(RT == Reference)) {
      std::printf("!! telemetry changed the campaign result\n");
      Json.put("telemetry_identity_violation", uint64_t(1));
    }
    emitPhaseBreakdown(Json, RT.Telemetry);
  }

  Json.write();
  return 0;
}
