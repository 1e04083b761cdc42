//===- examples/external_campaign.cpp - testing a real compiler ----------===//
//
// The campaign the paper actually ran, in miniature: enumerate skeleton
// variants of the embedded seeds, validate each against the reference
// oracle, then compile and execute every tested variant with the *host*
// compiler (`cc`) through the subprocess backend. There is no ground truth
// here -- findings are deduplicated purely by behavioral signature, the
// way a human triaging real GCC/Clang reports would.
//
// On a healthy toolchain this prints zero findings: the point of the
// walkthrough is the machinery (subprocess driving, oracle comparison,
// signature clustering), which is exactly what you would point at a
// compiler built from an unreleased branch. Exits cleanly with a message
// when no usable compiler is on PATH, so the CTest smoke run never fails
// on a bare container.
//
// Build and run:  ./build/example_external_campaign
//
//===----------------------------------------------------------------------===//

#include "compiler/ExternalBackend.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "triage/Deduper.h"

#include <cstdio>

using namespace spe;

int main() {
  // 1. Point the backend at the host compiler. Swap in {"gcc", "-w"} or
  //    {"clang", "-w"} (or a cross toolchain) to hunt somewhere specific;
  //    the identity -- command line plus `--version` banner -- is folded
  //    into checkpoint fingerprints, so long campaigns can never resume
  //    against the wrong compiler. PoolWorkers keeps two pool threads
  //    running the compiler/binary subprocesses so batch compiles overlap
  //    the harness's oracle work.
  ExternalBackendOptions EB;
  EB.PoolWorkers = 2;
  ExternalBackend Backend(EB);
  if (!Backend.available()) {
    std::printf("No usable host compiler (%s); skipping the external "
                "campaign walkthrough.\n",
                Backend.unavailableReason().c_str());
    return 0;
  }
  std::printf("Compiler under test: %s\n", Backend.versionLine().c_str());

  // 2. A small sweep: -O0 vs -O2. Version '140' is only a label on the
  //    findings; the command line is what actually varies.
  HarnessOptions Opts;
  Opts.Backend = &Backend;
  Opts.Configs = {{Persona::GccSim, 140, 0, true, {}},
                  {Persona::GccSim, 140, 2, true, {}}};
  Opts.VariantBudget = 6; // Keep the smoke run to a few dozen compiles.
  // Batch variants into shared translation units (one compile per batch
  // per config, DESIGN.md Section 13). Result-neutral: any batch-level
  // failure is bisected and re-verified solo, so findings are identical
  // to BatchSize = 1 -- only the wall clock changes.
  Opts.BatchSize = 8;

  std::vector<std::string> Seeds = {embeddedSeeds()[2], embeddedSeeds()[5]};
  DifferentialHarness Harness(Opts);
  CampaignResult Result = Harness.runCampaign(Seeds);

  std::printf("\nVariants enumerated: %llu, tested: %llu, excluded by the "
              "UB oracle: %llu\n",
              static_cast<unsigned long long>(Result.VariantsEnumerated),
              static_cast<unsigned long long>(Result.VariantsTested),
              static_cast<unsigned long long>(Result.VariantsOracleExcluded));
  std::printf("Observations: %llu crash, %llu wrong-code (%llu hangs), "
              "%llu compile-time\n",
              static_cast<unsigned long long>(Result.CrashObservations),
              static_cast<unsigned long long>(Result.WrongCodeObservations),
              static_cast<unsigned long long>(Result.ExecutionTimeouts),
              static_cast<unsigned long long>(
                  Result.PerformanceObservations));

  // 3. Signature-only dedup: raw findings sit at BugId 0, keyed by their
  //    normalized behavioral signature; clustering collapses per-config
  //    duplicates exactly as the ground-truth-free paper setting demands.
  std::vector<TriagedBug> Clusters = clusterBySignature(Result.RawFindings);
  std::printf("\n%zu raw findings -> %zu signature clusters\n",
              Result.RawFindings.size(), Clusters.size());
  for (const TriagedBug &Cluster : Clusters) {
    std::printf("  [%s] x%llu\n", Cluster.Sig.str().c_str(),
                static_cast<unsigned long long>(Cluster.RawCount));
    std::printf("--- witness ---\n%s---------------\n",
                Cluster.Representative.WitnessProgram.c_str());
  }
  if (Clusters.empty())
    std::printf("No divergence between %s and the reference oracle on "
                "this corpus -- as it should be.\n",
                Backend.versionLine().c_str());
  return 0;
}
