//===- examples/matrix_campaign.cpp - gcc vs clang differential matrix ---===//
//
// The N-way differential matrix (DESIGN.md Section 14) over real host
// compilers: every tested variant is compiled by gcc AND clang under every
// configuration, each compiled binary is executed once per stdin sweep
// input, and per-cell observations are voted majority-vs-outlier -- a
// divergence names the backend that broke ranks, not just "something
// differed". With two real compilers plus the reference oracle, a genuine
// gcc bug shows up as gcc alone against a clang+oracle majority.
//
// When gcc or clang is missing the walkthrough degrades to the same
// matrix over two in-process MiniCC personas-as-backends, so the CTest
// smoke run exercises the full machinery on a bare container.
//
// Build and run:  ./build/example_matrix_campaign
//
//===----------------------------------------------------------------------===//

#include "compiler/ExternalBackend.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "triage/Deduper.h"

#include <cstdio>
#include <memory>

using namespace spe;

namespace {

/// The in-process compiler under its own roster name, for the fallback
/// matrix on containers without gcc/clang.
struct NamedInProcess : CompilerBackend {
  InProcessBackend Inner;
  std::string Name;
  NamedInProcess(std::string Name, bool InjectBugs)
      : Inner(InjectBugs), Name(std::move(Name)) {}
  std::string identity() const override { return Name; }
  bool hasGroundTruth() const override { return true; }
  BackendObservation run(const std::string &S, const CompilerConfig &C,
                         CoverageRegistry *Cov) const override {
    return Inner.run(S, C, Cov);
  }
  BackendObservation runWithInput(const std::string &S,
                                  const CompilerConfig &C,
                                  const std::string &In,
                                  CoverageRegistry *Cov) const override {
    return Inner.runWithInput(S, C, In, Cov);
  }
  std::vector<BackendObservation>
  runSweep(const std::string &S, const CompilerConfig &C,
           const std::vector<std::string> &Ins,
           CoverageRegistry *Cov) const override {
    return Inner.runSweep(S, C, Ins, Cov);
  }
};

std::unique_ptr<ExternalBackend> makeExternal(const char *Compiler) {
  ExternalBackendOptions EB;
  EB.Command = {Compiler};
  EB.PoolWorkers = 2;
  auto Backend = std::make_unique<ExternalBackend>(EB);
  if (!Backend->available())
    return nullptr;
  return Backend;
}

} // namespace

int main() {
  // 1. The roster: gcc as the primary backend, clang as the extra slot.
  //    Any number of further compilers (cross toolchains, older releases,
  //    -m32 builds) can be appended to ExtraBackends the same way.
  std::unique_ptr<ExternalBackend> Gcc = makeExternal("gcc");
  std::unique_ptr<ExternalBackend> Clang = makeExternal("clang");
  std::unique_ptr<NamedInProcess> FallbackA, FallbackB;

  HarnessOptions Opts;
  if (Gcc && Clang) {
    std::printf("Matrix roster:\n  [0] %s\n  [1] %s\n  [2] reference "
                "oracle\n",
                Gcc->versionLine().c_str(), Clang->versionLine().c_str());
    Opts.Backend = Gcc.get();
    Opts.ExtraBackends = {Clang.get()};
  } else {
    std::printf("gcc and/or clang unavailable; running the matrix over "
                "two in-process personas instead.\n");
    FallbackA = std::make_unique<NamedInProcess>("minicc-a", true);
    FallbackB = std::make_unique<NamedInProcess>("minicc-b", true);
    Opts.Backend = FallbackA.get();
    Opts.ExtraBackends = {FallbackB.get()};
  }

  // 2. Configurations with a stdin sweep: each compiled variant executes
  //    once per input, and spe_input() (a scanf("%d") intrinsic every
  //    executor implements identically) feeds the value into the program,
  //    so one compile yields four differential points instead of one.
  Opts.Configs = {{Persona::GccSim, 140, 0, true, {}},
                  {Persona::GccSim, 140, 2, true, {}}};
  for (CompilerConfig &Config : Opts.Configs)
    Config.ExecSweep = {"1\n", "7\n", "-3\n", "100\n"};
  Opts.VariantBudget = 6; // Keep the smoke run to a few dozen compiles.
  Opts.BatchSize = 8;     // Batched compiles, result-neutral as ever.

  // 3. Seeds: one bug-neighborhood seed plus one that actually reads the
  //    sweep -- without spe_input() the four executions would be four
  //    copies of the same behavior.
  std::vector<std::string> Seeds = {embeddedSeeds()[2],
                                    "int main(void) {\n"
                                    "  int a = spe_input();\n"
                                    "  int b = 3, c = 1;\n"
                                    "  c = c - b;\n"
                                    "  if (a > c)\n"
                                    "    c = a - c;\n"
                                    "  return c * 10 + b;\n"
                                    "}\n"};

  CampaignResult Result = DifferentialHarness(Opts).runCampaign(Seeds);

  std::printf("\nVariants tested: %llu; matrix cells compared: %llu "
              "(%llu sweep cells oracle-excluded)\n",
              static_cast<unsigned long long>(Result.VariantsTested),
              static_cast<unsigned long long>(Result.MatrixCellsCompared),
              static_cast<unsigned long long>(Result.SweepCellsExcluded));

  // 4. Findings carry their attribution: the voted outlier's identity()
  //    (or "reference-oracle" when a backend majority outvoted the
  //    interpreter), and the sweep input the divergence manifested under.
  std::vector<TriagedBug> Clusters = clusterBySignature(Result.RawFindings);
  std::printf("%zu raw findings -> %zu signature clusters\n",
              Result.RawFindings.size(), Clusters.size());
  for (const TriagedBug &Cluster : Clusters) {
    std::printf("  [%s] x%llu", Cluster.Sig.str().c_str(),
                static_cast<unsigned long long>(Cluster.RawCount));
    if (!Cluster.Representative.Input.empty())
      std::printf("  (input %s)",
                  Cluster.Representative.Input == "\n"
                      ? "<empty>"
                      : Cluster.Representative.Input.c_str());
    std::printf("\n--- witness ---\n%s---------------\n",
                Cluster.Representative.WitnessProgram.c_str());
  }
  if (Clusters.empty())
    std::printf("All roster backends agree with the reference oracle on "
                "every cell -- as a healthy toolchain should.\n");
  return 0;
}
