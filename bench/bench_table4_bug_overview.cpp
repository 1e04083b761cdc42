//===- bench/bench_table4_bug_overview.cpp - Table 4 regeneration --------===//
//
// Regenerates Table 4: the six-month campaign overview on trunk compilers.
// Personas run at their trunk versions over the full optimization sweep
// plus the -m32 crash matrix. "Fixed" is simulated deterministically at the
// paper's observed fix rate (~2/3); duplicates/invalid reports do not occur
// here because ground-truth bug identity is known (that is the point of an
// instrumented substrate -- see DESIGN.md).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

using namespace spe;
using namespace spe::bench;

static bool simulatedFixed(int BugId) { return BugId % 3 != 0; }

int main() {
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Generated = generateCorpus(3000, 150);
  Seeds.insert(Seeds.end(), Generated.begin(), Generated.end());

  HarnessOptions Opts;
  // Reproduction bench: opt into the literal published algorithm.
  Opts.Mode = SpeMode::PaperFaithful;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    unsigned Trunk = P == Persona::GccSim ? 70 : 40;
    std::vector<CompilerConfig> Sweep =
        HarnessOptions::optLevelSweep(P, Trunk);
    Opts.Configs.insert(Opts.Configs.end(), Sweep.begin(), Sweep.end());
    std::vector<CompilerConfig> M32 = HarnessOptions::crashMatrix(P, Trunk);
    Opts.Configs.insert(Opts.Configs.end(), M32.begin(), M32.end());
  }
  Opts.VariantBudget = 120;

  DifferentialHarness Harness(Opts);
  CampaignResult Result = Harness.runCampaign(Seeds);

  header("Table 4: campaign overview on trunk compilers");
  std::printf("%-10s %9s %7s | %7s %11s %12s\n", "Compiler", "Reported",
              "Fixed", "Crash", "Wrong code", "Performance");
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    unsigned Reported = Result.bugCount(P);
    unsigned Fixed = 0;
    for (const auto &[Id, Bug] : Result.UniqueBugs)
      if (Bug.P == P && simulatedFixed(Id))
        ++Fixed;
    std::printf("%-10s %9u %7u | %7u %11u %12u\n", personaName(P), Reported,
                Fixed, Result.bugCount(P, BugEffect::Crash),
                Result.bugCount(P, BugEffect::WrongCode),
                Result.bugCount(P, BugEffect::Performance));
  }
  unsigned GroundTruthOpen = 0;
  for (const InjectedBug &B : bugDatabase())
    if (B.activeIn({B.P, B.P == Persona::GccSim ? 70u : 40u, 3, true, {}}) ||
        B.activeIn({B.P, B.P == Persona::GccSim ? 70u : 40u, 3, false, {}}))
      ++GroundTruthOpen;
  std::printf("\nGround truth: %zu injected bugs total, %u live at trunk; "
              "found %zu\n",
              bugDatabase().size(), GroundTruthOpen,
              Result.UniqueBugs.size());
  std::printf("Observations: %llu crashes, %llu wrong-code, %llu "
              "performance across %llu tested variants\n",
              static_cast<unsigned long long>(Result.CrashObservations),
              static_cast<unsigned long long>(Result.WrongCodeObservations),
              static_cast<unsigned long long>(
                  Result.PerformanceObservations),
              static_cast<unsigned long long>(Result.VariantsTested));
  std::printf("\nPaper reference: GCC 136 reported / 93 fixed "
              "(127 crash, 6 wrong code, 3 performance);\n"
              "                 Clang 81 reported / 26 fixed "
              "(79 crash, 2 wrong code)\n");
  return 0;
}
