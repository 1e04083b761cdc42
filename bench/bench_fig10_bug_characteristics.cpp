//===- bench/bench_fig10_bug_characteristics.cpp - Figure 10 -------------===//
//
// Regenerates Figure 10: characteristics of the bugs found in the trunk
// campaign -- (a) priorities, (b) affected optimization levels, (c) affected
// versions, (d) affected components -- reported vs. (simulated) fixed.
// Because the substrate's bug population is ground truth, each found bug's
// metadata is exact rather than inferred from bugzilla.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <map>

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
  std::vector<CompilerConfig> Sweep =
      HarnessOptions::optLevelSweep(Persona::GccSim, 70);
  std::vector<CompilerConfig> M32 =
      HarnessOptions::crashMatrix(Persona::GccSim, 70);
  Opts.Configs = Sweep;
  Opts.Configs.insert(Opts.Configs.end(), M32.begin(), M32.end());
  Opts.VariantBudget = 120;

  DifferentialHarness Harness(Opts);
  CampaignResult Result = Harness.runCampaign(Seeds);

  header("Figure 10: gcc-sim trunk bug characteristics (reported/fixed)");

  // (a) Priorities.
  std::map<int, std::pair<unsigned, unsigned>> ByPriority;
  // (b) Affected optimization levels (a bug affects O_l if it can fire
  // there).
  unsigned ByLevel[4][2] = {};
  // (c) Affected versions.
  std::map<std::string, std::pair<unsigned, unsigned>> ByVersion;
  // (d) Components.
  std::map<std::string, std::pair<unsigned, unsigned>> ByComponent;

  for (const auto &[Id, Found] : Result.UniqueBugs) {
    const InjectedBug *Truth = findBug(Id);
    if (!Truth)
      continue; // Signature-only finding; no ground-truth metadata.
    const InjectedBug &B = *Truth;
    bool Fixed = simulatedFixed(Id);
    auto Bump = [&](std::pair<unsigned, unsigned> &Slot) {
      ++Slot.first;
      if (Fixed)
        ++Slot.second;
    };
    Bump(ByPriority[B.Priority]);
    Bump(ByComponent[B.Component]);
    for (unsigned L = 0; L <= 3; ++L) {
      CompilerConfig C{B.P, 70, L, !B.Mode32Only, {}};
      if (B.activeIn(C)) {
        ++ByLevel[L][0];
        if (Fixed)
          ++ByLevel[L][1];
      }
    }
    if (B.IntroducedIn < 50)
      Bump(ByVersion["earlier"]);
    if (B.activeIn({B.P, 50, 3, !B.Mode32Only, {}}) ||
        B.activeIn({B.P, 59, 3, !B.Mode32Only, {}}))
      Bump(ByVersion["5.x"]);
    if (B.activeIn({B.P, 60, 3, !B.Mode32Only, {}}) ||
        B.activeIn({B.P, 69, 3, !B.Mode32Only, {}}))
      Bump(ByVersion["6.x"]);
    Bump(ByVersion["trunk"]);
  }

  std::printf("(a) Priorities:\n");
  for (const auto &[P, Counts] : ByPriority)
    std::printf("  P%-2d reported %2u fixed %2u\n", P, Counts.first,
                Counts.second);
  std::printf("    (paper: P1 13, P2 39, P3 74, P4-5 10 reported)\n");

  std::printf("(b) Affected optimization levels:\n");
  for (unsigned L = 0; L <= 3; ++L)
    std::printf("  -O%u reported %2u fixed %2u\n", L, ByLevel[L][0],
                ByLevel[L][1]);
  std::printf("    (paper: O0 77, O1 25, O2 40, O3 51 reported; more -O3 "
              "bugs than -O1/-O2)\n");

  std::printf("(c) Affected versions:\n");
  for (const char *V : {"earlier", "5.x", "6.x", "trunk"}) {
    auto It = ByVersion.find(V);
    unsigned R = It == ByVersion.end() ? 0 : It->second.first;
    unsigned F = It == ByVersion.end() ? 0 : It->second.second;
    std::printf("  %-8s reported %2u fixed %2u\n", V, R, F);
  }
  std::printf("    (paper: earlier 58, 5.x 90, 6.x 116, trunk 136; 43%% "
              "latent for over a year)\n");

  std::printf("(d) Components:\n");
  for (const auto &[C, Counts] : ByComponent)
    std::printf("  %-18s reported %2u fixed %2u\n", C.c_str(), Counts.first,
                Counts.second);
  std::printf("    (paper: c 13, c++ 63, ipa 2, middle-end 10, "
              "rtl-opt 6, target 6, tree-opt 34; no C++ frontend in this "
              "reproduction -- see DESIGN.md)\n");
  return 0;
}
