//===- examples/find_compiler_bugs.cpp - differential bug hunting ---------===//
//
// The paper's Section 5.3 campaign in miniature: enumerate the embedded
// seed suite, validate variants against the reference interpreter, and
// differential-test the gcc-sim and clang-sim trunk personas. Prints every
// unique bug found with its ground-truth metadata, plus what was missed.
//
// Build and run:  ./build/examples/find_compiler_bugs
//
//===----------------------------------------------------------------------===//

#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <cstdio>

using namespace spe;

int main() {
  HarnessOptions Opts;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    unsigned Trunk = P == Persona::GccSim ? 70 : 40;
    for (const CompilerConfig &C : HarnessOptions::optLevelSweep(P, Trunk))
      Opts.Configs.push_back(C);
    for (const CompilerConfig &C : HarnessOptions::crashMatrix(P, Trunk))
      Opts.Configs.push_back(C);
  }
  Opts.VariantBudget = 200;

  DifferentialHarness Harness(Opts);
  std::printf("Enumerating %zu seeds against %zu compiler configs...\n\n",
              embeddedSeeds().size(), Opts.Configs.size());
  CampaignResult Result = Harness.runCampaign(embeddedSeeds());

  std::printf("Variants enumerated: %llu, tested: %llu, excluded by the "
              "UB oracle: %llu\n\n",
              static_cast<unsigned long long>(Result.VariantsEnumerated),
              static_cast<unsigned long long>(Result.VariantsTested),
              static_cast<unsigned long long>(Result.VariantsOracleExcluded));

  std::printf("%-4s %-10s %-12s %-20s %s\n", "Id", "Persona", "Effect",
              "Component", "Signature");
  for (const auto &[Id, Bug] : Result.UniqueBugs) {
    const InjectedBug *Truth = findBug(Id);
    std::printf("#%-3d %-10s %-12s %-20s %.60s\n", Id, personaName(Bug.P),
                bugEffectName(Bug.Effect),
                Truth ? Truth->Component.c_str() : "?",
                Bug.Signature.c_str());
  }

  // What the seed suite alone could not reach.
  unsigned Missed = 0;
  for (const InjectedBug &B : bugDatabase()) {
    unsigned Trunk = B.P == Persona::GccSim ? 70 : 40;
    bool Live = false;
    for (unsigned Opt = 0; Opt <= 3 && !Live; ++Opt)
      Live = B.activeIn({B.P, Trunk, Opt, !B.Mode32Only, {}});
    if (Live && !Result.UniqueBugs.count(B.Id))
      ++Missed;
  }
  std::printf("\nFound %zu unique bugs; %u live trunk bugs not reached by "
              "this seed set.\n",
              Result.UniqueBugs.size(), Missed);
  std::printf("One witness program:\n%s\n",
              Result.UniqueBugs.empty()
                  ? "(none)"
                  : Result.UniqueBugs.begin()->second.WitnessProgram.c_str());
  return 0;
}
