//===- examples/triage_campaign.cpp - campaign to human-readable report ---===//
//
// The full pipeline the paper's reporting workflow implies: run the
// two-persona differential campaign, then let the triage pass collapse the
// raw per-configuration findings into signature clusters and shrink each
// cluster's witness into a minimal canonical reproducer. What prints at the
// end is what a human would actually file.
//
// Build and run:  ./build/example_triage_campaign
//
//===----------------------------------------------------------------------===//

#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"
#include "triage/Deduper.h"

#include <cstdio>

using namespace spe;

int main() {
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(3000, 24, CO);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());

  OracleCache Cache;
  CampaignResult Campaign;
  for (Persona P : {Persona::GccSim, Persona::ClangSim}) {
    HarnessOptions Opts;
    Opts.Configs =
        HarnessOptions::crashMatrix(P, P == Persona::GccSim ? 70 : 40);
    Opts.VariantBudget = 150;
    Opts.Cache = &Cache;
    Campaign.merge(DifferentialHarness(Opts).runCampaign(Seeds));
  }

  std::printf("Campaign over %zu seeds: %llu raw findings across "
              "configurations.\n",
              Seeds.size(),
              static_cast<unsigned long long>(Campaign.RawFindings.size()));

  HarnessOptions Opts;
  Opts.Cache = &Cache;
  triageCampaign(Campaign, Opts);
  const ReductionStats &R = Campaign.Reduction;
  std::printf("Triage: %llu clusters (dedup ratio %.1f), reproducer tokens "
              "%llu -> %llu (-%.0f%%).\n\n",
              static_cast<unsigned long long>(R.Clusters), R.dedupRatio(),
              static_cast<unsigned long long>(R.TokensBefore),
              static_cast<unsigned long long>(R.TokensAfter),
              100.0 * R.tokenReduction());

  for (const TriagedBug &Cluster : Campaign.Triaged) {
    std::printf("=== %s\n", Cluster.Sig.str().c_str());
    std::printf("    %llu raw finding(s), ground-truth id(s):",
                static_cast<unsigned long long>(Cluster.RawCount));
    for (int Id : Cluster.MemberIds)
      std::printf(" #%d", Id);
    const FoundBug &Rep = Cluster.Representative;
    std::printf("\n    config: -O%u %s, version %u; reproducer %llu -> "
                "%llu tokens\n",
                Rep.OptLevel, Rep.Mode64 ? "-m64" : "-m32", Rep.Version,
                static_cast<unsigned long long>(Cluster.TokensBefore),
                static_cast<unsigned long long>(Cluster.TokensAfter));
    std::printf("--- reproducer ---\n%s\n", Rep.WitnessProgram.c_str());
  }
  return 0;
}
