//===- examples/fleet_campaign.cpp - multi-process fleet walkthrough ------===//
//
// The distrib layer end to end (DESIGN.md Section 16): a
// CampaignCoordinator leases disjoint rank ranges of each seed's budgeted
// variant space to real worker processes (tools/fleet_worker.cpp), journals
// every completed fragment, aggregates the workers' status heartbeats into
// one fleet document, and merges the streamed fragments into a result that
// must be bit-identical to the same campaign run single-process.
//
// Build and run:  ./build/example_fleet_campaign
// Artifacts land in fleet_campaign_tmp/.
//
//===----------------------------------------------------------------------===//

#include "distrib/Coordinator.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace spe;

#ifndef SPE_FLEET_WORKER_PATH
#error "SPE_FLEET_WORKER_PATH must point at the spe_fleet_worker binary"
#endif

static std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

int main() {
  const std::string Dir = "fleet_campaign_tmp";
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);

  const std::vector<std::string> &Embedded = embeddedSeeds();
  std::vector<std::string> Seeds = {Embedded[0], Embedded[2], Embedded[0]};

  CampaignSpec Spec;
  Spec.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Spec.VariantBudget = 30;
  Spec.Threads = 2;
  Spec.Triage = true;

  // The single-process reference, checkpointing on.
  HarnessOptions HO(Spec);
  HO.CheckpointPath = Dir + "/reference.ck";
  CampaignResult Reference = DifferentialHarness(HO).runCampaign(Seeds);
  std::printf("single-process reference: %llu variants tested, "
              "%zu unique bugs\n",
              (unsigned long long)Reference.VariantsTested,
              Reference.UniqueBugs.size());

  FleetOptions Fleet;
  Fleet.WorkerCommand = {SPE_FLEET_WORKER_PATH};
  Fleet.Workers = 2;
  Fleet.LeaseRanks = 7;
  Fleet.JournalPath = Dir + "/leases.journal";
  Fleet.FleetStatusPath = Dir + "/fleet.status.json";
  Fleet.WorkerStatusDir = Dir;
  Fleet.StatusEveryMs = 50;
  Fleet.CheckpointPath = Dir + "/fleet.ck";

  std::printf("spawned %u worker processes\n", Fleet.Workers);
  CampaignCoordinator Coordinator(Spec, Fleet);
  CampaignResult Result;
  std::string Err;
  if (!Coordinator.run(Seeds, Result, Err)) {
    std::printf("FLEET CAMPAIGN FAILED: %s\n", Err.c_str());
    return 1;
  }

  const FleetStats &St = Coordinator.stats();
  std::printf("fleet: %llu leases over %llu worker spawns, "
              "%llu re-leased after deaths\n",
              (unsigned long long)St.LeasesTotal,
              (unsigned long long)St.WorkersSpawned,
              (unsigned long long)St.Releases);
  std::printf("fleet result: %llu variants tested, %zu unique bugs, "
              "%zu triaged clusters\n",
              (unsigned long long)Result.VariantsTested,
              Result.UniqueBugs.size(), Result.Triaged.size());

  bool Identical = Result == Reference;
  bool SameCheckpoint =
      readFile(Dir + "/fleet.ck") == readFile(Dir + "/reference.ck") &&
      !readFile(Dir + "/fleet.ck").empty();
  std::printf("bit-identical to single-process run: %s\n",
              Identical ? "yes" : "NO");
  std::printf("checkpoint bytes match: %s\n", SameCheckpoint ? "yes" : "NO");
  std::printf("fleet status document: %s\n",
              readFile(Dir + "/fleet.status.json").empty() ? "MISSING"
                                                           : "written");

  if (!Identical || !SameCheckpoint)
    return 1;
  return 0;
}
