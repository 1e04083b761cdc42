//===- tests/distrib_fleet_test.cpp - fleet campaign battery -------------===//
//
// The headline guarantee of the distrib layer (DESIGN.md Section 16): a
// CampaignCoordinator driving N worker *processes* ends with a
// CampaignResult -- unique bugs, raw findings, triage, and every
// deterministic counter -- bit-identical to the single-process run, for
// 1, 2, and 4 workers at batch sizes 1 and 8, including the final
// Complete checkpoint's exact bytes. The battery also SIGKILLs a worker
// mid-lease (the death must be detected, the lease re-run, and the final
// result unchanged), stops a coordinator at a fragment boundary and
// resumes a fresh one from the lease journal, and pins the rejection
// paths: journals from a skewed spec or seed list, corrupt journals,
// corrupt fragments, and unstartable worker binaries.
//
//===----------------------------------------------------------------------===//

#include "distrib/Coordinator.h"
#include "distrib/FleetProtocol.h"
#include "distrib/Worker.h"
#include "interp/Interpreter.h"
#include "persist/Checkpoint.h"
#include "persist/LineText.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace spe;

#ifndef SPE_FLEET_WORKER_PATH
#error "SPE_FLEET_WORKER_PATH must point at the spe_fleet_worker binary"
#endif

namespace {

std::vector<std::string> testSeeds() {
  const std::vector<std::string> &Embedded = embeddedSeeds();
  // Two distinct seeds plus a repeat, so lease planning sees more than one
  // rank space and identical headers for identical sources.
  return {Embedded[0], Embedded[2], Embedded[0]};
}

FleetSpec baseSpec() {
  FleetSpec Spec;
  Spec.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Spec.VariantBudget = 30;
  Spec.Threads = 2; // Folded into the checkpoint fingerprint only.
  return Spec;
}

FleetOptions baseFleet() {
  FleetOptions O;
  O.WorkerCommand = {SPE_FLEET_WORKER_PATH};
  return O;
}

struct TempDir {
  std::string Dir;
  explicit TempDir(const std::string &Name) : Dir("fleet_test_tmp/" + Name) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  std::string path(const char *File) const { return Dir + "/" + File; }
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The single-process reference this whole battery compares against:
/// the same spec run through the ordinary harness, checkpointing on.
CampaignResult referenceRun(const FleetSpec &Spec, const std::string &CkPath) {
  HarnessOptions HO = Spec.toHarnessOptions();
  HO.CheckpointPath = CkPath;
  return DifferentialHarness(HO).runCampaign(testSeeds());
}

//===--------------------------------------------------------------------===//
// Wire format units
//===--------------------------------------------------------------------===//

TEST(FleetSpecTest, SerializeParseRoundTrip) {
  FleetSpec Spec = baseSpec();
  Spec.BatchSize = 8;
  Spec.Triage = true;
  Spec.Configs[0].ExecSweep = {"", "7 11"};

  FleetSpec Back;
  std::string Err;
  ASSERT_TRUE(FleetSpec::parse(Spec.serialize(), Back, Err)) << Err;
  EXPECT_EQ(Spec.serialize(), Back.serialize());
  EXPECT_EQ(Spec.fingerprint(), Back.fingerprint());
}

TEST(FleetSpecTest, ParseRejectsDamage) {
  FleetSpec Spec = baseSpec();
  std::string Doc = Spec.serialize();
  FleetSpec Back;
  std::string Err;

  EXPECT_FALSE(FleetSpec::parse("SPE-JUNK v9\n", Back, Err));
  EXPECT_FALSE(FleetSpec::parse(Doc.substr(0, Doc.size() / 2), Back, Err));
  EXPECT_FALSE(FleetSpec::parse(Doc + "extra line\n", Back, Err));
}

TEST(FleetFragmentTest, RoundTripAndChecksumRejection) {
  // A real result with findings, so both maps round-trip.
  FleetSpec Spec = baseSpec();
  CampaignResult R =
      DifferentialHarness(Spec.toHarnessOptions()).runCampaign(testSeeds());
  ASSERT_GT(R.UniqueBugs.size(), 0u);

  std::string Wire = serializeFragment(R);
  CampaignResult Back;
  std::string Err;
  ASSERT_TRUE(parseFragment(Wire, Back, Err)) << Err;
  EXPECT_TRUE(R == Back);

  std::string Corrupt = Wire;
  Corrupt[Corrupt.size() / 2] ^= 1;
  EXPECT_FALSE(parseFragment(Corrupt, Back, Err));
  EXPECT_FALSE(parseFragment(Wire.substr(0, Wire.size() - 4), Back, Err));
}

//===--------------------------------------------------------------------===//
// Lease machinery (in-process, no worker binary)
//===--------------------------------------------------------------------===//

TEST(FleetLeaseTest, LeaseFoldReproducesSeedRun) {
  FleetSpec Spec = baseSpec();
  DifferentialHarness H(Spec.toHarnessOptions());
  const std::string Seed = testSeeds()[0];

  DifferentialHarness::SeedLeaseSummary Sum = H.summarizeSeed(Seed);
  ASSERT_TRUE(Sum.Enumerable);
  const uint64_t Budget = Sum.Budget.toUint64();
  ASSERT_GT(Budget, 2u);

  // Deliberately uneven split, merged header-first in ascending order.
  CampaignResult Folded = Sum.Header;
  std::string Err;
  const uint64_t Cut = Budget / 3 + 1;
  for (uint64_t B : {uint64_t(0), Cut}) {
    CampaignResult Frag;
    ASSERT_TRUE(H.runLease(Seed, BigInt(B),
                           BigInt(B == 0 ? Cut : Budget), Frag,
                           Err))
        << Err;
    Folded.merge(Frag);
  }

  CampaignResult Whole = H.runCampaign({Seed});
  EXPECT_TRUE(Folded == Whole);
}

TEST(FleetLeaseTest, RunLeaseRejectsBadRanges) {
  FleetSpec Spec = baseSpec();
  DifferentialHarness H(Spec.toHarnessOptions());
  const std::string Seed = testSeeds()[0];
  const uint64_t Budget = H.summarizeSeed(Seed).Budget.toUint64();

  CampaignResult Frag;
  std::string Err;
  EXPECT_FALSE(H.runLease(Seed, BigInt(2), BigInt(1),
                          Frag, Err));
  EXPECT_FALSE(H.runLease(Seed, BigInt(0),
                          BigInt(Budget + 1), Frag, Err));
}

TEST(FleetWorkerTest, InProcessProtocolLoop) {
  FleetSpec Spec = baseSpec();
  const std::string Seed = testSeeds()[0];

  std::ostringstream Script;
  Script << "spec " << linetext::escapeToken(Spec.serialize()) << '\n';
  Script << "seed 0 " << linetext::escapeToken(Seed) << '\n';
  Script << "lease 7 0 0 5\n";
  Script << "exit\n";

  std::istringstream In(Script.str());
  std::ostringstream Out;
  EXPECT_EQ(runFleetWorker(In, Out, FleetWorkerOptions()), 0);

  std::istringstream Replies(Out.str());
  std::string Line;
  ASSERT_TRUE(std::getline(Replies, Line));
  EXPECT_EQ(Line, "ready " + std::to_string(Spec.fingerprint()));
  ASSERT_TRUE(std::getline(Replies, Line));
  ASSERT_EQ(Line.rfind("done 7 ", 0), 0u);

  std::string FragText, Err;
  CampaignResult Frag;
  ASSERT_TRUE(linetext::unescapeToken(Line.substr(7), FragText));
  ASSERT_TRUE(parseFragment(FragText, Frag, Err)) << Err;
  EXPECT_EQ(Frag.VariantsEnumerated, 5u);
}

TEST(FleetWorkerTest, UnknownCommandIsFatal) {
  std::istringstream In("frobnicate now\n");
  std::ostringstream Out;
  EXPECT_EQ(runFleetWorker(In, Out, FleetWorkerOptions()), 2);
  EXPECT_EQ(Out.str().rfind("error ", 0), 0u);
}

//===--------------------------------------------------------------------===//
// Coordinator vs single-process bit-identity
//===--------------------------------------------------------------------===//

TEST(FleetCoordinatorTest, MatchesSingleProcessAcrossWorkersAndBatch) {
  TempDir T("identity");
  FleetSpec Spec = baseSpec();
  Spec.Triage = true;

  const std::string RefCk = T.path("ref.ck");
  const CampaignResult Ref = referenceRun(Spec, RefCk);
  const std::string RefBytes = readFile(RefCk);
  ASSERT_FALSE(RefBytes.empty());
  ASSERT_GT(Ref.UniqueBugs.size(), 0u);

  for (unsigned Workers : {1u, 2u, 4u}) {
    for (uint64_t Batch : {uint64_t(1), uint64_t(8)}) {
      FleetSpec S = Spec;
      S.BatchSize = Batch;
      FleetOptions O = baseFleet();
      O.Workers = Workers;
      O.LeaseRanks = 7; // Uneven tail leases on a 30-rank budget.
      const std::string Tag =
          "w" + std::to_string(Workers) + "b" + std::to_string(Batch);
      O.CheckpointPath = T.path(("fleet_" + Tag + ".ck").c_str());

      CampaignCoordinator C(S, O);
      CampaignResult Result;
      std::string Err;
      ASSERT_TRUE(C.run(testSeeds(), Result, Err)) << Tag << ": " << Err;
      EXPECT_TRUE(Result == Ref) << Tag;
      // BatchSize is excluded from the options fingerprint, so every
      // combination must reproduce the reference checkpoint bytes.
      EXPECT_EQ(readFile(O.CheckpointPath), RefBytes) << Tag;
      EXPECT_EQ(C.stats().LeasesRun, C.stats().LeasesTotal) << Tag;
      EXPECT_FALSE(C.stoppedByHook());
    }
  }
}

TEST(FleetSpecTest, CarriesTheOracleStepBudget) {
  FleetSpec Spec = baseSpec();
  Spec.OracleMaxSteps = 100'000;
  FleetSpec Back;
  std::string Err;
  ASSERT_TRUE(FleetSpec::parse(Spec.serialize(), Back, Err)) << Err;
  EXPECT_EQ(Back.OracleMaxSteps, 100'000u);
  EXPECT_EQ(Back.toHarnessOptions().OracleMaxSteps, 100'000u);
  EXPECT_NE(Spec.fingerprint(), baseSpec().fingerprint());
}

TEST(FleetCoordinatorTest, WorkersRunTheCampaignStepBudget) {
  // Retargeting the loop bound onto m gives a variant that ends after
  // about 240K interpreter steps: tested under the default 2M budget,
  // excluded as Timeout under 100K. Workers that ran the default would
  // test it and diverge from the single-process run.
  const std::string Seed = "int main(void) {\n"
                           "  int n = 3;\n"
                           "  int m = 20000;\n"
                           "  int i = 0;\n"
                           "  while (i < n)\n"
                           "    i = i + 1;\n"
                           "  return i;\n"
                           "}\n";
  const std::string Slow = "int main(void) {\n"
                           "  int n = 3;\n"
                           "  int m = 20000;\n"
                           "  int i = 0;\n"
                           "  while (i < m)\n"
                           "    i = i + 1;\n"
                           "  return i;\n"
                           "}\n";
  std::unique_ptr<ASTContext> SlowCtx = parseAndAnalyze(Slow);
  ASSERT_TRUE(SlowCtx);
  InterpOptions IO;
  EXPECT_EQ(interpret(*SlowCtx, IO).Status, ExecStatus::Ok);
  IO.MaxSteps = 100'000;
  EXPECT_EQ(interpret(*SlowCtx, IO).Status, ExecStatus::Timeout);

  FleetSpec Spec = baseSpec();
  Spec.VariantBudget = 100; // The seed's whole variant space.
  FleetSpec Generous = Spec;
  Spec.OracleMaxSteps = 100'000;
  const CampaignResult Ref =
      DifferentialHarness(Spec.toHarnessOptions()).runCampaign({Seed});
  const CampaignResult Wide =
      DifferentialHarness(Generous.toHarnessOptions()).runCampaign({Seed});
  ASSERT_GT(Ref.VariantsOracleExcluded, Wide.VariantsOracleExcluded)
      << "no variant of the seed ends between 100K and 2M steps";

  FleetOptions O = baseFleet();
  O.Workers = 2;
  O.LeaseRanks = 7;
  CampaignCoordinator C(Spec, O);
  CampaignResult Result;
  std::string Err;
  ASSERT_TRUE(C.run({Seed}, Result, Err)) << Err;
  EXPECT_TRUE(Result == Ref);
  EXPECT_EQ(Result.VariantsOracleExcluded, Ref.VariantsOracleExcluded);
  EXPECT_EQ(Result.VariantsTested, Ref.VariantsTested);
}

TEST(FleetCoordinatorTest, KilledWorkerIsReLeasedInvisibly) {
  TempDir T("kill");
  FleetSpec Spec = baseSpec();
  const CampaignResult Ref = referenceRun(Spec, T.path("ref.ck"));

  FleetOptions O = baseFleet();
  O.Workers = 1; // Every lease funnels through the slot that gets killed.
  O.LeaseRanks = 5;
  O.KillWorkerAtLease = 1;

  CampaignCoordinator C(Spec, O);
  CampaignResult Result;
  std::string Err;
  ASSERT_TRUE(C.run(testSeeds(), Result, Err)) << Err;
  EXPECT_TRUE(Result == Ref);
  EXPECT_GE(C.stats().WorkerDeaths, 1u);
  EXPECT_GE(C.stats().Releases, 1u);
  EXPECT_GE(C.stats().WorkersSpawned, 2u);
  EXPECT_EQ(C.stats().LeasesRun, C.stats().LeasesTotal);
}

TEST(FleetCoordinatorTest, PoisonLeaseExhaustsRespawnBudget) {
  TempDir T("poison");
  FleetSpec Spec = baseSpec();
  FleetOptions O = baseFleet();
  // A worker that dies instantly on every lease: the lease is poison, and
  // the coordinator must give up instead of respawning forever.
  O.WorkerCommand = {"/bin/sh", "-c", "read line; exit 9"};
  O.Workers = 1;
  O.MaxRespawns = 2;

  CampaignCoordinator C(Spec, O);
  CampaignResult Result;
  std::string Err;
  EXPECT_FALSE(C.run(testSeeds(), Result, Err));
  EXPECT_NE(Err.find("respawn"), std::string::npos) << Err;
}

TEST(FleetCoordinatorTest, UnstartableWorkerFailsLoudly) {
  FleetSpec Spec = baseSpec();
  FleetOptions O = baseFleet();
  O.WorkerCommand = {"/nonexistent/spe-no-such-worker"};

  CampaignCoordinator C(Spec, O);
  CampaignResult Result;
  std::string Err;
  EXPECT_FALSE(C.run(testSeeds(), Result, Err));
  EXPECT_NE(Err.find("cannot start worker"), std::string::npos) << Err;
}

//===--------------------------------------------------------------------===//
// Journal: coordinator crash-resume and skew rejection
//===--------------------------------------------------------------------===//

TEST(FleetJournalTest, StopAndResumeMatchesUninterruptedRun) {
  TempDir T("resume");
  FleetSpec Spec = baseSpec();
  Spec.Triage = true;
  const std::string RefCk = T.path("ref.ck");
  const CampaignResult Ref = referenceRun(Spec, RefCk);

  FleetOptions O = baseFleet();
  O.Workers = 2;
  O.LeaseRanks = 5;
  O.JournalPath = T.path("leases.journal");
  O.CheckpointPath = T.path("fleet.ck");

  // Phase 1: stop at a fragment boundary -- what a SIGKILLed coordinator
  // leaves behind is exactly this journal.
  {
    FleetOptions Stop = O;
    Stop.StopAfterFragments = 2;
    CampaignCoordinator C(Spec, Stop);
    CampaignResult Partial;
    std::string Err;
    ASSERT_TRUE(C.run(testSeeds(), Partial, Err)) << Err;
    EXPECT_TRUE(C.stoppedByHook());
    EXPECT_GE(C.stats().LeasesRun, 2u);
    EXPECT_LT(C.stats().LeasesRun, C.stats().LeasesTotal);
    EXPECT_FALSE(Partial == Ref);
  }

  // Phase 2: a fresh coordinator resumes the journal and finishes.
  {
    CampaignCoordinator C(Spec, O);
    CampaignResult Result;
    std::string Err;
    ASSERT_TRUE(C.run(testSeeds(), Result, Err)) << Err;
    EXPECT_FALSE(C.stoppedByHook());
    EXPECT_GE(C.stats().LeasesRestored, 2u);
    EXPECT_EQ(C.stats().LeasesRestored + C.stats().LeasesRun,
              C.stats().LeasesTotal);
    EXPECT_TRUE(Result == Ref);
    EXPECT_EQ(readFile(O.CheckpointPath), readFile(RefCk));
  }
}

TEST(FleetJournalTest, SkewedSpecOrSeedsIsRejected) {
  TempDir T("skew");
  FleetSpec Spec = baseSpec();
  FleetOptions O = baseFleet();
  O.JournalPath = T.path("leases.journal");
  O.StopAfterFragments = 1;

  {
    CampaignCoordinator C(Spec, O);
    CampaignResult R;
    std::string Err;
    ASSERT_TRUE(C.run(testSeeds(), R, Err)) << Err;
    ASSERT_TRUE(C.stoppedByHook());
  }
  O.StopAfterFragments = 0;

  // Different spec, same journal.
  {
    FleetSpec Skewed = Spec;
    Skewed.VariantBudget = 20;
    CampaignCoordinator C(Skewed, O);
    CampaignResult R;
    std::string Err;
    EXPECT_FALSE(C.run(testSeeds(), R, Err));
    EXPECT_NE(Err.find("journal"), std::string::npos) << Err;
  }

  // Different seed list, same journal.
  {
    CampaignCoordinator C(Spec, O);
    CampaignResult R;
    std::string Err;
    std::vector<std::string> Fewer = {testSeeds()[0]};
    EXPECT_FALSE(C.run(Fewer, R, Err));
    EXPECT_NE(Err.find("journal"), std::string::npos) << Err;
  }

  // Same campaign, journal bytes corrupted.
  {
    std::string Bytes = readFile(O.JournalPath);
    ASSERT_FALSE(Bytes.empty());
    Bytes[Bytes.size() / 2] ^= 1;
    std::ofstream(O.JournalPath, std::ios::binary) << Bytes;
    CampaignCoordinator C(Spec, O);
    CampaignResult R;
    std::string Err;
    EXPECT_FALSE(C.run(testSeeds(), R, Err));
    EXPECT_NE(Err.find("journal"), std::string::npos) << Err;
  }
}

//===--------------------------------------------------------------------===//
// Fleet status aggregation
//===--------------------------------------------------------------------===//

TEST(FleetStatusTest, AggregatedDocumentCoversWorkersAndCounters) {
  TempDir T("status");
  FleetSpec Spec = baseSpec();
  FleetOptions O = baseFleet();
  O.Workers = 2;
  O.FleetStatusPath = T.path("fleet.status.json");
  O.WorkerStatusDir = T.Dir;
  O.StatusEveryMs = 25;

  CampaignCoordinator C(Spec, O);
  CampaignResult Result;
  std::string Err;
  ASSERT_TRUE(C.run(testSeeds(), Result, Err)) << Err;

  const std::string Doc = readFile(O.FleetStatusPath);
  ASSERT_FALSE(Doc.empty());
  EXPECT_NE(Doc.find("\"state\":\"complete\""), std::string::npos) << Doc;
  EXPECT_NE(Doc.find("\"leases\":{\"total\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"workers\":[{\"id\":0"), std::string::npos);
  EXPECT_NE(Doc.find("\"counters\":{\"enumerated\":"), std::string::npos);
  EXPECT_NE(Doc.find("\"write_failures\":"), std::string::npos);
  // Each worker maintained its own heartbeat, and the final fleet
  // document embeds the per-worker documents verbatim.
  EXPECT_FALSE(readFile(T.path("worker0.status.json")).empty());
  EXPECT_NE(Doc.find("\"status\":{"), std::string::npos) << Doc;
}

} // namespace
