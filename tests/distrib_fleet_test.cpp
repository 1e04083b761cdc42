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
#include <iterator>
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

CampaignSpec baseSpec() {
  CampaignSpec Spec;
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
CampaignResult referenceRun(const CampaignSpec &Spec,
                            const std::string &CkPath) {
  HarnessOptions HO(Spec);
  HO.CheckpointPath = CkPath;
  return DifferentialHarness(HO).runCampaign(testSeeds());
}

//===--------------------------------------------------------------------===//
// Wire format units
//===--------------------------------------------------------------------===//

/// baseSpec() with batching, triage, a lowered step budget and a two-input
/// sweep, and its document. The lease journal embeds the document's
/// fingerprint, so these bytes are SPE-FLEET-SPEC v1 itself: a change
/// orphans every journal written before it.
CampaignSpec goldenSpec() {
  CampaignSpec Spec = baseSpec();
  Spec.BatchSize = 8;
  Spec.Triage = true;
  Spec.OracleMaxSteps = 100'000;
  Spec.Configs[0].ExecSweep = {"", "7 11"};
  return Spec;
}

const char GoldenSpecDoc[] = "SPE-FLEET-SPEC v1\n"
                             "opts 0 0 0 10000 30 2 8 1 1 1 100000\n"
                             "configs 4\n"
                             "config 0 48 0 1 2\n"
                             "sweep \\e\n"
                             "sweep 7\\s11\n"
                             "config 0 48 0 0 0\n"
                             "config 0 48 3 1 0\n"
                             "config 0 48 3 0 0\n";

TEST(SpecDocumentTest, SerializeParseRoundTripsTheGoldenBytes) {
  EXPECT_EQ(serializeSpec(goldenSpec()), GoldenSpecDoc);
  EXPECT_EQ(fingerprintSpec(goldenSpec()), 12730857840330681585ull);
  CampaignSpec Back;
  std::string Err;
  ASSERT_TRUE(parseSpec(GoldenSpecDoc, Back, Err)) << Err;
  EXPECT_EQ(serializeSpec(Back), GoldenSpecDoc);
}

using DocLines = std::vector<std::vector<std::string>>;

DocLines splitDoc(const std::string &Doc) {
  DocLines Lines;
  std::istringstream In(Doc);
  for (std::string Line; std::getline(In, Line);) {
    std::istringstream Tokens(Line);
    Lines.emplace_back(std::istream_iterator<std::string>(Tokens),
                       std::istream_iterator<std::string>());
  }
  return Lines;
}

/// The first \p N lines of \p Lines as a document.
std::string joinDoc(const DocLines &Lines, size_t N) {
  std::string Doc;
  for (size_t L = 0; L < N; ++L) {
    for (size_t T = 0; T < Lines[L].size(); ++T)
      Doc += (T ? " " : "") + Lines[L][T];
    Doc += '\n';
  }
  return Doc;
}

TEST(SpecDocumentTest, ParseRejectsDamage) {
  const std::string Doc = serializeSpec(goldenSpec());
  const DocLines Lines = splitDoc(Doc);
  ASSERT_EQ(joinDoc(Lines, Lines.size()), Doc);
  CampaignSpec Back;
  std::string Err;
  auto Parses = [&](const std::string &Text) {
    return parseSpec(Text, Back, Err);
  };
  ASSERT_TRUE(Parses(Doc)) << Err;

  EXPECT_FALSE(Parses("SPE-JUNK v9\n"));
  EXPECT_FALSE(Parses(Doc + "extra line\n"));

  // Every line-prefix truncation.
  for (size_t N = 0; N < Lines.size(); ++N)
    EXPECT_FALSE(Parses(joinDoc(Lines, N))) << N << " lines";

  // Every opts and config token replaced by a non-number.
  for (size_t L = 0; L < Lines.size(); ++L) {
    if (Lines[L][0] != "opts" && Lines[L][0] != "config")
      continue;
    for (size_t T = 1; T < Lines[L].size(); ++T) {
      DocLines Bad = Lines;
      Bad[L][T] = "x";
      EXPECT_FALSE(Parses(joinDoc(Bad, Bad.size())))
          << "line " << L << " token " << T;
    }
  }

  // Each enum, bool and unsigned token one past its range, and at its
  // largest valid value (so the range, not the syntax, is what refuses).
  struct RangeEdit {
    size_t Line, Token;
    const char *Bad, *Good;
  };
  const RangeEdit Edits[] = {
      {1, 1, "2", "1"},                    // Mode
      {1, 2, "2", "1"},                    // Extract.Gran
      {1, 3, "3", "2"},                    // Extract.Model
      {1, 6, "4294967296", "4294967295"},  // Threads
      {1, 8, "2", "0"},                    // InjectBugs
      {1, 9, "2", "0"},                    // PruneInvalid
      {1, 10, "2", "0"},                   // Triage
      {3, 1, "2", "1"},                    // Configs.P
      {3, 2, "4294967296", "4294967295"},  // Configs.Version
      {3, 4, "2", "0"},                    // Configs.Mode64
  };
  for (const RangeEdit &E : Edits) {
    DocLines Edited = Lines;
    Edited[E.Line][E.Token] = E.Bad;
    EXPECT_FALSE(Parses(joinDoc(Edited, Edited.size())))
        << "line " << E.Line << " token " << E.Token << " = " << E.Bad;
    Edited[E.Line][E.Token] = E.Good;
    EXPECT_TRUE(Parses(joinDoc(Edited, Edited.size())))
        << "line " << E.Line << " token " << E.Token << " = " << E.Good
        << ": " << Err;
  }

  // An opts line one token short, and one token long.
  DocLines Short = Lines;
  Short[1].pop_back();
  EXPECT_FALSE(Parses(joinDoc(Short, Short.size())));
  DocLines Long = Lines;
  Long[1].push_back("0");
  EXPECT_FALSE(Parses(joinDoc(Long, Long.size())));
}

TEST(FleetFragmentTest, RoundTripAndChecksumRejection) {
  // A real result with findings, so both maps round-trip.
  CampaignSpec Spec = baseSpec();
  CampaignResult R =
      DifferentialHarness(HarnessOptions(Spec)).runCampaign(testSeeds());
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
  CampaignSpec Spec = baseSpec();
  DifferentialHarness H{HarnessOptions(Spec)};
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
  CampaignSpec Spec = baseSpec();
  DifferentialHarness H{HarnessOptions(Spec)};
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
  CampaignSpec Spec = baseSpec();
  const std::string Seed = testSeeds()[0];

  std::ostringstream Script;
  Script << "spec " << linetext::escapeToken(serializeSpec(Spec)) << '\n';
  Script << "seed 0 " << linetext::escapeToken(Seed) << '\n';
  Script << "lease 7 0 0 5\n";
  Script << "exit\n";

  std::istringstream In(Script.str());
  std::ostringstream Out;
  EXPECT_EQ(runFleetWorker(In, Out, FleetWorkerOptions()), 0);

  std::istringstream Replies(Out.str());
  std::string Line;
  ASSERT_TRUE(std::getline(Replies, Line));
  EXPECT_EQ(Line, "ready " + std::to_string(fingerprintSpec(Spec)));
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
  CampaignSpec Spec = baseSpec();
  Spec.Triage = true;

  const std::string RefCk = T.path("ref.ck");
  const CampaignResult Ref = referenceRun(Spec, RefCk);
  const std::string RefBytes = readFile(RefCk);
  ASSERT_FALSE(RefBytes.empty());
  ASSERT_GT(Ref.UniqueBugs.size(), 0u);

  for (unsigned Workers : {1u, 2u, 4u}) {
    for (uint64_t Batch : {uint64_t(1), uint64_t(8)}) {
      CampaignSpec S = Spec;
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

TEST(SpecDocumentTest, CarriesTheOracleStepBudget) {
  CampaignSpec Spec = baseSpec();
  Spec.OracleMaxSteps = 100'000;
  CampaignSpec Back;
  std::string Err;
  ASSERT_TRUE(parseSpec(serializeSpec(Spec), Back, Err)) << Err;
  EXPECT_EQ(Back.OracleMaxSteps, 100'000u);
  EXPECT_EQ(HarnessOptions(Back).OracleMaxSteps, 100'000u);
  EXPECT_NE(fingerprintSpec(Spec), fingerprintSpec(baseSpec()));
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

  CampaignSpec Spec = baseSpec();
  Spec.VariantBudget = 100; // The seed's whole variant space.
  CampaignSpec Generous = Spec;
  Spec.OracleMaxSteps = 100'000;
  const CampaignResult Ref =
      DifferentialHarness(HarnessOptions(Spec)).runCampaign({Seed});
  const CampaignResult Wide =
      DifferentialHarness(HarnessOptions(Generous)).runCampaign({Seed});
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
  CampaignSpec Spec = baseSpec();
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
  CampaignSpec Spec = baseSpec();
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
  CampaignSpec Spec = baseSpec();
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
  CampaignSpec Spec = baseSpec();
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
  CampaignSpec Spec = baseSpec();
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
    CampaignSpec Skewed = Spec;
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
  CampaignSpec Spec = baseSpec();
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
