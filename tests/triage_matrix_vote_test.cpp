//===- tests/triage_matrix_vote_test.cpp - matrix attribution ------------===//
//
// Majority-vs-outlier voting for the N-way differential matrix
// (triage/MatrixVote.h, DESIGN.md Section 14), pinned at two levels:
// voteMatrixCell's rules directly (tie handling, strict-majority outvote,
// trap/hang exclusion, and the full-width 256+k vs low-8 k regression),
// and end to end through campaigns whose rosters contain scripted
// wrong-code backends -- behavior-skewing wrappers around the clean
// in-process compiler -- checking that findings name the bad backend, that
// 1-vs-1 splits fall back to the reference oracle, and that the same
// divergence reached through several sweep inputs dedups to one signature
// cluster.
//
//===----------------------------------------------------------------------===//

#include "testing/Harness.h"
#include "triage/Deduper.h"
#include "triage/MatrixVote.h"

#include "gtest/gtest.h"

#include <set>

using namespace spe;

namespace {

BackendObservation okExit(int64_t Exit, bool Low8 = false,
                          std::string Output = "") {
  BackendObservation O;
  O.Compile = BackendObservation::CompileStatus::Ok;
  O.Exec = BackendObservation::ExecStatus::Ok;
  O.ExitCode = Exit;
  O.ExitCodeLow8 = Low8;
  O.Output = std::move(Output);
  return O;
}

BackendObservation trapped() {
  BackendObservation O;
  O.Compile = BackendObservation::CompileStatus::Ok;
  O.Exec = BackendObservation::ExecStatus::Trap;
  return O;
}

MatrixVote vote(int64_t OracleExit,
                const std::vector<const BackendObservation *> &Obs) {
  return voteMatrixCell(OracleExit, "", Obs);
}

} // namespace

//===----------------------------------------------------------------------===//
// voteMatrixCell rules
//===----------------------------------------------------------------------===//

TEST(MatrixVoteTest, FullWidth256PlusKDoesNotCollideWithExitK) {
  // Regression: a full-width exit of 256+k must stay distinct from exit k.
  // Masking every exit to its low 8 bits -- the obvious shortcut, and what
  // POSIX wait() does to genuine subprocess exits -- would alias them and
  // silently hide the divergence class external compilers report via
  // _exit(), so masking is per-observation: only when the observation
  // itself says just the low 8 bits survived.
  EXPECT_FALSE(behaviorKey(okExit(259, false)) == behaviorKey(okExit(3)));
  // An exit that *did* pass through a wait status masks, and aliases.
  EXPECT_TRUE(behaviorKey(okExit(259, true)) == behaviorKey(okExit(3)));

  BackendObservation Full = okExit(259, false);
  MatrixVote V = vote(3, {&Full});
  EXPECT_FALSE(V.OracleOutvoted);
  ASSERT_EQ(V.Outliers.size(), 1u);
  EXPECT_NE(V.Outliers[0].find("exit"), std::string::npos)
      << "full-width 259 vs oracle 3 must be a divergence, got clean";

  BackendObservation Masked = okExit(259, true);
  V = vote(3, {&Masked});
  EXPECT_FALSE(V.OracleOutvoted);
  ASSERT_EQ(V.Outliers.size(), 1u);
  EXPECT_TRUE(V.Outliers[0].empty())
      << "a low-8 backend must not be blamed for bits it never saw";
}

TEST(MatrixVoteTest, OneVsOneTieFallsBackToTheOracle) {
  BackendObservation A = okExit(1), B = okExit(2);
  MatrixVote V = vote(0, {&A, &B});
  EXPECT_FALSE(V.OracleOutvoted);
  EXPECT_EQ(V.ConsensusExit, 0);
  ASSERT_EQ(V.Outliers.size(), 2u);
  EXPECT_FALSE(V.Outliers[0].empty());
  EXPECT_FALSE(V.Outliers[1].empty());
}

TEST(MatrixVoteTest, EqualWeightGroupsNeverOutvoteTheOracle) {
  // Two against two (and the oracle alone): no uniquely heaviest group,
  // so the oracle's behavior stays the consensus and all four are named.
  BackendObservation A = okExit(7), B = okExit(7), C = okExit(9),
                     D = okExit(9);
  MatrixVote V = vote(0, {&A, &B, &C, &D});
  EXPECT_FALSE(V.OracleOutvoted);
  for (const std::string &O : V.Outliers)
    EXPECT_FALSE(O.empty());
}

TEST(MatrixVoteTest, StrictMajorityOutvotesTheOracle) {
  BackendObservation A = okExit(7), B = okExit(7), C = okExit(7);
  MatrixVote V = vote(0, {&A, &B, &C});
  EXPECT_TRUE(V.OracleOutvoted);
  EXPECT_EQ(V.ConsensusExit, 7);
  EXPECT_FALSE(V.OracleSignature.empty());
  for (const std::string &O : V.Outliers)
    EXPECT_TRUE(O.empty()) << "consensus members must not be named";
}

TEST(MatrixVoteTest, AgreeingBackendsReinforceTheOracle) {
  // One backend matching the oracle raises the bar: a would-be majority of
  // two must now beat oracle weight two, and cannot.
  BackendObservation Good = okExit(0), Bad1 = okExit(7), Bad2 = okExit(7);
  MatrixVote V = vote(0, {&Good, &Bad1, &Bad2});
  EXPECT_FALSE(V.OracleOutvoted);
  EXPECT_TRUE(V.Outliers[0].empty());
  EXPECT_FALSE(V.Outliers[1].empty());
  EXPECT_FALSE(V.Outliers[2].empty());
}

TEST(MatrixVoteTest, TrapsAndHangsNeverFormConsensus) {
  // Even a unanimous roster of traps cannot outvote the oracle: a trap is
  // a divergence by definition, not a candidate behavior.
  BackendObservation A = trapped(), B = trapped(), C = trapped();
  MatrixVote V = vote(0, {&A, &B, &C});
  EXPECT_FALSE(V.OracleOutvoted);
  for (const std::string &O : V.Outliers)
    EXPECT_NE(O.find("trap"), std::string::npos);
}

TEST(MatrixVoteTest, AbstainersAreSkipped) {
  // Null entries (cell excluded) and not-run observations (compile failed)
  // neither vote nor get named.
  BackendObservation NotRun;
  NotRun.Compile = BackendObservation::CompileStatus::Crashed;
  BackendObservation Bad = okExit(5);
  MatrixVote V = vote(0, {nullptr, &NotRun, &Bad});
  EXPECT_FALSE(V.OracleOutvoted);
  ASSERT_EQ(V.Outliers.size(), 3u);
  EXPECT_TRUE(V.Outliers[0].empty());
  EXPECT_TRUE(V.Outliers[1].empty());
  EXPECT_FALSE(V.Outliers[2].empty());
}

TEST(MatrixVoteTest, OneBackendVoteIsTheClassicComparison) {
  // A classic campaign records through the matrix recorder with a roster of
  // one, so a one-backend vote must name exactly the divergence
  // classifyDivergence reports for every observation shape, and a lone
  // backend can never outvote the oracle.
  auto WithExec = [](BackendObservation::ExecStatus E) {
    BackendObservation O;
    O.Compile = BackendObservation::CompileStatus::Ok;
    O.Exec = E;
    return O;
  };
  auto WithCompile = [](BackendObservation::CompileStatus C) {
    BackendObservation O;
    O.Compile = C;
    return O;
  };
  struct Case {
    const char *Name;
    BackendObservation Obs;
    int64_t OracleExit;
    std::string OracleOutput;
  };
  const Case Cases[] = {
      {"agree", okExit(3, false, "x"), 3, "x"},
      {"full-width exit mismatch", okExit(259), 3, ""},
      {"low-8 256+k vs k", okExit(259, true), 3, ""},
      {"low-8 exit mismatch", okExit(4, true), 3, ""},
      {"low-8 vs full-width oracle", okExit(3, true), 259, ""},
      {"output mismatch", okExit(0, false, "a"), 0, "b"},
      {"trap", trapped(), 0, ""},
      {"hang", WithExec(BackendObservation::ExecStatus::Timeout), 0, ""},
      {"not run", WithExec(BackendObservation::ExecStatus::NotRun), 0, ""},
      {"compile rejected",
       WithCompile(BackendObservation::CompileStatus::Rejected), 0, ""},
      {"compile crashed",
       WithCompile(BackendObservation::CompileStatus::Crashed), 0, ""},
      {"compile timed out",
       WithCompile(BackendObservation::CompileStatus::TimedOut), 0, ""},
  };
  for (const Case &C : Cases) {
    MatrixVote V = voteMatrixCell(C.OracleExit, C.OracleOutput, {&C.Obs});
    EXPECT_FALSE(V.OracleOutvoted) << C.Name;
    ASSERT_EQ(V.Outliers.size(), 1u) << C.Name;
    EXPECT_EQ(V.Outliers[0],
              classifyDivergence(C.Obs, C.OracleExit, C.OracleOutput))
        << C.Name;
  }
}

//===----------------------------------------------------------------------===//
// End to end: scripted wrong-code backends in a matrix campaign
//===----------------------------------------------------------------------===//

namespace {

/// A wrong-code compiler double: the clean in-process compiler with every
/// successful execution's exit code skewed by a constant. Deterministic on
/// the source text, so triage reduction re-probes keep reproducing the
/// divergence; no ground truth, so its findings flow signature-only.
struct SkewBackend : CompilerBackend {
  InProcessBackend Inner{/*InjectBugs=*/false};
  std::string Name;
  int64_t Delta;
  explicit SkewBackend(std::string Name, int64_t Delta = 1)
      : Name(std::move(Name)), Delta(Delta) {}
  std::string identity() const override { return Name; }
  bool hasGroundTruth() const override { return false; }
  BackendObservation run(const std::string &S, const CompilerConfig &C,
                         CoverageRegistry *Cov) const override {
    return runWithInput(S, C, "", Cov);
  }
  BackendObservation runWithInput(const std::string &S,
                                  const CompilerConfig &C,
                                  const std::string &In,
                                  CoverageRegistry *Cov) const override {
    BackendObservation O = Inner.runWithInput(S, C, In, Cov);
    if (O.Exec == BackendObservation::ExecStatus::Ok)
      O.ExitCode += Delta;
    return O;
  }
};

/// A faithful clone of the clean in-process compiler under its own name.
struct CleanBackend : CompilerBackend {
  InProcessBackend Inner{/*InjectBugs=*/false};
  std::string Name;
  explicit CleanBackend(std::string Name) : Name(std::move(Name)) {}
  std::string identity() const override { return Name; }
  bool hasGroundTruth() const override { return false; }
  BackendObservation run(const std::string &S, const CompilerConfig &C,
                         CoverageRegistry *Cov) const override {
    return Inner.runWithInput(S, C, "", Cov);
  }
  BackendObservation runWithInput(const std::string &S,
                                  const CompilerConfig &C,
                                  const std::string &In,
                                  CoverageRegistry *Cov) const override {
    return Inner.runWithInput(S, C, In, Cov);
  }
};

/// One seed whose variants read the sweep, so per-input cells differ.
std::vector<std::string> voteSeeds() {
  return {"int main(void) {\n"
          "  int a = spe_input();\n"
          "  int b = 3, c = 1;\n"
          "  c = c - b;\n"
          "  if (a > c)\n"
          "    c = a - c;\n"
          "  return c + b;\n"
          "}\n"};
}

HarnessOptions voteOptions() {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  for (CompilerConfig &Config : Opts.Configs)
    Config.ExecSweep = {"1\n", "7\n", "42\n"};
  Opts.VariantBudget = 12;
  Opts.InjectBugs = false; // Clean primary: only scripted divergences.
  return Opts;
}

} // namespace

TEST(MatrixVoteCampaignTest, OutlierAttributionNamesTheBadBackend) {
  // Roster: clean primary (minicc), clean clone, one exit-skewing double.
  // Every finding must name the double -- never the agreeing majority.
  CleanBackend Good("minicc-good");
  SkewBackend Bad("minicc-skew+1", 1);
  HarnessOptions Opts = voteOptions();
  Opts.ExtraBackends = {&Good, &Bad};
  CampaignResult Result =
      DifferentialHarness(Opts).runCampaign(voteSeeds());
  ASSERT_FALSE(Result.RawFindings.empty());
  EXPECT_TRUE(Result.UniqueBugs.empty()); // Signature-only findings.
  for (const auto &KV : Result.RawFindings) {
    EXPECT_EQ(KV.second.Backend, "minicc-skew+1") << KV.second.Signature;
    EXPECT_EQ(KV.first.BackendIdx, 2u); // Roster slot of the double.
    EXPECT_EQ(KV.second.Effect, BugEffect::WrongCode);
  }
}

TEST(MatrixVoteCampaignTest, OneVsOneCampaignTieFallsBackToTheOracle) {
  // Primary and the one extra backend disagree with the oracle *and* each
  // other: no majority exists, the oracle's verdict stands, and both
  // backends are reported -- neither is "reference-oracle".
  SkewBackend BadA("minicc-skew+1", 1), BadB("minicc-skew+2", 2);
  HarnessOptions Opts = voteOptions();
  Opts.Backend = &BadA;
  Opts.ExtraBackends = {&BadB};
  CampaignResult Result =
      DifferentialHarness(Opts).runCampaign(voteSeeds());
  ASSERT_FALSE(Result.RawFindings.empty());
  std::set<std::string> Named;
  for (const auto &KV : Result.RawFindings)
    Named.insert(KV.second.Backend);
  EXPECT_EQ(Named,
            (std::set<std::string>{"minicc-skew+1", "minicc-skew+2"}));
}

TEST(MatrixVoteCampaignTest, UnanimousBackendMajorityOutvotesTheOracle) {
  // All three roster backends share the same skew: a strict majority
  // against the reference interpreter. The finding is attributed to
  // "reference-oracle" at roster-size slot -- the backends agree, so under
  // majority rule the *oracle* is the outlier.
  SkewBackend BadA("minicc-skew-a", 1), BadB("minicc-skew-b", 1),
      BadC("minicc-skew-c", 1);
  HarnessOptions Opts = voteOptions();
  Opts.Backend = &BadA;
  Opts.ExtraBackends = {&BadB, &BadC};
  CampaignResult Result =
      DifferentialHarness(Opts).runCampaign(voteSeeds());
  ASSERT_FALSE(Result.RawFindings.empty());
  for (const auto &KV : Result.RawFindings) {
    EXPECT_EQ(KV.second.Backend, "reference-oracle");
    EXPECT_EQ(KV.first.BackendIdx, 3u); // One past the last roster slot.
  }
}

TEST(MatrixVoteCampaignTest, SweepInputsDedupToOneSignatureCluster) {
  // The skewed backend diverges under every sweep input, producing raw
  // findings at several InputIdx values -- but the input is witness
  // metadata, not identity: signature triage must collapse them into ONE
  // cluster (per backend), not one per input.
  CleanBackend Good("minicc-good");
  SkewBackend Bad("minicc-skew+1", 1);
  HarnessOptions Opts = voteOptions();
  Opts.ExtraBackends = {&Good, &Bad};
  CampaignResult Result =
      DifferentialHarness(Opts).runCampaign(voteSeeds());

  std::set<unsigned> InputSlots;
  for (const auto &KV : Result.RawFindings)
    InputSlots.insert(KV.first.InputIdx);
  ASSERT_GT(InputSlots.size(), 1u)
      << "the sweep produced findings under only one input; the dedup "
         "claim below would be vacuous";

  std::vector<TriagedBug> Clusters = clusterBySignature(Result.RawFindings);
  ASSERT_EQ(Clusters.size(), 1u);
  EXPECT_EQ(Clusters[0].Sig.Backend, "minicc-skew+1");
  EXPECT_GT(Clusters[0].RawCount, 1u);
  // The cluster's signature renders with its backend attribution.
  EXPECT_NE(Clusters[0].Sig.str().find("@minicc-skew+1"),
            std::string::npos);
}

TEST(MatrixVoteCampaignTest, FullWidthExitSkewIsCaughtEndToEnd) {
  // The 256+k regression at campaign level: a backend whose exits are
  // shifted by exactly 256 diverges in bits a low-8 mask would erase.
  // The matrix must still catch and attribute it.
  CleanBackend Good("minicc-good");
  SkewBackend Bad("minicc-skew+256", 256);
  HarnessOptions Opts = voteOptions();
  Opts.ExtraBackends = {&Good, &Bad};
  CampaignResult Result =
      DifferentialHarness(Opts).runCampaign(voteSeeds());
  ASSERT_FALSE(Result.RawFindings.empty());
  for (const auto &KV : Result.RawFindings)
    EXPECT_EQ(KV.second.Backend, "minicc-skew+256");
}
