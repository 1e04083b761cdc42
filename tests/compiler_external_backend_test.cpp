//===- tests/compiler_external_backend_test.cpp - subprocess backends ----===//
//
// The real-compiler driving stack, bottom up: support/ProcessRunner
// (spawn, capture, timeout-kill, exit/signal decoding), the
// ExternalBackend classification of compile outcomes, signature-only
// finding semantics for backends without ground truth (including the
// out-of-bounds regression for foreign FiredBugs ids), and an end-to-end
// campaign against the host compiler: deterministic across thread counts,
// checkpoint/resume bit-identical, and resume against a different backend
// command line rejected by fingerprint. Host-compiler tests auto-skip with
// a reported reason when no working `cc` is on PATH.
//
//===----------------------------------------------------------------------===//

#include "compiler/ExternalBackend.h"
#include "persist/Checkpoint.h"
#include "support/ProcessPool.h"
#include "support/ProcessRunner.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "triage/Deduper.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

using namespace spe;

namespace {

std::string tempPath(const std::string &Name) {
  std::filesystem::create_directories("external_test_tmp");
  return "external_test_tmp/" + Name;
}

/// The host compiler, probed once; tests that need it skip with the probe's
/// reason when it is unusable.
const ExternalBackend &hostBackend() {
  static ExternalBackend *B = [] {
    ExternalBackendOptions O;
    O.TempDir = "external_test_tmp";
    std::filesystem::create_directories(O.TempDir);
    return new ExternalBackend(std::move(O));
  }();
  return *B;
}

#define SKIP_WITHOUT_HOST_CC()                                              \
  do {                                                                      \
    if (!hostBackend().available())                                         \
      GTEST_SKIP() << "no usable host compiler: "                           \
                   << hostBackend().unavailableReason();                    \
  } while (0)

} // namespace

//===----------------------------------------------------------------------===//
// ProcessRunner
//===----------------------------------------------------------------------===//

TEST(ProcessRunnerTest, CapturesExitCodeAndBothStreams) {
  ProcessResult R = runProcess(
      {"/bin/sh", "-c", "printf out; printf err >&2; exit 7"});
  ASSERT_EQ(R.St, ProcessResult::Status::Exited) << R.Error;
  EXPECT_EQ(R.ExitCode, 7);
  EXPECT_EQ(R.Stdout, "out");
  EXPECT_EQ(R.Stderr, "err");
}

TEST(ProcessRunnerTest, DecodesDeathBySignal) {
  ProcessResult R = runProcess({"/bin/sh", "-c", "kill -SEGV $$"});
  ASSERT_EQ(R.St, ProcessResult::Status::Signaled) << R.Error;
  EXPECT_EQ(R.Signal, SIGSEGV);
}

TEST(ProcessRunnerTest, WallClockTimeoutKillsTheChild) {
  ProcessOptions O;
  O.TimeoutMs = 250;
  ProcessResult R = runProcess({"/bin/sh", "-c", "sleep 30"}, O);
  EXPECT_EQ(R.St, ProcessResult::Status::TimedOut);
}

TEST(ProcessRunnerTest, TimeoutStillDrainsOutputWrittenBeforeTheKill) {
  ProcessOptions O;
  O.TimeoutMs = 250;
  ProcessResult R =
      runProcess({"/bin/sh", "-c", "printf early; sleep 30"}, O);
  EXPECT_EQ(R.St, ProcessResult::Status::TimedOut);
  EXPECT_EQ(R.Stdout, "early");
}

TEST(ProcessRunnerTest, MissingBinaryIsStartFailedNotAnExitCode) {
  ProcessResult R = runProcess({"spe-no-such-binary-exists"});
  ASSERT_EQ(R.St, ProcessResult::Status::StartFailed);
  EXPECT_NE(R.Error.find("spe-no-such-binary-exists"), std::string::npos);
}

TEST(ProcessRunnerTest, OutputCapIsEnforcedWithoutDeadlock) {
  // Far more output than both the cap and the pipe buffer: the runner must
  // keep draining (or the child would block forever on a full pipe) while
  // retaining only the first MaxOutputBytes.
  ProcessOptions O;
  O.MaxOutputBytes = 1024;
  ProcessResult R = runProcess(
      {"/bin/sh", "-c", "i=0; while [ $i -lt 20000 ]; do echo aaaaaaaaaa; "
                        "i=$((i+1)); done"},
      O);
  ASSERT_EQ(R.St, ProcessResult::Status::Exited) << R.Error;
  EXPECT_EQ(R.Stdout.size(), 1024u);
}

//===----------------------------------------------------------------------===//
// Divergence classification (shared harness / repro-oracle definition)
//===----------------------------------------------------------------------===//

TEST(ClassifyDivergenceTest, CoversEveryKindAndMasksWaitStatusExits) {
  BackendObservation O;
  O.Exec = BackendObservation::ExecStatus::Timeout;
  EXPECT_EQ(classifyDivergence(O, 0, ""), "miscompilation (hang)");
  O.Exec = BackendObservation::ExecStatus::Trap;
  EXPECT_EQ(classifyDivergence(O, 0, ""), "miscompilation (trap)");

  O.Exec = BackendObservation::ExecStatus::Ok;
  O.ExitCode = 3;
  EXPECT_EQ(classifyDivergence(O, 7, ""), "miscompilation (exit 3 != 7)");
  O.ExitCode = 7;
  O.Output = "x";
  EXPECT_EQ(classifyDivergence(O, 7, "y"), "miscompilation (output)");
  EXPECT_EQ(classifyDivergence(O, 7, "x"), "");

  // A wait status keeps only the low 8 bits of main's return value: 300
  // truly came back as 44, which must not read as a divergence...
  O.ExitCodeLow8 = true;
  O.ExitCode = 44;
  O.Output = "";
  EXPECT_EQ(classifyDivergence(O, 300, ""), "");
  // ...while a genuine mismatch still must.
  EXPECT_EQ(classifyDivergence(O, 301, ""), "miscompilation (exit 44 != 45)");
}

//===----------------------------------------------------------------------===//
// Crash-signature extraction
//===----------------------------------------------------------------------===//

TEST(ExternalBackendTest, ExtractsAndNormalizesCrashMarkers) {
  // The variant-specific scratch-file prefix must be stripped so two
  // variants crashing in the same pass share one signature.
  EXPECT_EQ(ExternalBackend::extractCrashSignature(
                "/tmp/spe-ext-11-3.c:4:9: internal compiler error: in "
                "fold_binary, at fold-const.c:1234\ncompilation terminated.\n",
                "fallback"),
            "internal compiler error: in fold_binary, at fold-const.c:1234");
  // Clang-style assertion lines keep their stable prefix.
  EXPECT_EQ(ExternalBackend::extractCrashSignature(
                "clang: Assertion `N < size()' failed.\n", "fallback"),
            "clang: Assertion `N < size()' failed.");
  // Plain diagnostics are not crashes.
  EXPECT_EQ(ExternalBackend::extractCrashSignature(
                "x.c:1:1: error: unknown type name 'frob'\n", "fallback"),
            "fallback");
}

//===----------------------------------------------------------------------===//
// Signature-only finding semantics (no ground truth)
//===----------------------------------------------------------------------===//

namespace {

/// Scriptable backend: returns a fixed observation, optionally claiming
/// ground truth with arbitrary FiredBugs ids.
struct StubBackend : CompilerBackend {
  BackendObservation Obs;
  bool GroundTruth = false;
  std::string Id = "stub";

  std::string identity() const override { return Id; }
  bool hasGroundTruth() const override { return GroundTruth; }
  BackendObservation run(const std::string &, const CompilerConfig &,
                         CoverageRegistry *) const override {
    return Obs;
  }
};

/// Oracle-clean 1-variant program for driving testProgram.
const char *TrivialSeed = "int main(void) { return 5; }\n";

} // namespace

TEST(SignatureOnlyTest, ForeignFiredBugsIdsCannotReadOutOfBounds) {
  // Regression: the harness indexed bugDatabase()[Id - 1] unchecked on the
  // assumption that fired ids are dense 1..N. A backend reporting foreign
  // (or absent) ids -- exactly what external backends do -- walked off the
  // array. With the checked lookup the ids are simply unattributable and
  // dropped.
  StubBackend B;
  B.GroundTruth = true;
  B.Obs.Compile = BackendObservation::CompileStatus::Ok;
  B.Obs.CompileTimeAnomaly = true;
  B.Obs.FiredBugs = {999'999, -7, 0};
  B.Obs.Exec = BackendObservation::ExecStatus::Ok;
  B.Obs.ExitCode = 1; // Diverges from the oracle's 5.

  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 70, 2, true, {}}};
  Opts.Backend = &B;
  DifferentialHarness Harness(Opts);
  CampaignResult R;
  Harness.testProgram(TrivialSeed, R);

  EXPECT_EQ(R.PerformanceObservations, 1u);
  EXPECT_EQ(R.WrongCodeObservations, 1u);
  EXPECT_TRUE(R.UniqueBugs.empty());
  EXPECT_TRUE(R.RawFindings.empty());
}

TEST(SignatureOnlyTest, FindingsKeyByNormalizedSignatureAtIdZero) {
  StubBackend B; // No ground truth: the external-backend shape.
  B.Obs.Compile = BackendObservation::CompileStatus::Crashed;
  B.Obs.CrashSignature = "internal compiler error: in reload, at reload.c:1";

  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 140, 0, true, {}},
                  {Persona::GccSim, 140, 2, true, {}}};
  Opts.Backend = &B;
  DifferentialHarness Harness(Opts);
  CampaignResult R;
  Harness.testProgram(TrivialSeed, R);

  // One finding per configuration, both at BugId 0, keyed by signature;
  // UniqueBugs (a by-ground-truth-id report) stays empty.
  EXPECT_EQ(R.CrashObservations, 2u);
  EXPECT_TRUE(R.UniqueBugs.empty());
  ASSERT_EQ(R.RawFindings.size(), 2u);
  for (const auto &[Key, Bug] : R.RawFindings) {
    EXPECT_EQ(Key.BugId, 0);
    EXPECT_EQ(Key.Sig, B.Obs.CrashSignature);
    EXPECT_EQ(Bug.BugId, 0);
  }
  // Signature triage collapses the per-config duplicates into one cluster.
  std::vector<TriagedBug> Clusters = clusterBySignature(R.RawFindings);
  ASSERT_EQ(Clusters.size(), 1u);
  EXPECT_EQ(Clusters[0].RawCount, 2u);
  EXPECT_EQ(Clusters[0].Sig.Key, B.Obs.CrashSignature);
}

TEST(SignatureOnlyTest, DistinctSignaturesStayDistinctRawFindings) {
  // Two different crashes under the *same* configuration must not collapse
  // into one raw finding just because both carry BugId 0.
  StubBackend A, B;
  A.Obs.Compile = B.Obs.Compile = BackendObservation::CompileStatus::Crashed;
  A.Obs.CrashSignature = "internal compiler error: in pass_a";
  B.Obs.CrashSignature = "internal compiler error: in pass_b";

  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 140, 1, true, {}}};
  CampaignResult R;
  Opts.Backend = &A;
  DifferentialHarness(Opts).testProgram(TrivialSeed, R);
  Opts.Backend = &B;
  DifferentialHarness(Opts).testProgram(TrivialSeed, R);

  EXPECT_EQ(R.RawFindings.size(), 2u);
  EXPECT_EQ(clusterBySignature(R.RawFindings).size(), 2u);
}

//===----------------------------------------------------------------------===//
// ExternalBackend against the host compiler (auto-skipped when absent)
//===----------------------------------------------------------------------===//

TEST(ExternalBackendTest, IdentityCarriesCommandLineAndVersion) {
  SKIP_WITHOUT_HOST_CC();
  const ExternalBackend &B = hostBackend();
  EXPECT_FALSE(B.versionLine().empty());
  EXPECT_NE(B.identity().find("cc"), std::string::npos);
  EXPECT_NE(B.identity().find(B.versionLine()), std::string::npos);
  EXPECT_FALSE(B.hasGroundTruth());
}

TEST(ExternalBackendTest, UnavailableCompilerIsReportedNotFatal) {
  ExternalBackendOptions O;
  O.Command = {"spe-no-such-compiler"};
  ExternalBackend B(O);
  EXPECT_FALSE(B.available());
  EXPECT_NE(B.unavailableReason().find("spe-no-such-compiler"),
            std::string::npos);
  // identity() still pins the (unusable) configuration for fingerprints.
  EXPECT_NE(B.identity().find("unavailable"), std::string::npos);
  BackendObservation Obs = B.run("int main(void) { return 0; }\n",
                                 {Persona::GccSim, 140, 0, true, {}}, nullptr);
  EXPECT_EQ(Obs.Compile, BackendObservation::CompileStatus::Rejected);
}

TEST(ExternalBackendTest, CompilesRunsAndObservesARealBinary) {
  SKIP_WITHOUT_HOST_CC();
  BackendObservation Obs = hostBackend().run(
      "int main(void) {\n  printf(\"hi %d\\n\", 2);\n  return 41;\n}\n",
      {Persona::GccSim, 140, 2, true, {}}, nullptr);
  ASSERT_EQ(Obs.Compile, BackendObservation::CompileStatus::Ok);
  ASSERT_EQ(Obs.Exec, BackendObservation::ExecStatus::Ok);
  EXPECT_EQ(Obs.ExitCode, 41);
  EXPECT_TRUE(Obs.ExitCodeLow8);
  EXPECT_EQ(Obs.Output, "hi 2\n");
}

TEST(ExternalBackendTest, RejectsWhatTheHostFrontendRejects) {
  SKIP_WITHOUT_HOST_CC();
  BackendObservation Obs =
      hostBackend().run("int main(void) { return frob; }\n",
                        {Persona::GccSim, 140, 0, true, {}}, nullptr);
  EXPECT_EQ(Obs.Compile, BackendObservation::CompileStatus::Rejected);
}

TEST(ExternalBackendTest, AgreementWithTheOracleProducesNoFindings) {
  SKIP_WITHOUT_HOST_CC();
  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 140, 0, true, {}},
                  {Persona::GccSim, 140, 2, true, {}}};
  Opts.Backend = &hostBackend();
  DifferentialHarness Harness(Opts);
  CampaignResult R;
  Harness.testProgram("int main(void) {\n"
                      "  int x = 6, y = 7;\n"
                      "  printf(\"%d\\n\", x * y);\n"
                      "  return x;\n"
                      "}\n",
                      R);
  EXPECT_EQ(R.VariantsTested, 1u);
  EXPECT_TRUE(R.RawFindings.empty())
      << "host compiler diverged from the reference oracle on a trivial "
         "program -- interpreter semantics bug?";
  EXPECT_EQ(R.CrashObservations + R.WrongCodeObservations, 0u);
}

namespace {

/// Writes a fake-compiler wrapper script: ICEs (with a stable marker line)
/// on any translation unit containing MAGIC_ICE, delegates to the real cc
/// otherwise. Lets the full subprocess path exercise crash classification
/// without needing a genuinely buggy host compiler.
std::string writeFakeIceCompiler() {
  std::string Path = tempPath("fake-ice-cc.sh");
  {
    std::ofstream Out(Path);
    Out << "#!/bin/sh\n"
           "src=\n"
           "for a in \"$@\"; do\n"
           "  case \"$a\" in *.c) src=\"$a\";; esac\n"
           "done\n"
           "if [ -n \"$src\" ] && grep -q MAGIC_ICE \"$src\"; then\n"
           "  echo \"$src:1:1: internal compiler error: in fake_fold, at "
           "fake.c:42\" >&2\n"
           "  exit 1\n"
           "fi\n"
           "exec cc \"$@\"\n";
  }
  ::chmod(Path.c_str(), 0755);
  return Path;
}

} // namespace

TEST(ExternalBackendTest, CompilerCrashBecomesASignatureOnlyFinding) {
  SKIP_WITHOUT_HOST_CC();
  ExternalBackendOptions O;
  O.Command = {"./" + writeFakeIceCompiler()};
  O.TempDir = "external_test_tmp";
  ExternalBackend Fake(O);
  ASSERT_TRUE(Fake.available()) << Fake.unavailableReason();

  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 140, 1, true, {}}};
  Opts.Backend = &Fake;
  DifferentialHarness Harness(Opts);
  CampaignResult R;
  Harness.testProgram("int MAGIC_ICE = 3;\n"
                      "int main(void) { return MAGIC_ICE; }\n",
                      R);
  EXPECT_EQ(R.CrashObservations, 1u);
  EXPECT_TRUE(R.UniqueBugs.empty());
  ASSERT_EQ(R.RawFindings.size(), 1u);
  const auto &[Key, Bug] = *R.RawFindings.begin();
  EXPECT_EQ(Key.BugId, 0);
  // The scratch-file prefix must have been stripped to the stable key.
  EXPECT_EQ(Key.Sig,
            "internal compiler error: in fake_fold, at fake.c:42");
  EXPECT_EQ(Bug.Signature, Key.Sig);
  EXPECT_EQ(Bug.Effect, BugEffect::Crash);
}

//===----------------------------------------------------------------------===//
// End-to-end: campaign over embedded seeds through the host compiler
//===----------------------------------------------------------------------===//

namespace {

HarnessOptions externalCampaignOptions() {
  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 140, 0, true, {}},
                  {Persona::GccSim, 140, 2, true, {}}};
  Opts.Backend = &hostBackend();
  Opts.VariantBudget = 6;
  return Opts;
}

std::vector<std::string> externalCampaignSeeds() {
  // The Figure 1 seed (pure int arithmetic) and the division seed: small
  // rank spaces, UB-heavy neighborhoods for the oracle to prune, and
  // nothing the host compiler should reject.
  return {embeddedSeeds()[2], embeddedSeeds()[5]};
}

} // namespace

TEST(ExternalCampaignTest, DeterministicAcrossThreadCounts) {
  SKIP_WITHOUT_HOST_CC();
  std::vector<std::string> Seeds = externalCampaignSeeds();
  HarnessOptions Opts = externalCampaignOptions();
  Opts.Threads = 1;
  CampaignResult R1 = DifferentialHarness(Opts).runCampaign(Seeds);
  EXPECT_GT(R1.VariantsTested, 0u);
  for (unsigned Threads : {2u, 4u}) {
    Opts.Threads = Threads;
    CampaignResult RN = DifferentialHarness(Opts).runCampaign(Seeds);
    EXPECT_TRUE(RN == R1) << "thread count " << Threads
                          << " changed the campaign result";
  }
}

TEST(ExternalCampaignTest, CrashResumeIsBitIdenticalAndSkewIsRejected) {
  SKIP_WITHOUT_HOST_CC();
  std::vector<std::string> Seeds = externalCampaignSeeds();

  HarnessOptions Base = externalCampaignOptions();
  Base.CheckpointPath = tempPath("external_campaign.ck");
  Base.CheckpointEveryN = 2;
  CampaignResult Uninterrupted = DifferentialHarness(Base).runCampaign(Seeds);

  // Kill mid-campaign, then resume from the on-disk snapshot.
  HarnessOptions Crashing = Base;
  Crashing.SimulateCrashAfter = 5;
  (void)DifferentialHarness(Crashing).runCampaign(Seeds);
  CampaignResult Resumed;
  std::string Err;
  ASSERT_TRUE(DifferentialHarness(Base).resumeCampaign(Seeds, Resumed, Err))
      << Err;
  EXPECT_TRUE(Resumed == Uninterrupted);

  // A resume against a different backend command line must be refused:
  // same seeds, same options, different compiler identity.
  ExternalBackendOptions Other = hostBackend().options();
  Other.ExtraArgs.push_back("-fwrapv");
  ExternalBackend OtherBackend(Other);
  ASSERT_TRUE(OtherBackend.available()) << OtherBackend.unavailableReason();
  HarnessOptions Skewed = Base;
  Skewed.Backend = &OtherBackend;
  CampaignResult R;
  EXPECT_FALSE(DifferentialHarness(Skewed).resumeCampaign(Seeds, R, Err));
  EXPECT_NE(Err.find("options fingerprint"), std::string::npos) << Err;
}

//===----------------------------------------------------------------------===//
// Backend lifecycle: memoized version probe, per-instance scratch dir
//===----------------------------------------------------------------------===//

TEST(ExternalBackendTest, VersionProbeIsMemoizedPerCommandLine) {
  // A counting fake compiler: every --version probe that actually executes
  // appends a line. Three backends over the same command line must share
  // one probe, process-wide.
  std::string Counter = tempPath("probe_count_" + std::to_string(::getpid()));
  std::string Probe = tempPath("probe-count-cc.sh");
  {
    std::ofstream Out(Probe);
    Out << "#!/bin/sh\n"
           "echo probed >> " << Counter << "\n"
           "echo 'fake-probe-cc 1.0'\n";
  }
  ::chmod(Probe.c_str(), 0755);
  ::unlink(Counter.c_str());

  ExternalBackendOptions O;
  O.Command = {"./" + Probe};
  O.TempDir = "external_test_tmp";
  ExternalBackend A(O), B(O), C(O);
  ASSERT_TRUE(A.available()) << A.unavailableReason();
  EXPECT_EQ(A.versionLine(), "fake-probe-cc 1.0");
  EXPECT_EQ(B.versionLine(), A.versionLine());
  EXPECT_EQ(C.versionLine(), A.versionLine());

  std::ifstream In(Counter);
  std::string Line;
  size_t Probes = 0;
  while (std::getline(In, Line))
    ++Probes;
  EXPECT_EQ(Probes, 1u) << "same command line probed more than once";
}

TEST(ExternalBackendTest, ScratchDirectoryIsRemovedOnDestruction) {
  SKIP_WITHOUT_HOST_CC();
  std::string Dir;
  {
    ExternalBackendOptions O;
    O.TempDir = "external_test_tmp";
    ExternalBackend B(O);
    ASSERT_TRUE(B.available()) << B.unavailableReason();
    Dir = B.scratchDir();
    EXPECT_TRUE(std::filesystem::is_directory(Dir));
    // Leave real scratch traffic behind so removal has work to do.
    BackendObservation Obs =
        B.run("int main(void) { return 4; }\n",
              {Persona::GccSim, 140, 1, true, {}}, nullptr);
    EXPECT_EQ(Obs.Compile, BackendObservation::CompileStatus::Ok);
  }
  EXPECT_FALSE(std::filesystem::exists(Dir))
      << "scratch directory survived backend destruction: " << Dir;
}

// A SIGKILLed campaign never runs the destructor above, so construction
// sweeps the scratch base for directories whose owner pid is dead. The
// sweep itself is a static function with no compiler dependency.
TEST(ExternalBackendTest, StaleScratchIsSweptLiveScratchSurvives) {
  std::string Base = tempPath("sweep-base");
  std::filesystem::create_directories(Base);
  std::string Self = std::to_string(static_cast<long long>(::getpid()));

  // Stale: the name's pid is beyond any real pid space (pid_max defaults
  // to 4194304), so kill(pid, 0) reliably reports ESRCH.
  std::string Stale = Base + "/spe-ext-2000000000-stale1";
  std::filesystem::create_directories(Stale);
  { std::ofstream(Stale + "/leftover.o") << "junk"; }
  // Live: named for this very process and still empty -- exactly what
  // mkdtemp leaves before its owner has written anything, the state a
  // concurrent sweep used to mistake for a crash.
  std::string Live = Base + "/spe-ext-" + Self + "-live01";
  std::filesystem::create_directories(Live);
  // No pid field: not a scratch directory of this layout.
  std::string NoPid = Base + "/spe-ext-nopid1";
  std::filesystem::create_directories(NoPid);
  // A flat-layout scratch file, not a directory.
  std::string Flat = Base + "/spe-ext-2000000000-3.c";
  { std::ofstream(Flat) << "int main(void) { return 0; }\n"; }
  // Unrelated directory: name does not match the scratch prefix.
  std::string Other = Base + "/other-dir";
  std::filesystem::create_directories(Other);

  EXPECT_EQ(ExternalBackend::sweepStaleScratch(Base), 1u);
  EXPECT_FALSE(std::filesystem::exists(Stale));
  EXPECT_TRUE(std::filesystem::exists(Live));
  EXPECT_TRUE(std::filesystem::exists(NoPid));
  EXPECT_TRUE(std::filesystem::exists(Flat));
  EXPECT_TRUE(std::filesystem::exists(Other));
  std::filesystem::remove_all(Base);
}

TEST(ExternalBackendTest, ConstructionReapsStaleScratchAndKeepsItsOwn) {
  SKIP_WITHOUT_HOST_CC();
  std::string Base = tempPath("sweep-ctor-base");
  std::filesystem::create_directories(Base);
  std::string Stale = Base + "/spe-ext-2000000000-ghost1";
  std::filesystem::create_directories(Stale);

  ExternalBackendOptions O;
  O.TempDir = Base;
  ExternalBackend B(O);
  ASSERT_TRUE(B.available()) << B.unavailableReason();
  EXPECT_FALSE(std::filesystem::exists(Stale))
      << "stale scratch survived backend construction";
  // Our own scratch names this process from birth and holds nothing yet,
  // so a sweep from any other (or this) process leaves it alone.
  std::string Name = std::filesystem::path(B.scratchDir()).filename();
  std::string Prefix =
      "spe-ext-" + std::to_string(static_cast<long long>(::getpid())) + "-";
  EXPECT_EQ(Name.compare(0, Prefix.size(), Prefix), 0) << Name;
  EXPECT_TRUE(std::filesystem::is_empty(B.scratchDir()));
  EXPECT_EQ(ExternalBackend::sweepStaleScratch(Base), 0u);
  EXPECT_TRUE(std::filesystem::exists(B.scratchDir()));
}

//===----------------------------------------------------------------------===//
// Batched campaigns: bisection attribution, pollution, pool, resume
//===----------------------------------------------------------------------===//

namespace {

/// Like writeFakeIceCompiler, but triggering only on a *use* of MAGIC_ICE
/// (the statement-final "MAGIC_ICE;", as in "a + MAGIC_ICE;" or "return
/// MAGIC_ICE;"), a pattern the batch alpha-rename preserves
/// ("v<i>_MAGIC_ICE;") while the declaration ("MAGIC_ICE = 2") never
/// matches. Within one seed's variant set only the variants that bind a
/// use-hole to MAGIC_ICE trigger, so the batches the harness forms are
/// genuinely mixed and the bisector has real splitting to do.
std::string writeFakeIceOnUseCompiler() {
  std::string Path = tempPath("fake-ice-use-cc.sh");
  {
    std::ofstream Out(Path);
    Out << "#!/bin/sh\n"
           "src=\n"
           "for a in \"$@\"; do\n"
           "  case \"$a\" in *.c) src=\"$a\";; esac\n"
           "done\n"
           "if [ -n \"$src\" ] && grep -q 'MAGIC_ICE;' \"$src\"; then\n"
           "  echo \"$src:1:1: internal compiler error: in fake_use_fold, "
           "at fake.c:99\" >&2\n"
           "  exit 1\n"
           "fi\n"
           "exec cc \"$@\"\n";
  }
  ::chmod(Path.c_str(), 0755);
  return Path;
}

/// Wrong-code fake: compiles normally, then -- when the TU contains a use
/// "MAGIC_WRONG +" -- swaps the produced binary for one that exits 99
/// whatever its argv. In a batch this poisons *every* member's execution,
/// so only the mandated solo re-verification keeps the innocent members
/// out of the findings.
std::string writeFakeWrongCodeCompiler() {
  std::string Path = tempPath("fake-wrong-cc.sh");
  {
    std::ofstream Out(Path);
    Out << "#!/bin/sh\n"
           "src=\n"
           "out=\n"
           "prev=\n"
           "for a in \"$@\"; do\n"
           "  case \"$prev\" in -o) out=\"$a\";; esac\n"
           "  case \"$a\" in *.c) src=\"$a\";; esac\n"
           "  prev=\"$a\"\n"
           "done\n"
           "cc \"$@\" || exit $?\n"
           "if [ -n \"$src\" ] && [ -n \"$out\" ] && "
           "grep -q 'MAGIC_WRONG;' \"$src\"; then\n"
           "  printf '#!/bin/sh\\nexit 99\\n' > \"$out\"\n"
           "  chmod +x \"$out\"\n"
           "fi\n"
           "exit 0\n";
  }
  ::chmod(Path.c_str(), 0755);
  return Path;
}

/// Hang fake: compiles normally, except that the statement-final use
/// "MAGIC_HANG;" is followed by a loop around pause(), so the members
/// that reach it never finish -- in a packed TU and in a solo compile
/// alike -- while the oracle, which never sees the edit, says they
/// terminate. pause() blocks instead of spinning, so a hang costs its
/// deadline but no CPU.
std::string writeFakeHangCompiler() {
  std::string Path = tempPath("fake-hang-cc.sh");
  {
    std::ofstream Out(Path);
    Out << "#!/bin/sh\n"
           "dir=$(mktemp -d) || exit 1\n"
           "n=0\n"
           "for a in \"$@\"; do\n"
           "  case \"$a\" in\n"
           "    *.c) n=$((n + 1))\n"
           "         { echo '#include <unistd.h>'\n"
           "           sed 's/MAGIC_HANG;/MAGIC_HANG; for (;;) pause();/g' "
           "\"$a\"\n"
           "         } > \"$dir/$n.c\" || exit 1\n"
           "         set -- \"$@\" \"$dir/$n.c\";;\n"
           "    *) set -- \"$@\" \"$a\";;\n"
           "  esac\n"
           "  shift\n"
           "done\n"
           "cc \"$@\"\n"
           "status=$?\n"
           "rm -rf \"$dir\"\n"
           "exit $status\n";
  }
  ::chmod(Path.c_str(), 0755);
  return Path;
}

/// One-seed campaign whose variant set mixes triggering and clean members:
/// use-holes over {a, MAGIC_<X>} put the magic name into left-of-+ position
/// in some variants only.
std::vector<std::string> mixedTriggerSeeds(const std::string &Magic) {
  return {"int a = 1, " + Magic + " = 2;\n"
          "int main(void) { int x = a + a; return x; }\n"};
}

HarnessOptions fakeCompilerCampaignOptions(const CompilerBackend &B) {
  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 140, 0, true, {}},
                  {Persona::GccSim, 140, 2, true, {}}};
  Opts.Backend = &B;
  Opts.VariantBudget = 12;
  return Opts;
}

} // namespace

TEST(BatchedExternalCampaignTest, BisectionAttributionMatchesUnbatched) {
  SKIP_WITHOUT_HOST_CC();
  ExternalBackendOptions O;
  O.Command = {"./" + writeFakeIceOnUseCompiler()};
  O.TempDir = "external_test_tmp";
  ExternalBackend Fake(O);
  ASSERT_TRUE(Fake.available()) << Fake.unavailableReason();

  std::vector<std::string> Seeds = mixedTriggerSeeds("MAGIC_ICE");
  HarnessOptions Opts = fakeCompilerCampaignOptions(Fake);
  Opts.BatchSize = 1;
  Opts.Threads = 1;
  CampaignResult Ref = DifferentialHarness(Opts).runCampaign(Seeds);

  // The reference campaign must be genuinely mixed: some variants ICE,
  // some compile and run cleanly -- otherwise batching is never bisecting.
  EXPECT_GT(Ref.CrashObservations, 0u);
  EXPECT_LT(Ref.CrashObservations,
            Ref.VariantsTested * Opts.Configs.size());
  ASSERT_FALSE(Ref.RawFindings.empty());
  for (const auto &[Key, Bug] : Ref.RawFindings) {
    EXPECT_EQ(Key.BugId, 0);
    EXPECT_EQ(Key.Sig,
              "internal compiler error: in fake_use_fold, at fake.c:99");
  }

  // Batch sizes bracketing the campaign size and thread counts across the
  // scheduler: rank, signature, triage input -- the whole CampaignResult --
  // must be bit-identical to the unbatched reference.
  for (uint64_t Batch : {2u, 3u, 4u, 5u, 8u}) {
    for (unsigned Threads : {1u, 2u, 4u}) {
      Opts.BatchSize = Batch;
      Opts.Threads = Threads;
      CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
      EXPECT_TRUE(R == Ref)
          << "BatchSize " << Batch << " x " << Threads
          << " threads changed attribution vs the unbatched campaign";
    }
  }
}

TEST(BatchedExternalCampaignTest, BatchPollutionIsClearedBySoloReVerification) {
  SKIP_WITHOUT_HOST_CC();
  ExternalBackendOptions O;
  O.Command = {"./" + writeFakeWrongCodeCompiler()};
  O.TempDir = "external_test_tmp";
  ExternalBackend Fake(O);
  ASSERT_TRUE(Fake.available()) << Fake.unavailableReason();

  std::vector<std::string> Seeds = mixedTriggerSeeds("MAGIC_WRONG");
  HarnessOptions Opts = fakeCompilerCampaignOptions(Fake);
  Opts.BatchSize = 1;
  Opts.Threads = 1;
  CampaignResult Ref = DifferentialHarness(Opts).runCampaign(Seeds);

  // Mixed again: some variants miscompile (exit 99 vs the oracle), the
  // rest are clean.
  EXPECT_GT(Ref.WrongCodeObservations, 0u);
  EXPECT_LT(Ref.WrongCodeObservations,
            Ref.VariantsTested * Opts.Configs.size());

  // In a batch the poisoned binary makes *every* member diverge; only the
  // triggering members may survive solo re-verification into findings.
  // The last campaign is traced: the rows that left their batches are
  // visible in its own telemetry as solo spans.
  TelemetrySink Sink;
  ExternalBackendOptions TO = O;
  TO.Telemetry = &Sink;
  ExternalBackend Traced(TO);
  ASSERT_TRUE(Traced.available()) << Traced.unavailableReason();
  for (uint64_t Batch : {4u, 8u}) {
    for (unsigned Threads : {1u, 2u}) {
      bool Trace = Batch == 8 && Threads == 2;
      Opts.Backend = Trace ? &Traced : &Fake;
      Opts.Telemetry = Trace ? &Sink : nullptr;
      Opts.BatchSize = Batch;
      Opts.Threads = Threads;
      CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
      EXPECT_TRUE(R == Ref)
          << "BatchSize " << Batch << " x " << Threads
          << ": batch-level pollution leaked into the findings";
      if (Trace) {
        EXPECT_GT(R.Telemetry.countFor("solo"), 0u);
      }
    }
  }
}

TEST(BatchedExternalCampaignTest, HangingMembersAreKilledAtTheirOwnDeadline) {
  SKIP_WITHOUT_HOST_CC();
  ExternalBackendOptions O;
  O.Command = {"./" + writeFakeHangCompiler()};
  O.TempDir = "external_test_tmp";
  O.ExecTimeoutMs = 300;
  ExternalBackend Fake(O);
  ASSERT_TRUE(Fake.available()) << Fake.unavailableReason();

  std::vector<std::string> Seeds = mixedTriggerSeeds("MAGIC_HANG");
  HarnessOptions Opts = fakeCompilerCampaignOptions(Fake);
  // One config and four variants, two of them hanging: every hanging row
  // costs a deadline in its batch and another in its solo run.
  Opts.Configs.resize(1);
  Opts.VariantBudget = 4;
  Opts.BatchSize = 1;
  Opts.Threads = 1;
  CampaignResult Ref = DifferentialHarness(Opts).runCampaign(Seeds);

  // Mixed: some variants hang (a timeout against a terminating oracle),
  // the rest run clean.
  EXPECT_GT(Ref.ExecutionTimeouts, 0u);
  EXPECT_LT(Ref.ExecutionTimeouts, Ref.VariantsTested * Opts.Configs.size());
  bool HangFinding = false;
  for (const auto &[Key, Bug] : Ref.RawFindings)
    HangFinding |= Key.Sig.find("hang") != std::string::npos;
  EXPECT_TRUE(HangFinding);

  // In a batch each hanging member dies at its own deadline; its
  // batch-mates are recorded from their frames, and only the hanging rows
  // go solo. The four campaigns mostly wait on deadlines, so they run at
  // once, each with its own backend and sink.
  struct Run {
    uint64_t Batch;
    unsigned Threads;
    CampaignResult R;
  };
  std::vector<Run> Runs = {{4, 1, {}}, {4, 2, {}}, {8, 1, {}}, {8, 2, {}}};
  std::vector<std::thread> Campaigns;
  for (Run &Cell : Runs)
    Campaigns.emplace_back([&Cell, &O, &Opts, &Seeds] {
      TelemetrySink Sink;
      ExternalBackendOptions TO = O;
      TO.Telemetry = &Sink;
      ExternalBackend Traced(TO);
      HarnessOptions RunOpts = Opts;
      RunOpts.Backend = &Traced;
      RunOpts.Telemetry = &Sink;
      RunOpts.BatchSize = Cell.Batch;
      RunOpts.Threads = Cell.Threads;
      Cell.R = DifferentialHarness(RunOpts).runCampaign(Seeds);
    });
  for (std::thread &T : Campaigns)
    T.join();
  for (const Run &Cell : Runs) {
    EXPECT_TRUE(Cell.R == Ref) << "BatchSize " << Cell.Batch << " x "
                               << Cell.Threads << " changed the hang campaign";
    EXPECT_EQ(Cell.R.Telemetry.countFor("solo"), Ref.ExecutionTimeouts)
        << "BatchSize " << Cell.Batch << " x " << Cell.Threads;
  }
}

TEST(BatchedExternalCampaignTest, HostCampaignIsBatchInvariantWithWarmPool) {
  SKIP_WITHOUT_HOST_CC();
  std::vector<std::string> Seeds = externalCampaignSeeds();
  HarnessOptions Opts = externalCampaignOptions();
  Opts.BatchSize = 1;
  Opts.Threads = 1;
  CampaignResult Ref = DifferentialHarness(Opts).runCampaign(Seeds);
  EXPECT_GT(Ref.VariantsTested, 0u);

  ExternalBackendOptions PO = hostBackend().options();
  PO.PoolWorkers = 2;
  ExternalBackend Pooled(PO);
  ASSERT_TRUE(Pooled.available()) << Pooled.unavailableReason();
  ASSERT_NE(Pooled.pool(), nullptr);
  // The pool never enters the backend identity (it cannot change results),
  // so pooled campaigns stay resume-compatible with unpooled ones.
  EXPECT_EQ(Pooled.identity(), hostBackend().identity());

  Opts.Backend = &Pooled;
  for (uint64_t Batch : {8u, 64u}) {
    for (unsigned Threads : {1u, 2u, 4u}) {
      Opts.BatchSize = Batch;
      Opts.Threads = Threads;
      CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
      EXPECT_TRUE(R == Ref)
          << "pooled BatchSize " << Batch << " x " << Threads
          << " threads diverged from the direct unbatched campaign";
    }
  }

  // Observation stays inert on the pooled batched path: spans from both
  // the backend and the harness leave the result untouched.
  TelemetrySink Sink;
  ExternalBackendOptions TO = PO;
  TO.Telemetry = &Sink;
  ExternalBackend Traced(TO);
  ASSERT_TRUE(Traced.available()) << Traced.unavailableReason();
  Opts.Backend = &Traced;
  Opts.BatchSize = 64;
  Opts.Threads = 1;
  Opts.Telemetry = &Sink;
  CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
  EXPECT_TRUE(R == Ref) << "telemetry changed the pooled batched campaign";
  EXPECT_GT(R.Telemetry.countFor("batch_pack"), 0u);
  // One batch spans both seeds, and its packed binary runs once per config:
  // one compile and one execution per config, and no row leaves the batch.
  EXPECT_EQ(R.Telemetry.countFor("compile"), Opts.Configs.size());
  EXPECT_EQ(R.Telemetry.countFor("exec"), Opts.Configs.size());
  EXPECT_EQ(R.Telemetry.countFor("solo"), 0u);
  // Exec time splits by config on the batched path too.
  for (const auto &[Key, Agg] : R.Telemetry.Phases) {
    if (Key.Phase == "exec") {
      EXPECT_FALSE(Key.Config.empty()) << "exec span without a config label";
    }
  }
}

TEST(BatchedExternalCampaignTest, CheckpointedResumeAcrossBatchSizes) {
  SKIP_WITHOUT_HOST_CC();
  std::vector<std::string> Seeds = externalCampaignSeeds();

  // Uninterrupted unbatched reference.
  HarnessOptions Base = externalCampaignOptions();
  Base.CheckpointEveryN = 2;
  HarnessOptions Ref = Base;
  Ref.CheckpointPath = tempPath("batched_resume_ref.ck");
  Ref.BatchSize = 1;
  CampaignResult Uninterrupted = DifferentialHarness(Ref).runCampaign(Seeds);

  // Crash a *batched, pooled* campaign mid-flight...
  ExternalBackendOptions PO = hostBackend().options();
  PO.PoolWorkers = 2;
  ExternalBackend Pooled(PO);
  ASSERT_TRUE(Pooled.available()) << Pooled.unavailableReason();
  HarnessOptions Crashing = Base;
  Crashing.CheckpointPath = tempPath("batched_resume.ck");
  Crashing.Backend = &Pooled;
  Crashing.BatchSize = 8;
  Crashing.SimulateCrashAfter = 5;
  (void)DifferentialHarness(Crashing).runCampaign(Seeds);

  // ...and resume it unbatched and unpooled: BatchSize and PoolWorkers are
  // outside the fingerprint, and the drained-before-publish protocol means
  // the snapshot describes a clean unbatched prefix.
  HarnessOptions Resuming = Base;
  Resuming.CheckpointPath = Crashing.CheckpointPath;
  Resuming.BatchSize = 1;
  CampaignResult Resumed;
  std::string Err;
  ASSERT_TRUE(DifferentialHarness(Resuming).resumeCampaign(Seeds, Resumed,
                                                           Err))
      << Err;
  EXPECT_TRUE(Resumed == Uninterrupted)
      << "batched crash + unbatched resume diverged from the unbatched "
         "uninterrupted campaign";
}
