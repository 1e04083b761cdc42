//===- tests/compiler_batch_renderer_test.cpp - packed-TU semantics ------===//
//
// The multi-variant translation unit under compiler/BatchRenderer.h: the
// token-exact alpha-rename (identifiers prefixed, printf and keywords
// preserved, string literals and comments surviving byte-for-byte), the
// packed-TU structure, the framed dispatch ABI against the host compiler
// (one run of the packed binary reproduces every member's solo exit code,
// signal, deadline and stdout on shared stdin; a missing, short or
// malformed frame or a failed dispatcher observes nothing), and the
// harness batching contract with the in-process backend: campaign results,
// coverage and checkpoints bit-identical across BatchSize and thread
// count, resumable across batch sizes because BatchSize never enters the
// fingerprint.
//
//===----------------------------------------------------------------------===//

#include "compiler/BatchRenderer.h"
#include "compiler/Coverage.h"
#include "compiler/ExternalBackend.h"
#include "support/ProcessRunner.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <filesystem>
#include <fstream>

using namespace spe;

namespace {

std::string tempPath(const std::string &Name) {
  std::filesystem::create_directories("batch_renderer_test_tmp");
  return "batch_renderer_test_tmp/" + Name;
}

bool hostCcWorks() {
  static bool Works = [] {
    ProcessResult R = runProcess({"cc", "--version"});
    return R.exitedWith(0);
  }();
  return Works;
}

#define SKIP_WITHOUT_HOST_CC()                                              \
  do {                                                                      \
    if (!hostCcWorks())                                                     \
      GTEST_SKIP() << "no usable host compiler (cc --version failed)";      \
  } while (0)

} // namespace

//===----------------------------------------------------------------------===//
// prefixIdentifiers: the token-exact alpha-rename
//===----------------------------------------------------------------------===//

TEST(BatchRendererTest, PrefixesIdentifiersButNotKeywordsOrPrintf) {
  std::string Out, Err;
  ASSERT_TRUE(BatchRenderer::prefixIdentifiers(
      "int main(void) { int x = 2; printf(\"%d\\n\", x); return x; }\n",
      "v3_", Out, Err))
      << Err;
  EXPECT_EQ(Out, "int v3_main(void) { int v3_x = 2; "
                 "printf(\"%d\\n\", v3_x); return v3_x; }\n");
}

TEST(BatchRendererTest, LiteralsAndCommentsSurviveByteForByte) {
  // "main" inside a string, a // comment and a /* */ comment must not be
  // renamed: the lexer never produces identifier tokens there, and the
  // splice copies raw text between identifiers untouched.
  std::string Src = "// main x comment\n"
                    "int main(void) {\n"
                    "  /* int x = main; */\n"
                    "  printf(\"main x %d\\n\", 7);\n"
                    "  return 0;\n"
                    "}\n";
  std::string Out, Err;
  ASSERT_TRUE(BatchRenderer::prefixIdentifiers(Src, "v0_", Out, Err)) << Err;
  EXPECT_NE(Out.find("// main x comment"), std::string::npos);
  EXPECT_NE(Out.find("/* int x = main; */"), std::string::npos);
  EXPECT_NE(Out.find("\"main x %d\\n\""), std::string::npos);
  EXPECT_NE(Out.find("int v0_main(void)"), std::string::npos);
}

TEST(BatchRendererTest, RenameIsInjectivePerVariant) {
  // Distinct names stay distinct under a shared prefix; the same name is
  // renamed consistently at every occurrence.
  std::string Out, Err;
  ASSERT_TRUE(BatchRenderer::prefixIdentifiers(
      "int a = 1; int aa = 2;\n"
      "int main(void) { return a + aa + a; }\n",
      "v1_", Out, Err))
      << Err;
  EXPECT_EQ(Out, "int v1_a = 1; int v1_aa = 2;\n"
                 "int v1_main(void) { return v1_a + v1_aa + v1_a; }\n");
}

TEST(BatchRendererTest, NonLexingSourceIsReportedNotPacked) {
  std::string Out, Err;
  EXPECT_FALSE(BatchRenderer::prefixIdentifiers(
      "int main(void) { /* unterminated\n", "v0_", Out, Err));
  EXPECT_FALSE(Err.empty());

  BatchRenderer::Result R = BatchRenderer::pack(
      {"int main(void) { return 0; }\n", "int main(void) { @ }\n"},
      "#include <stdio.h>\n");
  EXPECT_FALSE(R.Ok);
  EXPECT_FALSE(R.Error.empty());
}

//===----------------------------------------------------------------------===//
// pack: structure and subset numbering
//===----------------------------------------------------------------------===//

TEST(BatchRendererTest, PackedTuCarriesPreludeVariantsAndDispatch) {
  BatchRenderer::Result R = BatchRenderer::pack(
      {"int main(void) { return 1; }\n", "int main(void) { return 2; }\n"},
      "#include <stdio.h>\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  // Prelude exactly once, up front.
  EXPECT_EQ(R.Source.rfind("#include <stdio.h>\n", 0), 0u);
  // Each member renamed into its own namespace...
  EXPECT_NE(R.Source.find("int v0_main(void) { return 1; }"),
            std::string::npos);
  EXPECT_NE(R.Source.find("int v1_main(void) { return 2; }"),
            std::string::npos);
  // ...listed in the member table the separately compiled dispatcher
  // main reads; the packed TU itself defines no main.
  EXPECT_NE(R.Source.find("int (*const spe_d_members[])(void) = {\n"
                          "  v0_main,\n"
                          "  v1_main,\n"
                          "};\n"
                          "const unsigned long spe_d_count = 2;\n"),
            std::string::npos);
  EXPECT_EQ(R.Source.find(" main("), std::string::npos);
  EXPECT_NE(std::string(BatchRenderer::dispatcherSource())
                .find("int main(int argc, char **argv)"),
            std::string::npos);
}

TEST(BatchRendererTest, SubsetPackNumbersMembersLocally) {
  // Bisection re-packs sub-batches; the packed TU numbers members in
  // subset order starting at 0, so a dispatch names the local position,
  // never the original batch position.
  std::vector<std::string> Variants = {"int main(void) { return 10; }\n",
                                       "int main(void) { return 11; }\n",
                                       "int main(void) { return 12; }\n"};
  BatchRenderer::Result R =
      BatchRenderer::pack(Variants, {2, 0}, "#include <stdio.h>\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_NE(R.Source.find("int v0_main(void) { return 12; }"),
            std::string::npos);
  EXPECT_NE(R.Source.find("int v1_main(void) { return 10; }"),
            std::string::npos);
  EXPECT_EQ(R.Source.find("v2_"), std::string::npos);

  BatchRenderer::Result Empty =
      BatchRenderer::pack(Variants, {}, "#include <stdio.h>\n");
  EXPECT_FALSE(Empty.Ok);
}

//===----------------------------------------------------------------------===//
// Host-compiler execution equivalence (auto-skipped without cc)
//===----------------------------------------------------------------------===//

namespace {

/// Compiles \p Source at -O1 into \p Bin, linking \p Link when set.
::testing::AssertionResult compileTo(const std::string &Source,
                                     const std::string &Name,
                                     std::string &Bin,
                                     const std::string &Link = {}) {
  std::string Src = tempPath(Name + ".c");
  Bin = "./" + tempPath(Name + ".bin");
  {
    std::ofstream OutF(Src);
    OutF << Source;
  }
  std::vector<std::string> Argv = {"cc", "-w", "-O1", Src};
  if (!Link.empty())
    Argv.push_back(Link);
  Argv.insert(Argv.end(), {"-o", Bin});
  ProcessResult CR = runProcess(Argv);
  if (!CR.exitedWith(0))
    return ::testing::AssertionFailure() << CR.Stderr;
  return ::testing::AssertionSuccess();
}

/// Compiles a packed TU into \p Bin, linked with the dispatcher object
/// (built once per test process).
::testing::AssertionResult compilePacked(const std::string &Source,
                                         const std::string &Name,
                                         std::string &Bin) {
  static const std::string Obj = [] {
    std::string Src = tempPath("dispatch.c");
    std::string O = tempPath("dispatch.o");
    {
      std::ofstream OutF(Src);
      OutF << BatchRenderer::dispatcherSource();
    }
    return runProcess({"cc", "-w", "-c", Src, "-o", O}).exitedWith(0)
               ? O
               : std::string();
  }();
  if (Obj.empty())
    return ::testing::AssertionFailure() << "the dispatcher does not compile";
  return compileTo(Source, Name, Bin, Obj);
}

/// Packs and compiles \p Variants under the external backend's prelude
/// (stdio plus the spe_input() stdin reader), runs every member in one
/// dispatch under \p Member, and compares each frame with that variant's
/// solo binary run by runProcess under the same options. The frames land
/// in \p Frames.
void expectFramesMatchSoloRuns(const std::vector<std::string> &Variants,
                               const ProcessOptions &Member,
                               const std::string &Tag,
                               std::vector<ProcessResult> &Frames) {
  const std::string Prelude = ExternalBackendOptions().Prelude;
  BatchRenderer::Result Packed = BatchRenderer::pack(Variants, Prelude);
  ASSERT_TRUE(Packed.Ok) << Packed.Error;
  std::string Bin;
  ASSERT_TRUE(compilePacked(Packed.Source, Tag, Bin));

  std::vector<size_t> Members(Variants.size());
  for (size_t I = 0; I < Members.size(); ++I)
    Members[I] = I;
  BatchRenderer::Dispatch D = BatchRenderer::dispatch(Bin, Members, Member);
  Frames = BatchRenderer::frames(D, runProcess(D.Argv, D.Opts));
  ASSERT_EQ(Frames.size(), Variants.size());

  for (size_t I = 0; I < Variants.size(); ++I) {
    std::string SoloBin;
    ASSERT_TRUE(compileTo(Prelude + Variants[I],
                          Tag + "_solo" + std::to_string(I), SoloBin));
    ProcessResult Solo = runProcess({SoloBin}, Member);
    const ProcessResult &F = Frames[I];
    ASSERT_NE(F.St, ProcessResult::Status::StartFailed)
        << "variant " << I << ": " << F.Error;
    EXPECT_EQ(F.St, Solo.St) << "variant " << I;
    if (Solo.St == ProcessResult::Status::Exited) {
      EXPECT_EQ(F.ExitCode, Solo.ExitCode) << "variant " << I;
      EXPECT_EQ(F.Stdout, Solo.Stdout) << "variant " << I;
    }
    if (Solo.St == ProcessResult::Status::Signaled) {
      EXPECT_EQ(F.Signal, Solo.Signal) << "variant " << I;
    }
  }
}

} // namespace

TEST(BatchRendererTest, PackedBinaryReproducesEachSoloVariantExactly) {
  SKIP_WITHOUT_HOST_CC();
  // Three variants with distinct exit codes and outputs, sharing global
  // names to prove the per-variant namespaces really are disjoint; one run
  // of the packed binary frames all three.
  std::vector<ProcessResult> Frames;
  expectFramesMatchSoloRuns(
      {"int g = 3;\nint main(void) { printf(\"a %d\\n\", g); return 31; }\n",
       "int g = 4;\nint main(void) { printf(\"b %d\\n\", g + 1); return 0; }\n",
       "int g = 5;\nint main(void) { return g + 60; }\n"},
      ProcessOptions(), "equiv", Frames);
}

TEST(BatchRendererTest, DispatchSharesStdinAndKeepsEachMembersDeadline) {
  SKIP_WITHOUT_HOST_CC();
  // Every member reads the same stdin from its start; a member that traps
  // or hangs is reported as such without disturbing the members after it.
  ProcessOptions Member;
  Member.TimeoutMs = 300;
  Member.StdinData = "7 11";
  std::vector<ProcessResult> Frames;
  expectFramesMatchSoloRuns(
      {"int main(void) { int a = spe_input(); int b = spe_input();\n"
       "  printf(\"%d %d\\n\", a, b); return a + b; }\n",
       "int main(void) { int x = 0; while (1) x = x + 1; return x; }\n",
       "int main(void) { int *p = 0; printf(\"lost\\n\"); return *p; }\n",
       "int main(void) { printf(\"%d\\n\", spe_input()); return 3; }\n"},
      Member, "stdin", Frames);
  ASSERT_EQ(Frames.size(), 4u);
  EXPECT_TRUE(Frames[0].exitedWith(18));
  EXPECT_EQ(Frames[0].Stdout, "7 11\n");
  EXPECT_EQ(Frames[1].St, ProcessResult::Status::TimedOut);
  EXPECT_EQ(Frames[2].St, ProcessResult::Status::Signaled);
  EXPECT_TRUE(Frames[3].exitedWith(3));
  EXPECT_EQ(Frames[3].Stdout, "7\n");
}

TEST(BatchRendererTest, FramesObserveNothingOnAFailedOrGarbledDispatch) {
  SKIP_WITHOUT_HOST_CC();
  BatchRenderer::Result Packed = BatchRenderer::pack(
      {"int main(void) { printf(\"one\\n\"); return 1; }\n",
       "int main(void) { printf(\"two\\n\"); return 2; }\n",
       "int main(void) { printf(\"three\\n\"); return 3; }\n"},
      "#include <stdio.h>\n");
  ASSERT_TRUE(Packed.Ok) << Packed.Error;
  std::string Bin;
  ASSERT_TRUE(compilePacked(Packed.Source, "garbled", Bin));

  // A subset in a chosen order: frames come back in that order.
  BatchRenderer::Dispatch D =
      BatchRenderer::dispatch(Bin, {2, 0}, ProcessOptions());
  ProcessResult Run = runProcess(D.Argv, D.Opts);
  std::vector<ProcessResult> Good = BatchRenderer::frames(D, Run);
  ASSERT_EQ(Good.size(), 2u);
  EXPECT_TRUE(Good[0].exitedWith(3));
  EXPECT_EQ(Good[0].Stdout, "three\n");
  EXPECT_TRUE(Good[1].exitedWith(1));
  EXPECT_EQ(Good[1].Stdout, "one\n");

  auto Observed = [&D](const ProcessResult &R) {
    std::vector<bool> Seen;
    for (const ProcessResult &F : BatchRenderer::frames(D, R))
      Seen.push_back(F.St != ProcessResult::Status::StartFailed);
    return Seen;
  };
  // A short last frame loses that member only.
  ProcessResult Short = Run;
  Short.Stdout.pop_back();
  EXPECT_EQ(Observed(Short), (std::vector<bool>{true, false}));
  // A stream cut inside the first frame loses both.
  ProcessResult Cut = Run;
  Cut.Stdout.resize(3);
  EXPECT_EQ(Observed(Cut), (std::vector<bool>{false, false}));
  // Bytes after the last frame, a nonzero exit, a signal, a timeout or a
  // filled output cap distrust the whole run.
  ProcessResult Trailing = Run;
  Trailing.Stdout += "x";
  EXPECT_EQ(Observed(Trailing), (std::vector<bool>{false, false}));
  ProcessResult Failed = Run;
  Failed.ExitCode = 2;
  EXPECT_EQ(Observed(Failed), (std::vector<bool>{false, false}));
  ProcessResult Killed = Run;
  Killed.St = ProcessResult::Status::TimedOut;
  EXPECT_EQ(Observed(Killed), (std::vector<bool>{false, false}));
  ProcessResult Full = Run;
  Full.Stdout.resize(D.Opts.MaxOutputBytes, 'x');
  EXPECT_EQ(Observed(Full), (std::vector<bool>{false, false}));
  // Frames answer for the members asked for, in order: the same bytes
  // decoded against another member list observe nothing.
  BatchRenderer::Dispatch Other =
      BatchRenderer::dispatch(Bin, {0, 2}, ProcessOptions());
  for (const ProcessResult &F : BatchRenderer::frames(Other, Run))
    EXPECT_EQ(F.St, ProcessResult::Status::StartFailed);
  // An index outside the packed TU fails the dispatcher itself.
  BatchRenderer::Dispatch Bad =
      BatchRenderer::dispatch(Bin, {0, 3}, ProcessOptions());
  for (const ProcessResult &F :
       BatchRenderer::frames(Bad, runProcess(Bad.Argv, Bad.Opts)))
    EXPECT_EQ(F.St, ProcessResult::Status::StartFailed);
}

//===----------------------------------------------------------------------===//
// Harness batching contract (in-process backend: no compiler needed)
//===----------------------------------------------------------------------===//

namespace {

HarnessOptions batchedCampaignOptions() {
  HarnessOptions Opts;
  Opts.Configs = {{Persona::GccSim, 70, 0, true, {}},
                  {Persona::GccSim, 70, 2, true, {}},
                  {Persona::ClangSim, 120, 2, true, {}}};
  Opts.VariantBudget = 10;
  return Opts;
}

std::vector<std::string> batchedCampaignSeeds() {
  return {embeddedSeeds()[0], embeddedSeeds()[2], embeddedSeeds()[5]};
}

} // namespace

TEST(BatchedHarnessTest, ResultsAreBitIdenticalAcrossBatchSizeAndThreads) {
  std::vector<std::string> Seeds = batchedCampaignSeeds();
  HarnessOptions Opts = batchedCampaignOptions();
  Opts.BatchSize = 1;
  Opts.Threads = 1;
  CoverageRegistry RefCov;
  Opts.Cov = &RefCov;
  CampaignResult Ref = DifferentialHarness(Opts).runCampaign(Seeds);
  EXPECT_GT(Ref.VariantsTested, 0u);
  // The in-process backend finds real (ground-truth) bugs on these seeds,
  // so identity below covers finding-bearing campaigns, not just counters.
  EXPECT_FALSE(Ref.RawFindings.empty());
  EXPECT_GT(RefCov.hitPoints(), 0u);

  for (uint64_t Batch : {2u, 8u, 64u}) {
    for (unsigned Threads : {1u, 2u, 4u}) {
      Opts.BatchSize = Batch;
      Opts.Threads = Threads;
      // With coverage on a batch ends where the chunk registry changes;
      // the merged hit set must not notice.
      CoverageRegistry Cov;
      Opts.Cov = &Cov;
      CampaignResult R = DifferentialHarness(Opts).runCampaign(Seeds);
      EXPECT_TRUE(R == Ref) << "BatchSize " << Batch << " x " << Threads
                            << " threads changed the campaign result";
      EXPECT_EQ(Cov.hitSet(), RefCov.hitSet())
          << "BatchSize " << Batch << " x " << Threads
          << " threads changed the coverage hit set";
    }
  }
}

TEST(BatchedHarnessTest, ResumeWorksAcrossBatchSizesBothWays) {
  // BatchSize is deliberately not part of the options fingerprint: a
  // campaign checkpointed at one batch size must resume at any other with
  // bit-identical final results.
  std::vector<std::string> Seeds = batchedCampaignSeeds();
  HarnessOptions Base = batchedCampaignOptions();
  Base.CheckpointEveryN = 3;

  for (auto [CrashBatch, ResumeBatch] :
       {std::pair<uint64_t, uint64_t>{8, 1}, {1, 8}, {8, 64}}) {
    std::string Tag = std::to_string(CrashBatch) + "_to_" +
                      std::to_string(ResumeBatch);
    HarnessOptions Ref = Base;
    Ref.CheckpointPath = tempPath("resume_" + Tag + "_ref.ck");
    Ref.BatchSize = ResumeBatch;
    CampaignResult Uninterrupted = DifferentialHarness(Ref).runCampaign(Seeds);

    HarnessOptions Crashing = Base;
    Crashing.CheckpointPath = tempPath("resume_" + Tag + ".ck");
    Crashing.BatchSize = CrashBatch;
    Crashing.SimulateCrashAfter = 7;
    (void)DifferentialHarness(Crashing).runCampaign(Seeds);

    HarnessOptions Resuming = Base;
    Resuming.CheckpointPath = Crashing.CheckpointPath;
    Resuming.BatchSize = ResumeBatch;
    CampaignResult Resumed;
    std::string Err;
    ASSERT_TRUE(
        DifferentialHarness(Resuming).resumeCampaign(Seeds, Resumed, Err))
        << "crash@" << CrashBatch << " resume@" << ResumeBatch << ": " << Err;
    EXPECT_TRUE(Resumed == Uninterrupted)
        << "crash@" << CrashBatch << " resume@" << ResumeBatch
        << " diverged from the uninterrupted campaign";
  }
}
