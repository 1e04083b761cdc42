//===- tests/testing_divergence_golden_test.cpp - divergence exactness ---===//
//
// The loop-head divergence check of the reference interpreter and the
// MiniCC VM (DESIGN.md Section 18) must change nothing but time: every
// verdict, exit code and output is the one the full step budget produces.
// This battery pins that against digests computed before the check
// existed, over the variant stream of the loop/call corpus (the first 600
// ranks of each of the ten seeds the validity property test sweeps):
//
//   * oracle digest: FNV-1a over each variant's interpreter verdict at a
//     100K-step budget -- status, plus exit code and output when the
//     status is not Timeout;
//   * VM digest: FNV-1a over the MiniCC observations of the oracle-Ok
//     variants under gcc-sim 4.8 -O3 and clang-sim 3.6 -O3 (bugs on) --
//     compile status, exec status, plus exit code and output when the
//     exec status is not Timeout.
//
// Both executors must also have proven at least one repeat, so the pin
// cannot pass because the check never fired.
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "persist/LineText.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

const char RepeatMessage[] = "state repeats at loop head";

struct StreamDigest {
  uint64_t Variants = 0, OracleOk = 0, OracleTimeouts = 0, VmRuns = 0,
           VmTimeouts = 0;
  uint64_t OracleRepeats = 0, VmRepeats = 0;
  linetext::Fnv Oracle, Vm;
};

/// The loop/call corpus of testing_validity_property_test's loopSeeds().
std::vector<std::string> loopSeeds(unsigned CorpusCount) {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  Opts.BoundedLoopProb = 0.6;
  Opts.RichHelperProb = 0.6;
  return generateCorpus(8000, CorpusCount, Opts);
}

StreamDigest digestLoopCorpus() {
  const CompilerConfig Configs[] = {{Persona::GccSim, 48, 3, true, {}},
                                    {Persona::ClangSim, 36, 3, true, {}}};
  StreamDigest D;
  for (const std::string &Seed : loopSeeds(10)) {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    if (!Parser::parse(Seed, Ctx, Diags)) {
      ADD_FAILURE() << "seed does not parse:\n" << Seed;
      continue;
    }
    Sema Analysis(Ctx, Diags);
    if (!Analysis.run()) {
      ADD_FAILURE() << "seed fails Sema:\n" << Seed;
      continue;
    }
    SkeletonExtractor Extractor(Ctx, Analysis, {});
    std::vector<SkeletonUnit> Units = Extractor.extract();
    ProgramCursor Cursor(Units, SpeMode::Exact);
    Cursor.setEnd(BigInt(600));
    VariantRenderer Renderer(Ctx, Units);
    std::string Source;
    while (const ProgramAssignment *PA = Cursor.next()) {
      Renderer.renderInto(*PA, Source);
      ++D.Variants;
      std::unique_ptr<ASTContext> VCtx = parseAndAnalyze(Source);
      if (!VCtx) {
        D.Oracle.u64(0xff);
        continue;
      }
      InterpOptions IO;
      IO.MaxSteps = 100'000;
      ExecResult Ref = interpret(*VCtx, IO);
      D.Oracle.u64(static_cast<uint64_t>(Ref.Status));
      if (Ref.Status == ExecStatus::Timeout) {
        ++D.OracleTimeouts;
        D.OracleRepeats += Ref.Message == RepeatMessage;
        EXPECT_TRUE(Ref.Output.empty());
        continue;
      }
      D.Oracle.u64(static_cast<uint64_t>(Ref.ExitCode));
      D.Oracle.str(Ref.Output);
      if (!Ref.ok())
        continue;
      ++D.OracleOk;
      for (const CompilerConfig &Config : Configs) {
        CompileResult C = MiniCompiler(Config).compile(*VCtx);
        D.Vm.u64(static_cast<uint64_t>(C.St));
        if (!C.ok())
          continue;
        VMResult V = executeModule(C.Module);
        ++D.VmRuns;
        D.Vm.u64(static_cast<uint64_t>(V.Status));
        if (V.Status == VMStatus::Timeout) {
          ++D.VmTimeouts;
          D.VmRepeats += V.Message == RepeatMessage;
          EXPECT_TRUE(V.Output.empty());
          continue;
        }
        D.Vm.u64(static_cast<uint64_t>(V.ExitCode));
        D.Vm.str(V.Output);
      }
    }
  }
  return D;
}

} // namespace

TEST(DivergenceGoldenTest, VerdictStreamsMatchTheFullBudgetRun) {
  StreamDigest D = digestLoopCorpus();

  // Computed with the budget-only executors, before the check existed.
  EXPECT_EQ(D.Variants, 5528u);
  EXPECT_EQ(D.OracleOk, 810u);
  EXPECT_EQ(D.OracleTimeouts, 1896u);
  EXPECT_EQ(D.VmRuns, 1620u);
  EXPECT_EQ(D.VmTimeouts, 98u);
  EXPECT_EQ(D.Oracle.H, 0xe3fe16aa7dcb4edeull);
  EXPECT_EQ(D.Vm.H, 0x91bf84aa9632f583ull);

  EXPECT_GT(D.OracleRepeats, 0u) << "the interpreter never proved a repeat";
  EXPECT_GT(D.VmRepeats, 0u) << "the VM never proved a repeat";
}
