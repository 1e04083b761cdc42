//===- tests/testing_divergence_golden_test.cpp - divergence exactness ---===//
//
// The loop-head divergence checks of the reference interpreter and the
// MiniCC VM (DESIGN.md Section 18) must change nothing but time: every
// verdict, exit code and output is the one the full step budget produces.
// This battery pins that against digests computed before the checks
// existed, over two variant streams:
//
//   * the loop/call corpus (the first 600 ranks of each of the ten seeds
//     the validity property test sweeps). Oracle digest: FNV-1a over each
//     variant's interpreter verdict at a 100K-step budget -- status, plus
//     exit code and output when the status is not Timeout. VM digest:
//     FNV-1a over the MiniCC observations of the oracle-Ok variants under
//     gcc-sim 4.8 -O3 and clang-sim 3.6 -O3 (bugs on) -- compile status,
//     exec status, plus exit code and output when the exec status is not
//     Timeout. Seeds 6 and 7 hold the miscompiled counting loops only a
//     drift proof ends early in the VM.
//   * corpus2p's oracle stream (its generator at base 2000 through the
//     harness's pruned cursor, first 400 ranks, 2M steps), digested the
//     same way, computed before drift proofs existed.
//
// Each executor must also have proven at least one repeat and one drift,
// so no pin can pass because a proof never fired; each stream prints its
// Timeout census by reason, and the oracle's census is pinned: the corpus2p
// stream's two goto cycles must be proven repeats.
//
// Both streams also pin a full-field oracle digest: every ExecResult
// field -- status, Timeout reason, exit code, output, message and the
// executed statement ids -- so a change that keeps verdicts but moves a
// UB message or the executed set fails here too.
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "compiler/Compiler.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "persist/LineText.h"
#include "core/ValidityPruning.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <map>

using namespace spe;

namespace {

struct StreamDigest {
  uint64_t Variants = 0, OracleOk = 0, OracleTimeouts = 0, VmRuns = 0,
           VmTimeouts = 0;
  std::map<std::string, uint64_t> OracleCensus, VmCensus;
  linetext::Fnv Oracle, Vm, Full;
};

/// Hashes every field of \p R into \p H.
void hashAllFields(linetext::Fnv &H, const ExecResult &R) {
  H.u64(static_cast<uint64_t>(R.Status));
  H.u64(static_cast<uint64_t>(R.Reason));
  H.u64(static_cast<uint64_t>(R.ExitCode));
  H.str(R.Output);
  H.str(R.Message);
  H.u64(std::count(R.ExecutedStmts.begin(), R.ExecutedStmts.end(), true));
  for (size_t Id = 0; Id < R.ExecutedStmts.size(); ++Id)
    if (R.ExecutedStmts[Id])
      H.u64(Id);
}

void printCensus(const char *What, const std::map<std::string, uint64_t> &C) {
  for (const auto &[Reason, N] : C)
    std::printf("%s timeouts: %s=%llu\n", What, Reason.c_str(),
                static_cast<unsigned long long>(N));
}

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
        D.Full.u64(0xff);
        continue;
      }
      InterpOptions IO;
      IO.MaxSteps = 100'000;
      ExecResult Ref = interpret(*VCtx, IO);
      hashAllFields(D.Full, Ref);
      D.Oracle.u64(static_cast<uint64_t>(Ref.Status));
      if (Ref.Status == ExecStatus::Timeout) {
        ++D.OracleTimeouts;
        ++D.OracleCensus[timeoutReasonName(Ref.Reason)];
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
          ++D.VmCensus[timeoutReasonName(V.Reason)];
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

struct OracleDigest {
  uint64_t Variants = 0, Timeouts = 0;
  std::map<std::string, uint64_t> Census;
  linetext::Fnv H, Full;
};

/// corpus2p's oracle stream: every seed of its generator at base 2000,
/// through the harness's pruned cursor (threshold 10K, first 400 ranks),
/// judged at the harness's 2M-step budget.
OracleDigest digestCorpus2p() {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  for (std::string &S : generateCorpus(2000, 40, Opts))
    Seeds.push_back(std::move(S));
  OracleDigest D;
  for (const std::string &Seed : Seeds) {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    if (!Parser::parse(Seed, Ctx, Diags))
      continue;
    Sema Analysis(Ctx, Diags);
    if (!Analysis.run())
      continue;
    std::vector<SkeletonUnit> Units =
        SkeletonExtractor(Ctx, Analysis, {}).extract();
    BigInt Count = ProgramEnumerator(Units, SpeMode::Exact).countSpe();
    if (Count > BigInt(10'000))
      continue;
    std::vector<ValidityConstraints> Validity =
        analyzeValidity(Ctx, Analysis, Units);
    ProgramCursor Cursor(Units, SpeMode::Exact);
    Cursor.setConstraints(constraintPtrs(Validity));
    Cursor.setEnd(BigInt(400) < Count ? BigInt(400) : Count);
    VariantRenderer Renderer(Ctx, Units);
    std::string Source;
    while (const ProgramAssignment *PA = Cursor.next()) {
      Renderer.renderInto(*PA, Source);
      ++D.Variants;
      std::unique_ptr<ASTContext> VCtx = parseAndAnalyze(Source);
      if (!VCtx) {
        D.H.u64(0xff);
        D.Full.u64(0xff);
        continue;
      }
      ExecResult Ref = interpret(*VCtx);
      hashAllFields(D.Full, Ref);
      D.H.u64(static_cast<uint64_t>(Ref.Status));
      if (Ref.Status == ExecStatus::Timeout) {
        ++D.Timeouts;
        ++D.Census[timeoutReasonName(Ref.Reason)];
        EXPECT_TRUE(Ref.Output.empty());
        continue;
      }
      D.H.u64(static_cast<uint64_t>(Ref.ExitCode));
      D.H.str(Ref.Output);
    }
  }
  return D;
}

} // namespace

TEST(DivergenceGoldenTest, Corpus2pOracleVerdictsMatchTheFullBudgetRun) {
  OracleDigest D = digestCorpus2p();
  printCensus("corpus2p oracle", D.Census);

  // Computed with the executors before drift proofs existed.
  EXPECT_EQ(D.Variants, 3077u);
  EXPECT_EQ(D.Timeouts, 54u);
  EXPECT_EQ(D.H.H, 0x1167d8dc53851232ull);
  // Every ExecResult field, the executed statements included.
  EXPECT_EQ(D.Full.H, 0xaa60ddc61b7c82c5ull);

  EXPECT_GT(D.Census["drift"], 0u) << "the interpreter never proved a drift";
  // The embedded trick: seed's two cycling variants loop through a goto.
  EXPECT_EQ(D.Census["repeat"], 2u) << "the goto cycles were not proven";
  EXPECT_EQ(D.Census["budget"], 0u);
}

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
  // Every ExecResult field, the executed statements included.
  EXPECT_EQ(D.Full.H, 0xefa48858327fb46cull);

  printCensus("loop-corpus oracle", D.OracleCensus);
  printCensus("loop-corpus VM", D.VmCensus);
  // A taken goto is a detection point: loops whose body takes a forward
  // goto restart their own detector every turn, so only the goto's proves
  // them (loop-head detectors alone: 1510 repeat, 238 drift, 148 budget).
  EXPECT_EQ(D.OracleCensus["repeat"], 1624u);
  EXPECT_EQ(D.OracleCensus["drift"], 238u);
  EXPECT_EQ(D.OracleCensus["budget"], 34u);
  EXPECT_GT(D.VmCensus["repeat"], 0u) << "the VM never proved a repeat";
  EXPECT_GT(D.VmCensus["drift"], 0u) << "the VM never proved a drift";
}
