//===- tests/testing_matrix_equivalence_test.cpp - matrix battery --------===//
//
// The equivalence battery behind the N-way differential matrix (DESIGN.md
// Section 14). The matrix generalizes the campaign loop along two axes --
// N backends per variant, M sweep inputs per compiled artifact -- and the
// guarantee that makes it trustworthy is degeneration: with N=2 (the
// reference oracle plus one backend) and M=1 (the single empty-stdin
// execution) the generalized loop must be bit-identical to the classic
// campaign, and a genuine matrix campaign must be bit-identical across
// thread counts, batch sizes, kill/resume points, and attached telemetry
// and status feeds, because the batched pipeline, the unbatched inline
// loop, and the resumed continuation are three different code paths over
// the same deterministic rank stream.
//
//===----------------------------------------------------------------------===//

#include "compiler/Passes.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "persist/Checkpoint.h"
#include "persist/LineText.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/CampaignStatus.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"
#include "testing/OracleCache.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

using namespace spe;

namespace {

/// An InProcessBackend clone under its own identity. Behaviorally
/// identical to the default backend, so a matrix over clones exercises the
/// full N-way compile/execute/vote machinery while every cell agrees --
/// the determinism tests isolate the plumbing, not divergence handling.
struct CloneBackend : CompilerBackend {
  InProcessBackend Inner;
  std::string Name;
  CloneBackend(std::string Name, bool InjectBugs)
      : Inner(InjectBugs), Name(std::move(Name)) {}
  std::string identity() const override { return Name; }
  bool hasGroundTruth() const override { return true; }
  BackendObservation run(const std::string &S, const CompilerConfig &C,
                         CoverageRegistry *Cov) const override {
    return Inner.run(S, C, Cov);
  }
  BackendObservation runWithInput(const std::string &S,
                                  const CompilerConfig &C,
                                  const std::string &In,
                                  CoverageRegistry *Cov) const override {
    return Inner.runWithInput(S, C, In, Cov);
  }
  std::vector<BackendObservation>
  runSweep(const std::string &S, const CompilerConfig &C,
           const std::vector<std::string> &Ins,
           CoverageRegistry *Cov) const override {
    return Inner.runSweep(S, C, Ins, Cov);
  }
};

/// Seeds whose enumeration reaches injected-bug triggers, plus one seed
/// that reads the sweep: spe_input() feeds the comparison different
/// behavior per input, so M > 1 exercises real per-cell verdicts instead
/// of M copies of the same execution.
std::vector<std::string> matrixSeeds() {
  const std::vector<std::string> &Embedded = embeddedSeeds();
  return {Embedded[0],
          "int main(void) {\n"
          "  int a = spe_input();\n"
          "  int b = 3, c = 1;\n"
          "  c = c - b;\n"
          "  if (a > c)\n"
          "    c = a - c;\n"
          "  return c * 10 + b;\n"
          "}\n",
          Embedded[2]};
}

HarnessOptions classicOptions(unsigned Threads, uint64_t BatchSize) {
  HarnessOptions Opts;
  Opts.Configs = HarnessOptions::crashMatrix(Persona::GccSim, 48);
  Opts.VariantBudget = 30;
  Opts.Threads = Threads;
  Opts.BatchSize = BatchSize;
  return Opts;
}

/// A real matrix shape: three backends (the default in-process primary
/// plus two clones) x four sweep inputs on every config.
HarnessOptions matrixOptions(unsigned Threads, uint64_t BatchSize,
                             const CloneBackend &B, const CloneBackend &C) {
  HarnessOptions Opts = classicOptions(Threads, BatchSize);
  for (CompilerConfig &Config : Opts.Configs)
    Config.ExecSweep = {"1\n", "7\n", "-3\n", "100\n"};
  Opts.ExtraBackends = {&B, &C};
  return Opts;
}

struct TempDir {
  std::string Dir;
  explicit TempDir(const std::string &Name)
      : Dir("matrix_test_tmp/" + Name) {
    std::filesystem::remove_all(Dir);
    std::filesystem::create_directories(Dir);
  }
  std::string path(const char *File) const { return Dir + "/" + File; }
};

struct RunOutput {
  CampaignResult Result;
  CoverageRegistry Cov;
};

RunOutput runWith(const HarnessOptions &Base,
                  const std::vector<std::string> &Seeds = matrixSeeds()) {
  RunOutput Out;
  registerPassCoverageCatalog(Out.Cov);
  HarnessOptions Opts = Base;
  Opts.Cov = &Out.Cov;
  Out.Result = DifferentialHarness(Opts).runCampaign(Seeds);
  return Out;
}

void expectIdentical(const RunOutput &A, const RunOutput &B,
                     const std::string &Tag) {
  EXPECT_TRUE(A.Result == B.Result)
      << Tag << ": results diverged (" << A.Result.VariantsTested << "/"
      << B.Result.VariantsTested << " tested, "
      << A.Result.RawFindings.size() << "/" << B.Result.RawFindings.size()
      << " raw findings, " << A.Result.MatrixCellsCompared << "/"
      << B.Result.MatrixCellsCompared << " cells)";
  EXPECT_EQ(A.Cov.hitSet(), B.Cov.hitSet()) << Tag;
}

} // namespace

//===----------------------------------------------------------------------===//
// The in-process batch: one lowering per variant equals one compile per config
//===----------------------------------------------------------------------===//

namespace {

/// The variants among the first \p Ranks ranks of \p Seed's SPE space
/// that the reference oracle reads Ok at \p MaxSteps: what a campaign
/// with that budget hands to its backends.
std::vector<std::string> testedVariants(const std::string &Seed,
                                        uint64_t Ranks, uint64_t MaxSteps) {
  std::vector<std::string> Tested;
  ASTContext Ctx;
  DiagnosticEngine Diags;
  if (!Parser::parse(Seed, Ctx, Diags))
    return Tested;
  Sema Analysis(Ctx, Diags);
  if (!Analysis.run())
    return Tested;
  SkeletonExtractor Extractor(Ctx, Analysis, {});
  std::vector<SkeletonUnit> Units = Extractor.extract();
  ProgramCursor Cursor(Units, SpeMode::Exact);
  Cursor.setEnd(BigInt(Ranks));
  VariantRenderer Renderer(Ctx, Units);
  std::string Source;
  while (const ProgramAssignment *PA = Cursor.next()) {
    Renderer.renderInto(*PA, Source);
    std::unique_ptr<ASTContext> VCtx = parseAndAnalyze(Source);
    if (!VCtx)
      continue;
    InterpOptions IO;
    IO.MaxSteps = MaxSteps;
    if (interpret(*VCtx, IO).ok())
      Tested.push_back(Source);
  }
  return Tested;
}

/// "" when \p A and \p B agree in every field, else the first that does
/// not.
std::string firstFieldDiff(const BackendObservation &A,
                           const BackendObservation &B) {
  if (A.Compile != B.Compile)
    return "Compile";
  if (A.CrashSignature != B.CrashSignature)
    return "CrashSignature";
  if (A.CrashBugId != B.CrashBugId)
    return "CrashBugId";
  if (A.FiredBugs != B.FiredBugs)
    return "FiredBugs";
  if (A.CompileTimeAnomaly != B.CompileTimeAnomaly)
    return "CompileTimeAnomaly";
  if (A.Exec != B.Exec)
    return "Exec";
  if (A.ExitCode != B.ExitCode)
    return "ExitCode";
  if (A.ExitCodeLow8 != B.ExitCodeLow8)
    return "ExitCodeLow8";
  if (A.Output != B.Output)
    return "Output";
  return "";
}

/// What the compared cells held, so a pass cannot come from cells that
/// never crashed, fired a bug or ran.
struct CellCensus {
  uint64_t Cells = 0, Crashed = 0, Fired = 0, Ran = 0, Timeouts = 0;
};

/// Runs \p Variants under \p Configs three times, each run into a fresh
/// registry: as a runSweep() loop per config (a parse and a whole compile
/// per row, and each row of a swept config checked against one
/// runWithInput() per input), and twice through InProcessBackend's batch
/// (one lowering per variant) -- once parsing each variant itself, and
/// once lowering an AST handed in through BatchExpectation::Parsed that
/// was parsed once and interpreted under every input of the matrix at
/// \p MaxSteps, as the harness's oracle phase leaves it. Every observation
/// field and the coverage hit sets must agree.
void expectBatchEqualsSweeps(const InProcessBackend &Backend,
                             const std::vector<std::string> &Variants,
                             const std::vector<CompilerConfig> &Configs,
                             uint64_t MaxSteps, const std::string &Tag,
                             CellCensus &Census) {
  CoverageRegistry SweepCov;
  registerPassCoverageCatalog(SweepCov);
  std::vector<std::vector<std::vector<BackendObservation>>> Sweeps;
  unsigned Reported = 0;
  for (const std::string &Variant : Variants) {
    std::vector<std::vector<BackendObservation>> &Rows = Sweeps.emplace_back();
    for (const CompilerConfig &Config : Configs) {
      std::vector<std::string> Ins = configInputs(Config);
      Rows.push_back(Backend.runSweep(Variant, Config, Ins, &SweepCov));
      // A row over several inputs equals one run per input: no VM run is
      // shared across inputs.
      for (size_t I = 0; Ins.size() > 1 && I < Ins.size(); ++I) {
        std::string Diff = firstFieldDiff(
            Rows.back()[I],
            Backend.runWithInput(Variant, Config, Ins[I], &SweepCov));
        if (!Diff.empty() && Reported++ < 5)
          ADD_FAILURE() << Tag << ": " << Diff << " differs for input " << I
                        << " between runSweep and runWithInput of\n"
                        << Variant;
      }
    }
  }
  EXPECT_EQ(Reported, 0u) << Tag << ": rows differing from single runs";
  for (const std::vector<std::vector<BackendObservation>> &Rows : Sweeps)
    for (const std::vector<BackendObservation> &Row : Rows)
      for (const BackendObservation &O : Row) {
        ++Census.Cells;
        Census.Crashed +=
            O.Compile == BackendObservation::CompileStatus::Crashed;
        Census.Fired += !O.FiredBugs.empty();
        Census.Ran += O.Exec != BackendObservation::ExecStatus::NotRun;
        Census.Timeouts += O.Exec == BackendObservation::ExecStatus::Timeout;
      }

  for (bool HandOver : {false, true}) {
    std::string Mode = Tag + (HandOver ? " (oracle AST)" : " (fresh parse)");
    std::vector<BatchExpectation> Expected(Variants.size());
    // The lent ASTs, alive until finishBatch returns.
    std::vector<std::unique_ptr<ASTContext>> Lent;
    if (HandOver) {
      for (size_t V = 0; V < Variants.size(); ++V) {
        std::unique_ptr<ASTContext> &Ctx =
            Lent.emplace_back(parseAndAnalyze(Variants[V]));
        ASSERT_TRUE(Ctx) << Mode << "\n" << Variants[V];
        for (const std::string &Input : sweepUnion(Configs)) {
          InterpOptions IO;
          IO.MaxSteps = MaxSteps;
          IO.Input = Input;
          interpret(*Ctx, IO);
        }
        Expected[V].Parsed = Ctx.get();
      }
    }
    CoverageRegistry BatchCov;
    registerPassCoverageCatalog(BatchCov);
    auto Batch = Backend.finishBatch(
        Backend.beginBatch(Variants, std::move(Expected), Configs, &BatchCov));
    Reported = 0;
    EXPECT_EQ(Batch.size(), Variants.size()) << Mode;
    for (size_t V = 0; V < Variants.size() && V < Batch.size(); ++V) {
      EXPECT_EQ(Batch[V].size(), Configs.size()) << Mode;
      for (size_t C = 0; C < Configs.size() && C < Batch[V].size(); ++C) {
        const std::vector<BackendObservation> &Row = Sweeps[V][C];
        EXPECT_EQ(Batch[V][C].size(), Row.size()) << Mode;
        for (size_t I = 0; I < Row.size() && I < Batch[V][C].size(); ++I) {
          std::string Diff = firstFieldDiff(Batch[V][C][I], Row[I]);
          if (!Diff.empty() && Reported++ < 5)
            ADD_FAILURE() << Mode << ": " << Diff << " differs for config "
                          << C << ", input " << I << " of\n"
                          << Variants[V];
        }
      }
    }
    EXPECT_EQ(Reported, 0u) << Mode << ": differing cells";
    EXPECT_EQ(BatchCov.hitSet(), SweepCov.hitSet()) << Mode;
    // Neither half may go unrecorded on both paths alike: the batch hits
    // the lowering's irgen.* points and the pipelines' pass points.
    size_t IRGenHits = 0, PassHits = 0;
    for (const std::string &Point : BatchCov.hitSet())
      (Point.rfind("irgen.", 0) == 0 ? IRGenHits : PassHits) += 1;
    if (!Variants.empty()) {
      EXPECT_GT(IRGenHits, 0u) << Mode;
      EXPECT_GT(PassHits, 0u) << Mode;
    }
  }
}

} // namespace

TEST(MatrixEquivalenceTest, LoweredBatchEqualsPerConfigSweeps) {
  // InProcessBackend's batch shares a variant's parse (or the oracle's
  // AST), features, IRGen, one verified module per (opt level,
  // mutilation) and one VM run per (module, input) across every config;
  // only the bug hooks are per config. That must be unobservable: both
  // personas' crash matrices, an opt-level sweep and a swept config, bugs
  // on and off.
  // The opt-level sweep is clang-sim's: at gcc-sim 4.8 -O1, bug 7
  // miscompiles every variant of embedded seed 4 into a loop only the
  // VM's 5M-step budget ends, about 25 s of VM time per pass.
  std::vector<CompilerConfig> Configs =
      HarnessOptions::crashMatrix(Persona::GccSim, 48);
  for (const std::vector<CompilerConfig> &More :
       {HarnessOptions::crashMatrix(Persona::ClangSim, 39),
        HarnessOptions::optLevelSweep(Persona::ClangSim, 39)})
    Configs.insert(Configs.end(), More.begin(), More.end());
  CompilerConfig Swept{Persona::ClangSim, 36, 2, false, {"1\n", "7\n", "-3\n"}};
  Configs.push_back(Swept);

  // Every tested variant of the embedded seeds at corpus2p's budget, of
  // a seed that computes its exit code from its stdin (no corpus seed
  // reads stdin, so only it shows a VM run shared across the swept
  // config's inputs), and a slice of the loop corpus at loops_ckpt's
  // step budget.
  std::vector<std::vector<std::string>> Batches;
  std::vector<uint64_t> BatchSteps;
  std::vector<std::string> Seeds = embeddedSeeds();
  Seeds.push_back("int main(void) {\n"
                  "  int a = spe_input();\n"
                  "  int b = 1;\n"
                  "  if (a > b)\n"
                  "    b = a - b;\n"
                  "  return b * 10 + a;\n"
                  "}\n");
  for (const std::string &Seed : Seeds) {
    Batches.push_back(testedVariants(Seed, 400, 2'000'000));
    BatchSteps.push_back(2'000'000);
  }
  CorpusOptions LoopOpts;
  LoopOpts.UninitLocalProb = 0.6;
  LoopOpts.BoundedLoopProb = 0.6;
  LoopOpts.RichHelperProb = 0.6;
  for (const std::string &Seed : generateCorpus(8000, 4, LoopOpts)) {
    Batches.push_back(testedVariants(Seed, 150, 100'000));
    BatchSteps.push_back(100'000);
  }

  for (bool InjectBugs : {true, false}) {
    InProcessBackend Backend(InjectBugs);
    uint64_t Variants = 0;
    CellCensus Census;
    for (size_t B = 0; B < Batches.size(); ++B) {
      Variants += Batches[B].size();
      expectBatchEqualsSweeps(Backend, Batches[B], Configs, BatchSteps[B],
                              std::string(InjectBugs ? "bugs" : "fixed") +
                                  " batch " + std::to_string(B),
                              Census);
    }
    std::printf("bugs %s: %llu variants, %llu cells: %llu crashed, %llu "
                "fired a bug, %llu ran, %llu timed out\n",
                InjectBugs ? "on" : "off",
                static_cast<unsigned long long>(Variants),
                static_cast<unsigned long long>(Census.Cells),
                static_cast<unsigned long long>(Census.Crashed),
                static_cast<unsigned long long>(Census.Fired),
                static_cast<unsigned long long>(Census.Ran),
                static_cast<unsigned long long>(Census.Timeouts));
    EXPECT_GT(Variants, 1000u);
    EXPECT_GT(Census.Ran, 0u);
    if (InjectBugs) {
      EXPECT_GT(Census.Crashed, 0u);
      EXPECT_GT(Census.Fired, Census.Crashed);
    }
  }
}

namespace {

/// An InProcessBackend behind a forwarding double that records, for each
/// variant handed to beginBatch, whether its expectation lent an AST.
struct HandOverProbe : CompilerBackend {
  InProcessBackend Inner;
  mutable std::vector<bool> Carried;
  std::string identity() const override { return Inner.identity(); }
  bool hasGroundTruth() const override { return Inner.hasGroundTruth(); }
  BackendObservation run(const std::string &S, const CompilerConfig &C,
                         CoverageRegistry *Cov) const override {
    return Inner.run(S, C, Cov);
  }
  BackendObservation runWithInput(const std::string &S,
                                  const CompilerConfig &C,
                                  const std::string &In,
                                  CoverageRegistry *Cov) const override {
    return Inner.runWithInput(S, C, In, Cov);
  }
  std::vector<BackendObservation>
  runSweep(const std::string &S, const CompilerConfig &C,
           const std::vector<std::string> &Ins,
           CoverageRegistry *Cov) const override {
    return Inner.runSweep(S, C, Ins, Cov);
  }
  std::unique_ptr<BatchTicket>
  beginBatch(std::vector<std::string> Sources,
             std::vector<BatchExpectation> Expected,
             std::vector<CompilerConfig> Configs,
             CoverageRegistry *Cov) const override {
    for (const BatchExpectation &E : Expected)
      Carried.push_back(E.Parsed != nullptr);
    return Inner.beginBatch(std::move(Sources), std::move(Expected),
                            std::move(Configs), Cov);
  }
  std::vector<std::vector<std::vector<BackendObservation>>>
  finishBatch(std::unique_ptr<BatchTicket> Ticket) const override {
    return Inner.finishBatch(std::move(Ticket));
  }
  /// How many recorded variants carried an AST; clears the record.
  size_t takeCarried(size_t &Total) const {
    Total = Carried.size();
    size_t N = static_cast<size_t>(
        std::count(Carried.begin(), Carried.end(), true));
    Carried.clear();
    return N;
  }
};

/// One campaign under \p Opts, run through \p Backend (null = the
/// harness's own InProcessBackend) into a fresh registry.
RunOutput runThrough(HarnessOptions Opts, const CompilerBackend *Backend) {
  Opts.Backend = Backend;
  return runWith(Opts);
}

} // namespace

TEST(MatrixEquivalenceTest, VariantAstReachesTheBackendUnbatchedOnHitAndMiss) {
  // Unbatched, every tested variant's batch begins and finishes inside
  // one add(), so the harness lends its AST -- the cursor range's bound
  // AST, or the oracle's parse where the binder refused -- whether its
  // verdict was computed or replayed from the cache. Batched, it lends
  // none. The results never depend on it.
  HandOverProbe Probe;
  size_t Total = 0;

  // Unbatched, cold: every tested variant carries an AST.
  HarnessOptions Opts = classicOptions(1, 1);
  OracleCache PlainCache, ProbeCache;
  Opts.Cache = &PlainCache;
  RunOutput Plain = runThrough(Opts, nullptr);
  Opts.Cache = &ProbeCache;
  RunOutput Probed = runThrough(Opts, &Probe);
  expectIdentical(Plain, Probed, "unbatched, cold cache");
  EXPECT_EQ(Probe.takeCarried(Total), Total);
  EXPECT_EQ(Total, Probed.Result.VariantsTested);
  EXPECT_GT(Total, 0u);
  EXPECT_EQ(Probed.Result.OracleCacheHits, 0u);

  // A second pass over the warm cache replays every verdict, and still
  // every tested variant carries an AST.
  Opts.Cache = &PlainCache;
  Plain = runThrough(Opts, nullptr);
  Opts.Cache = &ProbeCache;
  Probed = runThrough(Opts, &Probe);
  expectIdentical(Plain, Probed, "unbatched, warm cache");
  EXPECT_EQ(Probe.takeCarried(Total), Total);
  EXPECT_EQ(Total, Probed.Result.VariantsTested);
  EXPECT_GT(Total, 0u);
  EXPECT_GT(Probed.Result.OracleCacheHits, 0u);
  EXPECT_EQ(Probed.Result.OracleExecutions, 0u);

  // Batched: a batch stays in flight across add() calls, so no AST.
  Opts = classicOptions(1, 4);
  Plain = runThrough(Opts, nullptr);
  Probed = runThrough(Opts, &Probe);
  expectIdentical(Plain, Probed, "BatchSize 4");
  EXPECT_EQ(Probe.takeCarried(Total), 0u);
  EXPECT_EQ(Total, Probed.Result.VariantsTested);
  EXPECT_GT(Total, 0u);
}

//===----------------------------------------------------------------------===//
// Degeneration: N=2 / M=1 is the classic campaign
//===----------------------------------------------------------------------===//

TEST(MatrixEquivalenceTest, ClassicCampaignIsIdenticalAcrossThreadsAndBatch) {
  // The N=2/M=1 configuration (no ExtraBackends, no ExecSweep) must stay
  // the classic single-backend campaign, bit for bit, on every execution
  // strategy: the unbatched loop (BatchSize 1), the batched pipeline
  // (BatchSize 8), and any worker count.
  RunOutput Ref = runWith(classicOptions(1, 1));
  EXPECT_FALSE(Ref.Result.RawFindings.empty());
  // The matrix counters must be inert in a classic campaign.
  EXPECT_EQ(Ref.Result.MatrixCellsCompared, 0u);
  EXPECT_EQ(Ref.Result.SweepCellsExcluded, 0u);
  // And classic findings must not carry matrix attribution: the sole
  // backend is implied, which is what keeps signatures and checkpoint
  // bytes unchanged from the pre-matrix format.
  for (const auto &KV : Ref.Result.RawFindings) {
    EXPECT_EQ(KV.first.BackendIdx, 0u);
    EXPECT_EQ(KV.first.InputIdx, 0u);
    EXPECT_EQ(KV.second.Backend, "");
    EXPECT_EQ(KV.second.Input, "");
  }
  for (unsigned Threads : {1u, 2u, 4u})
    for (uint64_t Batch : {uint64_t(1), uint64_t(8)}) {
      if (Threads == 1 && Batch == 1)
        continue;
      expectIdentical(runWith(classicOptions(Threads, Batch)), Ref,
                      "classic t" + std::to_string(Threads) + " b" +
                          std::to_string(Batch));
    }
}

TEST(MatrixEquivalenceTest, EmptySweepEqualsSingletonEmptySweep) {
  // M=1 written explicitly (ExecSweep {""}) must degenerate to no sweep at
  // all: configInputs maps both to the same single empty-stdin execution.
  RunOutput Plain = runWith(classicOptions(2, 4));
  HarnessOptions Explicit = classicOptions(2, 4);
  for (CompilerConfig &Config : Explicit.Configs)
    Config.ExecSweep = {""};
  expectIdentical(runWith(Explicit), Plain, "explicit M=1");
}

//===----------------------------------------------------------------------===//
// Matrix determinism: threads x batch sizes
//===----------------------------------------------------------------------===//

TEST(MatrixEquivalenceTest, MatrixCampaignIsDeterministic) {
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  RunOutput Ref = runWith(matrixOptions(1, 1, B, C));
  // The matrix must have actually engaged: per-cell comparisons happened,
  // and with agreeing clones the finding stream still attributes per
  // roster slot (the same ground-truth bug observed by three backends is
  // three raw findings).
  EXPECT_GT(Ref.Result.MatrixCellsCompared, 0u);
  EXPECT_FALSE(Ref.Result.RawFindings.empty());
  bool SawExtraSlot = false;
  for (const auto &KV : Ref.Result.RawFindings)
    SawExtraSlot |= KV.first.BackendIdx > 0;
  EXPECT_TRUE(SawExtraSlot)
      << "no finding was attributed to an ExtraBackends roster slot";
  for (unsigned Threads : {1u, 2u, 4u})
    for (uint64_t Batch : {uint64_t(1), uint64_t(8)}) {
      if (Threads == 1 && Batch == 1)
        continue;
      expectIdentical(runWith(matrixOptions(Threads, Batch, B, C)), Ref,
                      "matrix t" + std::to_string(Threads) + " b" +
                          std::to_string(Batch));
    }

  // Observation stays inert on the matrix path: a traced run with a live
  // status feed equals the untraced reference.
  TempDir T("traced");
  TelemetrySink Sink;
  CampaignStatusFeed Status({T.path("status.json"), 0});
  Status.attachSink(&Sink);
  HarnessOptions Traced = matrixOptions(2, 8, B, C);
  Traced.Telemetry = &Sink;
  Traced.Status = &Status;
  RunOutput R = runWith(Traced);
  expectIdentical(R, Ref, "matrix traced");
  EXPECT_GT(R.Result.Telemetry.countFor("render"), 0u);
  EXPECT_GT(Status.writes(), 0u);
}

TEST(MatrixEquivalenceTest, SweepInputsReachProgramBehavior) {
  // The spe_input() seed must produce different oracle verdicts across the
  // sweep -- otherwise M executions are one execution copied M times and
  // the matrix proves nothing. Detect via the harness itself: a sweep
  // campaign must compare strictly more cells than configs x variants
  // (i.e. the extra inputs were actually executed and compared).
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  RunOutput Swept = runWith(matrixOptions(1, 1, B, C));
  HarnessOptions OneInput = matrixOptions(1, 1, B, C);
  for (CompilerConfig &Config : OneInput.Configs)
    Config.ExecSweep = {"1\n"};
  RunOutput Single = runWith(OneInput);
  EXPECT_GT(Swept.Result.MatrixCellsCompared,
            Single.Result.MatrixCellsCompared);
}

//===----------------------------------------------------------------------===//
// Resume-mid-matrix: the kill-point battery
//===----------------------------------------------------------------------===//

TEST(MatrixEquivalenceTest, ResumeMidMatrixIsExact) {
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  std::vector<std::string> Seeds = matrixSeeds();

  HarnessOptions RefOpts = matrixOptions(2, 4, B, C);
  RefOpts.CheckpointEveryN = 5;
  TempDir RefT("ref");
  RunOutput Ref;
  registerPassCoverageCatalog(Ref.Cov);
  {
    HarnessOptions Opts = RefOpts;
    Opts.Cov = &Ref.Cov;
    Opts.CheckpointPath = RefT.path("campaign.ck");
    Ref.Result = DifferentialHarness(Opts).runCampaign(Seeds);
  }

  for (uint64_t KillAfter : {uint64_t(3), uint64_t(11), uint64_t(26),
                             uint64_t(47)}) {
    TempDir T("kill_" + std::to_string(KillAfter));
    {
      // The "crashed process": a batch may be mid-flight across the whole
      // roster when the kill lands; its tickets are abandoned.
      CoverageRegistry CrashCov;
      registerPassCoverageCatalog(CrashCov);
      HarnessOptions Opts = RefOpts;
      Opts.Cov = &CrashCov;
      Opts.CheckpointPath = T.path("campaign.ck");
      Opts.SimulateCrashAfter = KillAfter;
      DifferentialHarness(Opts).runCampaign(Seeds);
    }
    RunOutput Resumed;
    registerPassCoverageCatalog(Resumed.Cov);
    HarnessOptions Opts = RefOpts;
    Opts.Cov = &Resumed.Cov;
    Opts.CheckpointPath = T.path("campaign.ck");
    std::string Err;
    ASSERT_TRUE(DifferentialHarness(Opts).resumeCampaign(Seeds,
                                                         Resumed.Result, Err))
        << "kill@" << KillAfter << ": " << Err;
    expectIdentical(Resumed, Ref, "kill@" + std::to_string(KillAfter));
  }
}

TEST(MatrixEquivalenceTest, RosterAndSweepSkewRejectTheResume) {
  // The checkpoint fingerprints the full roster identity list and every
  // config's sweep: resuming the same file under a different matrix shape
  // must be refused, not silently diverge.
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  std::vector<std::string> Seeds = matrixSeeds();
  TempDir T("skew");
  HarnessOptions Opts = matrixOptions(1, 1, B, C);
  Opts.CheckpointPath = T.path("campaign.ck");
  DifferentialHarness(Opts).runCampaign(Seeds);

  CampaignResult Ignored;
  std::string Err;
  {
    // Dropped roster slot.
    HarnessOptions Skew = Opts;
    Skew.ExtraBackends = {&B};
    EXPECT_FALSE(
        DifferentialHarness(Skew).resumeCampaign(Seeds, Ignored, Err));
  }
  {
    // Same roster size, different identity.
    CloneBackend D("minicc-cloneD", true);
    HarnessOptions Skew = Opts;
    Skew.ExtraBackends = {&B, &D};
    EXPECT_FALSE(
        DifferentialHarness(Skew).resumeCampaign(Seeds, Ignored, Err));
  }
  {
    // Extended sweep.
    HarnessOptions Skew = Opts;
    for (CompilerConfig &Config : Skew.Configs)
      Config.ExecSweep.push_back("9\n");
    EXPECT_FALSE(
        DifferentialHarness(Skew).resumeCampaign(Seeds, Ignored, Err));
  }
}

//===----------------------------------------------------------------------===//
// Result goldens: the 1x1 matrix against the pre-unification harness
//===----------------------------------------------------------------------===//
//
// The batteries above compare the harness with itself, so they cannot see a
// change that every execution strategy makes alike -- such as stamping the
// first sweep input on a compile-level finding. These digests were computed
// by the harness that still recorded classic campaigns on a separate path;
// the single recorder must reproduce them exactly.

namespace {

/// FNV-1a over everything a campaign reports: the checkpointed result text
/// (counters, bugs, raw findings) plus the triaged report -- signatures,
/// reduced witnesses, and the Reduction counters.
uint64_t resultDigest(const CampaignResult &R) {
  std::ostringstream Text;
  linetext::writeResult(Text, R);
  linetext::Fnv F;
  F.str(Text.str());
  for (const TriagedBug &T : R.Triaged) {
    F.str(T.Sig.str());
    F.str(T.Representative.WitnessProgram);
    for (int Id : T.MemberIds)
      F.u64(static_cast<uint64_t>(Id));
    F.u64(T.RawCount);
    F.u64(T.TokensBefore);
    F.u64(T.TokensAfter);
  }
  const ReductionStats &S = R.Reduction;
  for (uint64_t V : {S.RawBugs, S.Clusters, S.TokensBefore, S.TokensAfter,
                     S.StatementsDeleted, S.DeclsDropped, S.ExprsSimplified,
                     S.RankMinimized, S.ReductionProbes, S.OracleRuns,
                     S.OracleCacheHits})
    F.u64(V);
  return F.H;
}

} // namespace

TEST(MatrixEquivalenceTest, ClassicTriagedRunMatchesGolden) {
  HarnessOptions Opts = classicOptions(1, 1);
  Opts.Triage = true;
  CampaignResult R = runWith(Opts).Result;
  ASSERT_FALSE(R.Triaged.empty());
  EXPECT_EQ(resultDigest(R), 17994021794422596766ull);
}

TEST(MatrixEquivalenceTest, MatrixRunWithCompileCrashesMatchesGolden) {
  // Embedded seed 6 crashes the GccSim 4.8 compiler, so this 3-backend x
  // 4-input run records compile-level findings, which carry no sweep input.
  CloneBackend B("minicc-cloneB", true), C("minicc-cloneC", true);
  HarnessOptions Opts = matrixOptions(1, 1, B, C);
  Opts.Triage = true;
  std::vector<std::string> Seeds = matrixSeeds();
  Seeds.push_back(embeddedSeeds()[6]);
  CampaignResult R = runWith(Opts, Seeds).Result;
  ASSERT_FALSE(R.Triaged.empty());
  ASSERT_GT(R.CrashObservations, 0u);
  bool SawCrash = false;
  for (const auto &KV : R.RawFindings)
    if (KV.second.Effect == BugEffect::Crash) {
      SawCrash = true;
      EXPECT_EQ(KV.first.InputIdx, 0u);
      EXPECT_EQ(KV.second.Input, "");
    }
  EXPECT_TRUE(SawCrash);
  EXPECT_EQ(resultDigest(R), 8500990216299444023ull);
}

TEST(MatrixEquivalenceTest, CheckpointedTwoPersonaRunMatchesGolden) {
  TempDir T("golden_two_persona");
  OracleCache Cache;
  HarnessOptions Opts = classicOptions(2, 1);
  for (const CompilerConfig &Config :
       HarnessOptions::crashMatrix(Persona::ClangSim, 39))
    Opts.Configs.push_back(Config);
  Opts.Triage = true;
  Opts.CheckpointPath = T.path("campaign.ck");
  Opts.CheckpointEveryN = 5;
  Opts.Cache = &Cache;
  Opts.OracleStorePath = T.path("oracle.log");
  CampaignResult R = runWith(Opts).Result;
  ASSERT_FALSE(R.Triaged.empty());
  ASSERT_GT(R.OracleStoreBytes, 0u);
  EXPECT_EQ(resultDigest(R), 1531586173821078158ull);
}
