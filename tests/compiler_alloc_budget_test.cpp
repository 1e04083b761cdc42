//===- tests/compiler_alloc_budget_test.cpp - allocation budgets ----------===//
//
// How many heap allocations the in-process backend makes per tested variant
// (DESIGN.md Section 12.1), and the reference oracle per run (Section
// 18.1). This binary replaces the global operator new and delete with
// counting versions, so it is its own executable: every allocation
// anywhere in it counts, and the budgets below hold only while the
// backend's per-variant path reuses its buffers and the oracle's frames,
// executed-statement set and block memory allocate nothing per step.
//
//===----------------------------------------------------------------------===//

#include "compiler/Backend.h"
#include "interp/Interpreter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"
#include "testing/Harness.h"

#include "gtest/gtest.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::atomic<uint64_t> Allocations{0};

void *counted(std::size_t Size) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(Size ? Size : 1);
}
void *countedOrThrow(std::size_t Size) {
  if (void *P = counted(Size))
    return P;
  throw std::bad_alloc();
}
} // namespace

// Every form but the over-aligned ones, which nothing here uses, so that
// each allocation is counted and each is freed the way it was allocated.
void *operator new(std::size_t Size) { return countedOrThrow(Size); }
void *operator new[](std::size_t Size) { return countedOrThrow(Size); }
void *operator new(std::size_t Size, const std::nothrow_t &) noexcept {
  return counted(Size);
}
void *operator new[](std::size_t Size, const std::nothrow_t &) noexcept {
  return counted(Size);
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace spe;

namespace {

/// One variant as the harness hands it over: its text, its expectation
/// and the analysed AST the oracle ran, which the expectation lends.
struct Variant {
  std::string Source;
  std::unique_ptr<ASTContext> Ctx;
  ExecResult Verdict;
};

/// The first \p Ranks cursor ranks of every corpus2p seed at base 2000
/// that the oracle runs to an exit, as a campaign would test them.
std::vector<Variant> corpus2pVariants(unsigned Ranks) {
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Gen = generateCorpus(2000, 40, CO);
  Seeds.insert(Seeds.end(), Gen.begin(), Gen.end());
  std::vector<Variant> Out;
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
    ProgramCursor Cursor(Units, SpeMode::Exact);
    VariantRenderer Renderer(Ctx, Units);
    for (unsigned Rank = 0; Rank < Ranks; ++Rank) {
      const ProgramAssignment *PA = Cursor.next();
      if (!PA)
        break;
      Variant V;
      Renderer.renderInto(*PA, V.Source);
      V.Ctx = parseAndAnalyze(V.Source);
      if (!V.Ctx)
        continue;
      V.Verdict = interpret(*V.Ctx);
      if (V.Verdict.Status == ExecStatus::Ok)
        Out.push_back(std::move(V));
    }
  }
  return Out;
}

/// The analysed ASTs of the first \p Ranks cursor ranks of every seed of
/// the loop/call corpus as the loops_ckpt benchmark generates it (base
/// 8000).
std::vector<std::unique_ptr<ASTContext>> loopCorpusVariants(unsigned Ranks) {
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  CO.BoundedLoopProb = 0.6;
  CO.RichHelperProb = 0.6;
  std::vector<std::unique_ptr<ASTContext>> Out;
  for (const std::string &Seed : generateCorpus(8000, 12, CO)) {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    if (!Parser::parse(Seed, Ctx, Diags))
      continue;
    Sema Analysis(Ctx, Diags);
    if (!Analysis.run())
      continue;
    std::vector<SkeletonUnit> Units =
        SkeletonExtractor(Ctx, Analysis, {}).extract();
    ProgramCursor Cursor(Units, SpeMode::Exact);
    VariantRenderer Renderer(Ctx, Units);
    std::string Source;
    for (unsigned Rank = 0; Rank < Ranks; ++Rank) {
      const ProgramAssignment *PA = Cursor.next();
      if (!PA)
        break;
      Renderer.renderInto(*PA, Source);
      if (std::unique_ptr<ASTContext> V = parseAndAnalyze(Source))
        Out.push_back(std::move(V));
    }
  }
  return Out;
}

/// The batch arguments of each variant, built before anything is counted
/// and moved into beginBatch, which takes them by value.
struct BatchArgs {
  std::vector<std::string> Sources;
  std::vector<BatchExpectation> Expected;
  std::vector<CompilerConfig> Configs;
};

std::vector<BatchArgs> batchArgs(const std::vector<Variant> &Variants,
                                 const std::vector<CompilerConfig> &Configs) {
  std::vector<BatchArgs> Out;
  for (const Variant &V : Variants) {
    BatchExpectation E;
    E.Valid = true;
    E.ExitCode = V.Verdict.ExitCode;
    E.Output = V.Verdict.Output;
    E.Parsed = V.Ctx.get();
    Out.push_back({{V.Source}, {E}, Configs});
  }
  return Out;
}

} // namespace

TEST(CompilerAllocBudgetTest, InProcessBatchesStayWithinTheirBudget) {
  // corpus2p's configs: both personas' crash matrices, -O0 and -O3 at -m64
  // and -m32. Each variant is one batch, as in an unbatched campaign.
  std::vector<CompilerConfig> Configs =
      HarnessOptions::crashMatrix(Persona::GccSim, 48);
  std::vector<CompilerConfig> Clang =
      HarnessOptions::crashMatrix(Persona::ClangSim, 39);
  Configs.insert(Configs.end(), Clang.begin(), Clang.end());
  std::vector<Variant> Variants = corpus2pVariants(8);
  ASSERT_GT(Variants.size(), 100u);

  InProcessBackend Backend;
  size_t Executed = 0;
  auto RunAll = [&](std::vector<BatchArgs> Args) {
    for (BatchArgs &A : Args) {
      std::vector<std::vector<std::vector<BackendObservation>>> Obs =
          Backend.finishBatch(Backend.beginBatch(std::move(A.Sources),
                                                 std::move(A.Expected),
                                                 std::move(A.Configs),
                                                 nullptr));
      for (const std::vector<BackendObservation> &Row : Obs.at(0))
        for (const BackendObservation &O : Row)
          Executed += O.Exec != BackendObservation::ExecStatus::NotRun;
    }
  };
  // The first pass warms up whatever the backend keeps between variants;
  // the second one is counted.
  RunAll(batchArgs(Variants, Configs));
  std::vector<BatchArgs> Counted = batchArgs(Variants, Configs);
  Executed = 0;
  uint64_t Before = Allocations.load();
  RunAll(std::move(Counted));
  uint64_t Made = Allocations.load() - Before;
  double PerVariant = double(Made) / double(Variants.size());
  std::printf("%zu variants, %zu executed cells, %.1f allocations per "
              "variant\n",
              Variants.size(), Executed, PerVariant);
  EXPECT_GT(Executed, Variants.size());
  // Half of the 204.7 allocations per variant this test measured before
  // IRGen, the passes, the VM and the memo reused their buffers.
  EXPECT_LE(PerVariant, 102.0);
}

TEST(CompilerAllocBudgetTest, OracleRunsStayWithinTheirBudget) {
  // The loops_ckpt benchmark's oracle budget: about a third of these runs
  // loop until a repeat or drift proof ends them, or the budget does.
  std::vector<std::unique_ptr<ASTContext>> Variants = loopCorpusVariants(64);
  ASSERT_GT(Variants.size(), 500u);
  InterpOptions IO;
  IO.MaxSteps = 100'000;
  size_t Timeouts = 0;
  auto RunAll = [&] {
    Timeouts = 0;
    for (const std::unique_ptr<ASTContext> &V : Variants)
      Timeouts += interpret(*V, IO).Status == ExecStatus::Timeout;
  };
  // The first pass warms up whatever the oracle keeps between runs; the
  // second one is counted.
  RunAll();
  uint64_t Before = Allocations.load();
  RunAll();
  uint64_t Made = Allocations.load() - Before;
  double PerRun = double(Made) / double(Variants.size());
  std::printf("%zu runs, %zu timeouts, %.1f allocations per run\n",
              Variants.size(), Timeouts, PerRun);
  EXPECT_GT(Timeouts, 0u);
  // A quarter of the 89.2 allocations per run this test measured while
  // each call built a std::map frame and each newly executed statement a
  // std::set node.
  EXPECT_LE(PerRun, 22.3);
}
