//===- tests/skeleton_stream_golden_test.cpp - rendered stream pins ------===//
//
// The pruned, rendered variant stream is what every consumer of the
// enumerator reads, so it must not move by a byte when the cursor or the
// renderer gets faster. This battery pins it against FNV-1a digests that
// were computed while pruning still rank-decoded every violation and the
// renderer still re-printed the whole AST per variant:
//
//   * default corpus: embeddedSeeds() plus generateCorpus(2000, 40) with
//     UninitLocalProb 0.6, the first 400 ranks of every seed;
//   * loop corpus: generateCorpus(8000, 12) with loop, rich-helper and
//     uninit probabilities 0.6, the first 5000 ranks of every seed.
//
// Each digest hashes every rendered source in stream order. The same
// digest must come out three ways: one cursor per seed; three shards on
// three threads (each owning its cursor and renderer) concatenated in
// shard order; and a stream stopped every 97 variants and resumed on a
// fresh cursor and renderer through saveState/restoreState.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "persist/LineText.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "skeleton/VariantRenderer.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

#include <memory>
#include <thread>

using namespace spe;

namespace {

/// One seed after the front end: everything the cursors and renderers of
/// every run share read-only.
struct SeedPlan {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<Sema> Analysis;
  std::vector<SkeletonUnit> Units;
  std::vector<ValidityConstraints> Validity;
};

std::unique_ptr<SeedPlan> plan(const std::string &Source) {
  auto P = std::make_unique<SeedPlan>();
  if (!Parser::parse(Source, P->Ctx, P->Diags))
    return nullptr;
  P->Analysis = std::make_unique<Sema>(P->Ctx, P->Diags);
  if (!P->Analysis->run())
    return nullptr;
  P->Units = SkeletonExtractor(P->Ctx, *P->Analysis, {}).extract();
  P->Validity = analyzeValidity(P->Ctx, *P->Analysis, P->Units);
  return P;
}

struct StreamDigest {
  uint64_t Rendered = 0;
  BigInt Pruned;
  linetext::Fnv Hash;

  void add(const std::string &Source) {
    ++Rendered;
    Hash.str(Source);
  }
};

/// A pruned cursor over the first \p Cap ranks of \p P.
ProgramCursor cursorFor(const SeedPlan &P, uint64_t Cap) {
  ProgramCursor Cursor(P.Units, SpeMode::Exact);
  Cursor.setConstraints(constraintPtrs(P.Validity));
  Cursor.setEnd(BigInt(Cap));
  return Cursor;
}

void streamOnce(const SeedPlan &P, uint64_t Cap, StreamDigest &D) {
  ProgramCursor Cursor = cursorFor(P, Cap);
  VariantRenderer Renderer(P.Ctx, P.Units);
  std::string Source;
  while (const ProgramAssignment *PA = Cursor.next()) {
    Renderer.renderInto(*PA, Source);
    D.add(Source);
  }
  D.Pruned += Cursor.pruned();
}

void streamSharded(const SeedPlan &P, uint64_t Cap, StreamDigest &D) {
  constexpr unsigned Shards = 3;
  std::vector<std::vector<std::string>> Sources(Shards);
  std::vector<BigInt> Pruned(Shards);
  std::vector<std::thread> Workers;
  for (unsigned S = 0; S < Shards; ++S) {
    Workers.emplace_back([&, S] {
      // The harness's route: a shard is a rank range restored into a
      // fresh cursor.
      ProgramCursor Cursor = cursorFor(P, Cap);
      BigInt Begin, End;
      cursor_detail::shardRange(BigInt(0), Cursor.end(), S, Shards, Begin,
                                End);
      ASSERT_TRUE(
          Cursor.restoreState({Begin.toString(), End.toString(), "0"}));
      VariantRenderer Renderer(P.Ctx, P.Units);
      std::string Source;
      while (const ProgramAssignment *PA = Cursor.next()) {
        Renderer.renderInto(*PA, Source);
        Sources[S].push_back(Source);
      }
      Pruned[S] = Cursor.pruned();
    });
  }
  for (std::thread &W : Workers)
    W.join();
  for (unsigned S = 0; S < Shards; ++S) {
    for (const std::string &Source : Sources[S])
      D.add(Source);
    D.Pruned += Pruned[S];
  }
}

void streamResumed(const SeedPlan &P, uint64_t Cap, StreamDigest &D) {
  constexpr uint64_t Stride = 97;
  CursorState State = cursorFor(P, Cap).saveState();
  for (bool Done = false; !Done;) {
    ProgramCursor Cursor(P.Units, SpeMode::Exact);
    Cursor.setConstraints(constraintPtrs(P.Validity));
    ASSERT_TRUE(Cursor.restoreState(State));
    VariantRenderer Renderer(P.Ctx, P.Units);
    std::string Source;
    uint64_t Taken = 0;
    while (Taken < Stride) {
      const ProgramAssignment *PA = Cursor.next();
      if (!PA) {
        Done = true;
        break;
      }
      Renderer.renderInto(*PA, Source);
      D.add(Source);
      ++Taken;
    }
    State = Cursor.saveState();
  }
  D.Pruned += BigInt::fromDecimalString(State.Pruned);
}

struct CorpusDigests {
  StreamDigest Once, Sharded, Resumed;
};

CorpusDigests digestCorpus(const std::vector<std::string> &Seeds,
                           uint64_t Cap) {
  CorpusDigests D;
  for (const std::string &Seed : Seeds) {
    std::unique_ptr<SeedPlan> P = plan(Seed);
    if (!P) {
      ADD_FAILURE() << "seed does not pass the front end:\n" << Seed;
      continue;
    }
    streamOnce(*P, Cap, D.Once);
    streamSharded(*P, Cap, D.Sharded);
    streamResumed(*P, Cap, D.Resumed);
  }
  return D;
}

/// The pinned values were computed with the decode-every-violation cursor
/// and the re-printing renderer.
void expectPinned(const CorpusDigests &D, uint64_t Rendered,
                  const char *Pruned, uint64_t Hash) {
  for (const StreamDigest *Run : {&D.Once, &D.Sharded, &D.Resumed}) {
    const char *Name = Run == &D.Once      ? "one cursor"
                       : Run == &D.Sharded ? "three shards"
                                           : "resumed every 97";
    EXPECT_EQ(Run->Rendered, Rendered) << Name;
    EXPECT_EQ(Run->Pruned.toString(), Pruned) << Name;
    EXPECT_EQ(Run->Hash.H, Hash) << Name;
  }
}

} // namespace

TEST(StreamGoldenTest, DefaultCorpusStreamIsPinned) {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  std::vector<std::string> Seeds = embeddedSeeds();
  std::vector<std::string> Generated = generateCorpus(2000, 40, Opts);
  Seeds.insert(Seeds.end(), Generated.begin(), Generated.end());
  CorpusDigests D = digestCorpus(Seeds, 400);
  expectPinned(D, 14533, "689", 0x0b420ba7dd1ca2a2ull);
}

TEST(StreamGoldenTest, LoopCorpusStreamIsPinned) {
  CorpusOptions Opts;
  Opts.UninitLocalProb = 0.6;
  Opts.BoundedLoopProb = 0.6;
  Opts.RichHelperProb = 0.6;
  CorpusDigests D = digestCorpus(generateCorpus(8000, 12, Opts), 5000);
  expectPinned(D, 37055, "13075", 0x9af87c733e744d79ull);
}
