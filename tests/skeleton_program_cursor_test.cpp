//===- tests/skeleton_program_cursor_test.cpp - program cursor tests -----===//
//
// The mixed-radix Cartesian-product cursor over skeleton units: its stream
// must equal the independently computed product of per-unit streams, whole-
// program variant #k must be addressable via seek(k), and shard ranges
// restored into fresh cursors (the harness's route) must partition the
// program space exactly.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"

#include "gtest/gtest.h"

using namespace spe;

namespace {

struct Pipeline {
  ASTContext Ctx;
  DiagnosticEngine Diags;
  std::unique_ptr<Sema> Analysis;
  std::vector<SkeletonUnit> Units;
};

std::unique_ptr<Pipeline> extract(const std::string &Source,
                                  ExtractorOptions Opts = {}) {
  auto P = std::make_unique<Pipeline>();
  EXPECT_TRUE(Parser::parse(Source, P->Ctx, P->Diags)) << P->Diags.toString();
  P->Analysis = std::make_unique<Sema>(P->Ctx, P->Diags);
  EXPECT_TRUE(P->Analysis->run()) << P->Diags.toString();
  SkeletonExtractor Ex(P->Ctx, *P->Analysis, Opts);
  P->Units = Ex.extract();
  return P;
}

/// Two functions plus a hole-less one: three units with mixed radices.
const char *MultiUnitSource = "int a, b;\n"
                              "void f(void) { a = a - b; b = a; }\n"
                              "void g(void) { int c = 2; b = c + a; }\n"
                              "void h(void) { ; }\n";

/// Independent oracle: the Cartesian product of the per-unit streams, unit 0
/// most significant, computed with nested loops over per-unit cursors is
/// avoided on purpose -- per-unit streams come from SpeEnumerator.
std::vector<ProgramAssignment>
referenceProduct(const std::vector<SkeletonUnit> &Units, SpeMode Mode) {
  std::vector<std::vector<Assignment>> PerUnit;
  for (const SkeletonUnit &Unit : Units) {
    std::vector<Assignment> Stream;
    SpeEnumerator(Unit.Skeleton, Mode).enumerate([&](const Assignment &A) {
      Stream.push_back(A);
      return true;
    });
    PerUnit.push_back(std::move(Stream));
  }
  std::vector<ProgramAssignment> Product;
  ProgramAssignment Current(Units.size());
  std::function<void(size_t)> Recurse = [&](size_t U) {
    if (U == Units.size()) {
      Product.push_back(Current);
      return;
    }
    for (const Assignment &A : PerUnit[U]) {
      Current[U] = A;
      Recurse(U + 1);
    }
  };
  Recurse(0);
  return Product;
}

std::vector<ProgramAssignment> drain(ProgramCursor &Cursor) {
  std::vector<ProgramAssignment> Out;
  while (const ProgramAssignment *PA = Cursor.next())
    Out.push_back(*PA);
  return Out;
}

/// Restores shard \p Index of \p Count over [0, \p End) into \p Cursor, the
/// way the harness splits a seed's budget across its threads.
void restoreShard(ProgramCursor &Cursor, const BigInt &End, uint64_t Index,
                  uint64_t Count) {
  BigInt Begin, ShardEnd;
  cursor_detail::shardRange(BigInt(0), End, Index, Count, Begin, ShardEnd);
  ASSERT_TRUE(
      Cursor.restoreState({Begin.toString(), ShardEnd.toString(), "0"}));
}

} // namespace

TEST(ProgramCursorTest, StreamMatchesReferenceProduct) {
  auto P = extract(MultiUnitSource);
  ASSERT_GE(P->Units.size(), 3u);
  for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
    SCOPED_TRACE(speModeName(Mode));
    std::vector<ProgramAssignment> Expected =
        referenceProduct(P->Units, Mode);
    ProgramCursor Cursor(P->Units, Mode);
    EXPECT_EQ(Cursor.size(), BigInt(Expected.size()));
    EXPECT_EQ(Cursor.size(), ProgramEnumerator(P->Units, Mode).countSpe());
    EXPECT_EQ(drain(Cursor), Expected);
  }
}

TEST(ProgramCursorTest, SeekAddressesVariantKDirectly) {
  auto P = extract(MultiUnitSource);
  std::vector<ProgramAssignment> Expected =
      referenceProduct(P->Units, SpeMode::Exact);
  for (size_t K = 0; K <= Expected.size(); ++K) {
    ProgramCursor Cursor(P->Units, SpeMode::Exact);
    Cursor.seek(BigInt(K));
    const ProgramAssignment *PA = Cursor.next();
    if (K == Expected.size()) {
      EXPECT_EQ(PA, nullptr);
      continue;
    }
    ASSERT_NE(PA, nullptr);
    EXPECT_EQ(*PA, Expected[K]) << "seek(" << K << ")";
  }
}

TEST(ProgramCursorTest, SeekThenStreamContinuesInOrder) {
  auto P = extract(MultiUnitSource);
  std::vector<ProgramAssignment> Expected =
      referenceProduct(P->Units, SpeMode::Exact);
  size_t Mid = Expected.size() / 2;
  ProgramCursor Cursor(P->Units, SpeMode::Exact);
  Cursor.seek(BigInt(Mid));
  std::vector<ProgramAssignment> Suffix = drain(Cursor);
  ASSERT_EQ(Suffix.size(), Expected.size() - Mid);
  for (size_t I = 0; I < Suffix.size(); ++I)
    EXPECT_EQ(Suffix[I], Expected[Mid + I]);
}

TEST(ProgramCursorTest, ShardPartitionsTheProgramSpaceExactly) {
  auto P = extract(MultiUnitSource);
  for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
    SCOPED_TRACE(speModeName(Mode));
    std::vector<ProgramAssignment> Expected = referenceProduct(P->Units, Mode);
    for (uint64_t N : {1u, 2u, 4u, 5u, 13u}) {
      std::vector<ProgramAssignment> Concat;
      for (uint64_t I = 0; I < N; ++I) {
        ProgramCursor Shard(P->Units, Mode);
        restoreShard(Shard, Shard.size(), I, N);
        std::vector<ProgramAssignment> Part = drain(Shard);
        Concat.insert(Concat.end(), Part.begin(), Part.end());
      }
      EXPECT_EQ(Concat, Expected) << "n=" << N;
    }
  }
}

TEST(ProgramCursorTest, TruncatedShardsPartitionTheBudgetPrefix) {
  // The harness pattern: cap the space at a budget, then shard the prefix.
  auto P = extract(MultiUnitSource);
  std::vector<ProgramAssignment> Expected =
      referenceProduct(P->Units, SpeMode::Exact);
  const uint64_t Budget = 7;
  ASSERT_GT(Expected.size(), Budget);
  std::vector<ProgramAssignment> Concat;
  for (uint64_t I = 0; I < 3; ++I) {
    ProgramCursor Shard(P->Units, SpeMode::Exact);
    restoreShard(Shard, BigInt(Budget), I, 3);
    std::vector<ProgramAssignment> Part = drain(Shard);
    Concat.insert(Concat.end(), Part.begin(), Part.end());
  }
  Expected.resize(Budget);
  EXPECT_EQ(Concat, Expected);
}

TEST(ProgramCursorTest, HolelessUnitsYieldSingleEmptyVariant) {
  auto P = extract("void h(void) { ; }\n");
  ProgramCursor Cursor(P->Units, SpeMode::Exact);
  EXPECT_EQ(Cursor.size(), BigInt(1));
  const ProgramAssignment *PA = Cursor.next();
  ASSERT_NE(PA, nullptr);
  for (const Assignment &A : *PA)
    EXPECT_TRUE(A.empty());
  EXPECT_EQ(Cursor.next(), nullptr);
}
