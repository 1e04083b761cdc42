//===- tests/core_assignment_cursor_test.cpp - cursor unit tests ---------===//
//
// Correctness of the pull-based rankable cursor: the stream must equal the
// classic enumeration, seek(k) must agree with skipping k items, and shard
// ranges of a one-unit ProgramCursor (which owns ranges for every
// consumer) must partition the space exactly -- in both modes, across
// skeleton shapes (flat, nested, multi-type, sibling scopes, empty).
//
//===----------------------------------------------------------------------===//

#include "core/AlphaEquivalence.h"
#include "core/AssignmentCursor.h"
#include "core/NaiveEnumerator.h"
#include "core/SpeEnumerator.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "skeleton/ProgramEnumerator.h"
#include "skeleton/SkeletonExtractor.h"
#include "skeleton/ValidityAnalysis.h"
#include "testing/Corpus.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <random>
#include <set>

using namespace spe;

namespace {

AbstractSkeleton makeFlatSkeleton(unsigned NumVars, unsigned NumHoles) {
  AbstractSkeleton Sk;
  for (unsigned I = 0; I < NumVars; ++I)
    Sk.addVariable("v" + std::to_string(I), AbstractSkeleton::rootScope(), 0);
  for (unsigned I = 0; I < NumHoles; ++I)
    Sk.addHole(AbstractSkeleton::rootScope(), 0);
  return Sk;
}

/// Three-level nesting with holes at every level.
AbstractSkeleton makeNestedSkeleton() {
  AbstractSkeleton Sk;
  ScopeId Root = AbstractSkeleton::rootScope();
  ScopeId Mid = Sk.addScope(Root);
  ScopeId Leaf = Sk.addScope(Mid);
  Sk.addVariable("g", Root, 0);
  Sk.addVariable("h", Root, 0);
  Sk.addVariable("m", Mid, 0);
  Sk.addVariable("l", Leaf, 0);
  Sk.addHole(Root, 0);
  Sk.addHole(Mid, 0);
  Sk.addHole(Leaf, 0);
  Sk.addHole(Leaf, 0);
  Sk.addHole(Mid, 0);
  return Sk;
}

/// Two types, sibling scopes, and a hole-less type variable.
AbstractSkeleton makeMultiTypeSkeleton() {
  AbstractSkeleton Sk;
  ScopeId Root = AbstractSkeleton::rootScope();
  ScopeId S1 = Sk.addScope(Root);
  ScopeId S2 = Sk.addScope(Root);
  Sk.addVariable("a", Root, 0);
  Sk.addVariable("b", Root, 0);
  Sk.addVariable("x", S1, 0);
  Sk.addVariable("f", Root, 1);
  Sk.addVariable("g", S2, 1);
  Sk.addHole(S1, 0);
  Sk.addHole(S1, 0);
  Sk.addHole(Root, 0);
  Sk.addHole(S2, 1);
  Sk.addHole(S2, 1);
  return Sk;
}

std::vector<AbstractSkeleton> testSkeletons() {
  std::vector<AbstractSkeleton> Skeletons;
  Skeletons.push_back(makeFlatSkeleton(3, 5));
  Skeletons.push_back(makeFlatSkeleton(1, 4));
  Skeletons.push_back(makeFlatSkeleton(4, 0));
  Skeletons.push_back(makeNestedSkeleton());
  Skeletons.push_back(makeMultiTypeSkeleton());
  return Skeletons;
}

std::vector<Assignment> drain(AssignmentCursor &Cursor) {
  std::vector<Assignment> Out;
  while (const Assignment *A = Cursor.next())
    Out.push_back(*A);
  return Out;
}

/// \p Sk as a one-unit program.
std::vector<SkeletonUnit> oneUnit(const AbstractSkeleton &Sk) {
  std::vector<SkeletonUnit> Units(1);
  Units[0].Skeleton = Sk;
  return Units;
}

/// Restores shard \p Index of \p Count over [0, \p End) into \p Cursor, the
/// way the harness splits a seed's budget across its threads, and drains
/// the shard's only unit.
std::vector<Assignment> drainShard(ProgramCursor &Cursor, const BigInt &End,
                                   uint64_t Index, uint64_t Count) {
  BigInt Begin, ShardEnd;
  cursor_detail::shardRange(BigInt(0), End, Index, Count, Begin, ShardEnd);
  std::vector<Assignment> Out;
  EXPECT_TRUE(
      Cursor.restoreState({Begin.toString(), ShardEnd.toString(), "0"}));
  while (const ProgramAssignment *PA = Cursor.next())
    Out.push_back((*PA)[0]);
  return Out;
}

std::vector<Assignment> legacyStream(const AbstractSkeleton &Sk,
                                     SpeMode Mode) {
  std::vector<Assignment> Out;
  SpeEnumerator(Sk, Mode).enumerate([&](const Assignment &A) {
    Out.push_back(A);
    return true;
  });
  return Out;
}

} // namespace

TEST(AssignmentCursorTest, StreamMatchesEnumerateInBothModes) {
  for (const AbstractSkeleton &Sk : testSkeletons()) {
    for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
      SCOPED_TRACE(speModeName(Mode));
      std::vector<Assignment> Legacy = legacyStream(Sk, Mode);
      AssignmentCursor Cursor(Sk, Mode);
      EXPECT_EQ(Cursor.size(), SpeEnumerator(Sk, Mode).count());
      std::vector<Assignment> Pulled = drain(Cursor);
      EXPECT_EQ(Pulled, Legacy);
      EXPECT_EQ(Cursor.position(), Cursor.size());
      EXPECT_EQ(Cursor.next(), nullptr);
    }
  }
}

TEST(AssignmentCursorTest, ExactStreamIsCanonicalAndComplete) {
  // Independent oracle: brute-force canonical dedup over the naive space.
  for (const AbstractSkeleton &Sk : testSkeletons()) {
    AlphaCanonicalizer Canon(Sk);
    std::set<std::string> Expected;
    NaiveEnumerator(Sk).enumerate([&](const Assignment &A) {
      Expected.insert(Canon.canonicalKey(A));
      return true;
    });
    if (Sk.numHoles() == 0)
      Expected.insert(Canon.canonicalKey({}));
    AssignmentCursor Cursor(Sk, SpeMode::Exact);
    std::set<std::string> Seen;
    while (const Assignment *A = Cursor.next()) {
      EXPECT_EQ(Canon.canonicalRepresentative(*A), *A);
      EXPECT_TRUE(Seen.insert(Canon.canonicalKey(*A)).second)
          << "duplicate class emitted";
    }
    EXPECT_EQ(Seen, Expected);
  }
}

TEST(AssignmentCursorTest, SeekAgreesWithSkipping) {
  for (const AbstractSkeleton &Sk : testSkeletons()) {
    for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
      SCOPED_TRACE(speModeName(Mode));
      std::vector<Assignment> Full = legacyStream(Sk, Mode);
      for (size_t K = 0; K <= Full.size(); ++K) {
        AssignmentCursor Cursor(Sk, Mode);
        Cursor.seek(BigInt(K));
        EXPECT_EQ(Cursor.position(), BigInt(K));
        std::vector<Assignment> Suffix = drain(Cursor);
        ASSERT_EQ(Suffix.size(), Full.size() - K) << "seek(" << K << ")";
        for (size_t I = 0; I < Suffix.size(); ++I)
          EXPECT_EQ(Suffix[I], Full[K + I]) << "seek(" << K << ") item " << I;
      }
    }
  }
}

TEST(AssignmentCursorTest, SeekIsRepositionableBothDirections) {
  AbstractSkeleton Sk = makeNestedSkeleton();
  std::vector<Assignment> Full = legacyStream(Sk, SpeMode::Exact);
  ASSERT_GE(Full.size(), 10u);
  AssignmentCursor Cursor(Sk, SpeMode::Exact);
  for (size_t K : {size_t(7), size_t(2), Full.size() - 1, size_t(0)}) {
    Cursor.seek(BigInt(K));
    const Assignment *A = Cursor.next();
    ASSERT_NE(A, nullptr);
    EXPECT_EQ(*A, Full[K]) << "re-seek to " << K;
  }
  Cursor.seek(Cursor.size() + BigInt(5)); // Past the end: clamped.
  EXPECT_EQ(Cursor.next(), nullptr);

  // The loop corpus at base 8000: a cursor memoizes the completion counts
  // its decodes compute, so one cursor sent to shuffled ranks -- near and
  // far, forward and back -- must land where a fresh cursor does, and its
  // invalid spans must measure what a fresh cursor's do.
  CorpusOptions CO;
  CO.UninitLocalProb = 0.6;
  CO.BoundedLoopProb = 0.6;
  CO.RichHelperProb = 0.6;
  std::mt19937_64 Rng(8000);
  size_t Seeks = 0;
  for (const std::string &Source : generateCorpus(8000, 12, CO)) {
    ASTContext Ctx;
    DiagnosticEngine Diags;
    ASSERT_TRUE(Parser::parse(Source, Ctx, Diags));
    Sema Analysis(Ctx, Diags);
    ASSERT_TRUE(Analysis.run());
    std::vector<SkeletonUnit> Units =
        SkeletonExtractor(Ctx, Analysis, {}).extract();
    std::vector<ValidityConstraints> Validity =
        analyzeValidity(Ctx, Analysis, Units);
    for (size_t U = 0; U < Units.size(); ++U) {
      const AbstractSkeleton &Unit = Units[U].Skeleton;
      AssignmentCursor Reused(Unit, SpeMode::Exact);
      const BigInt Size = Reused.size();
      if (Size.isZero())
        continue;
      // The budget's ranks a campaign decodes, and a few far ones.
      std::vector<BigInt> Ranks;
      for (uint64_t R = 0; R < 48 && BigInt(R) < Size; ++R)
        Ranks.push_back(BigInt(R));
      for (uint64_t K = 1; K < 8; ++K)
        Ranks.push_back((Size * K).divideBySmall(8));
      std::shuffle(Ranks.begin(), Ranks.end(), Rng);
      for (const BigInt &R : Ranks) {
        SCOPED_TRACE("unit " + std::to_string(U) + " rank " + R.toString());
        AssignmentCursor Fresh(Unit, SpeMode::Exact);
        Fresh.seek(R);
        Reused.seek(R);
        const Assignment *Want = Fresh.next();
        const Assignment *Got = Reused.next();
        ASSERT_NE(Want, nullptr);
        ASSERT_NE(Got, nullptr);
        EXPECT_EQ(*Got, *Want);
        EXPECT_EQ(Reused.invalidSpanEnd(R, Validity[U]),
                  AssignmentCursor(Unit, SpeMode::Exact)
                      .invalidSpanEnd(R, Validity[U]));
        ++Seeks;
      }
    }
  }
  EXPECT_GT(Seeks, 100u);
}

TEST(AssignmentCursorTest, ShardPartitionsTheSpaceExactly) {
  for (const AbstractSkeleton &Sk : testSkeletons()) {
    std::vector<SkeletonUnit> Units = oneUnit(Sk);
    for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
      SCOPED_TRACE(speModeName(Mode));
      std::vector<Assignment> Full = legacyStream(Sk, Mode);
      for (uint64_t N : {1u, 2u, 3u, 4u, 7u, 32u}) {
        std::vector<Assignment> Concat;
        // One cursor that runs every shard in turn restores each at the
        // position it already holds, so it keeps its odometer.
        std::vector<Assignment> Reused;
        ProgramCursor Walker(Units, Mode);
        for (uint64_t I = 0; I < N; ++I) {
          ProgramCursor Shard(Units, Mode);
          std::vector<Assignment> Part =
              drainShard(Shard, Shard.size(), I, N);
          Concat.insert(Concat.end(), Part.begin(), Part.end());
          Part = drainShard(Walker, Walker.size(), I, N);
          Reused.insert(Reused.end(), Part.begin(), Part.end());
        }
        // Shards are contiguous rank ranges, so the concatenation in shard
        // order must reproduce the full stream exactly: no duplicate, no
        // loss, no reordering.
        EXPECT_EQ(Concat, Full) << "n=" << N;
        EXPECT_EQ(Reused, Full) << "n=" << N << ", one cursor";
      }
    }
  }
}

TEST(AssignmentCursorTest, ShardsAreBalanced) {
  AbstractSkeleton Sk = makeFlatSkeleton(4, 7); // 715 classes.
  std::vector<SkeletonUnit> Units = oneUnit(Sk);
  const uint64_t N = 8;
  BigInt Size = SpeEnumerator(Sk, SpeMode::Exact).count();
  BigInt Total(0);
  for (uint64_t I = 0; I < N; ++I) {
    BigInt Begin, End;
    cursor_detail::shardRange(BigInt(0), Size, I, N, Begin, End);
    ProgramCursor Shard(Units, SpeMode::Exact);
    ASSERT_TRUE(Shard.restoreState({Begin.toString(), End.toString(), "0"}));
    BigInt Len = Shard.end() - Shard.position();
    Total += Len;
    // Near-equal split: every shard within one of size/N.
    BigInt Lo = Shard.size().divideBySmall(N);
    EXPECT_GE(Len, Lo - (Lo.isZero() ? BigInt(0) : BigInt(1)));
    EXPECT_LE(Len, Lo + BigInt(1));
  }
  EXPECT_EQ(Size.toUint64(), 715u);
  EXPECT_EQ(Total, Size);
}

TEST(AssignmentCursorTest, SetEndTruncatesAndShardComposes) {
  AbstractSkeleton Sk = makeFlatSkeleton(3, 6); // 122 classes.
  std::vector<SkeletonUnit> Units = oneUnit(Sk);
  std::vector<Assignment> Full = legacyStream(Sk, SpeMode::Exact);
  ProgramCursor Cursor(Units, SpeMode::Exact);
  Cursor.setEnd(BigInt(10));
  std::vector<Assignment> First10;
  while (const ProgramAssignment *PA = Cursor.next())
    First10.push_back((*PA)[0]);
  ASSERT_EQ(First10.size(), 10u);
  for (size_t I = 0; I < 10; ++I)
    EXPECT_EQ(First10[I], Full[I]);

  // Sharding a truncated range partitions [0, 10), not the whole space.
  std::vector<Assignment> Concat;
  for (uint64_t I = 0; I < 3; ++I) {
    ProgramCursor Shard(Units, SpeMode::Exact);
    Shard.setEnd(BigInt(10));
    std::vector<Assignment> Part = drainShard(Shard, Shard.end(), I, 3);
    Concat.insert(Concat.end(), Part.begin(), Part.end());
  }
  EXPECT_EQ(Concat, First10);
}

TEST(AssignmentCursorTest, UnfillableHoleYieldsEmptyCursor) {
  AbstractSkeleton Sk;
  Sk.addVariable("a", AbstractSkeleton::rootScope(), 0);
  Sk.addHole(AbstractSkeleton::rootScope(), 5);
  for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
    AssignmentCursor Cursor(Sk, Mode);
    EXPECT_TRUE(Cursor.size().isZero());
    EXPECT_EQ(Cursor.next(), nullptr);
    Cursor.seek(BigInt(3));
    EXPECT_EQ(Cursor.next(), nullptr);
  }
}

TEST(AssignmentCursorTest, NoHolesYieldsOneEmptyAssignment) {
  AbstractSkeleton Sk = makeFlatSkeleton(3, 0);
  for (SpeMode Mode : {SpeMode::Exact, SpeMode::PaperFaithful}) {
    AssignmentCursor Cursor(Sk, Mode);
    EXPECT_EQ(Cursor.size(), BigInt(1));
    const Assignment *A = Cursor.next();
    ASSERT_NE(A, nullptr);
    EXPECT_TRUE(A->empty());
    EXPECT_EQ(Cursor.next(), nullptr);
  }
}

TEST(AssignmentCursorTest, SeekOnAstronomicalSpaceStaysExact) {
  // A space far beyond uint64: 60 holes over 12 variables. Seek must land
  // on internally consistent positions without materializing anything.
  AbstractSkeleton Sk = makeFlatSkeleton(12, 60);
  AssignmentCursor Cursor(Sk, SpeMode::Exact);
  ASSERT_GT(Cursor.size().numDecimalDigits(), 25u);

  // The first assignment maps every hole to the first variable.
  const Assignment *First = Cursor.next();
  ASSERT_NE(First, nullptr);
  EXPECT_EQ(*First, Assignment(60, 0));

  // Seek deep into the space; the two assignments at rank R and R+1 must be
  // adjacent: advancing after a seek equals seeking one further.
  BigInt Deep = Cursor.size().divideBySmall(3);
  Cursor.seek(Deep);
  const Assignment *AtDeep = Cursor.next();
  ASSERT_NE(AtDeep, nullptr);
  Assignment DeepCopy = *AtDeep;
  const Assignment *AfterDeep = Cursor.next();
  ASSERT_NE(AfterDeep, nullptr);
  Assignment AfterCopy = *AfterDeep;
  EXPECT_NE(DeepCopy, AfterCopy);

  AssignmentCursor Cursor2(Sk, SpeMode::Exact);
  Cursor2.seek(Deep + BigInt(1));
  const Assignment *Direct = Cursor2.next();
  ASSERT_NE(Direct, nullptr);
  EXPECT_EQ(*Direct, AfterCopy);

  // The last assignment exists and the cursor ends right after it.
  Cursor2.seek(Cursor2.size() - BigInt(1));
  EXPECT_NE(Cursor2.next(), nullptr);
  EXPECT_EQ(Cursor2.next(), nullptr);
}
