//===- tests/core_validity_pruning_test.cpp - stratum pruning tests ------===//
//
// The contract of core/ValidityPruning.h and the cursor integration: a
// pruned cursor visits exactly the unpruned sequence minus the assignments
// that violate the constraints, in the same order and at the same ranks;
// the skipped count is exact; sharding still partitions the space; and the
// one-rank rule and the span decoder agree at every rank. ProgramCursor
// owns pruning, so single-skeleton cases run on a one-unit program.
//
//===----------------------------------------------------------------------===//

#include "core/AssignmentCursor.h"
#include "core/ValidityPruning.h"
#include "skeleton/ProgramEnumerator.h"

#include "gtest/gtest.h"

#include <numeric>
#include <random>

using namespace spe;

namespace {

/// Two scopes, two types, enough holes for multi-digit strata:
///   root: a0 a1 a2 : type0, p0 p1 : type1
///   child: b0 : type0
/// Holes: four of type0 (two in root, two in child), two of type1 in root.
AbstractSkeleton testSkeleton() {
  AbstractSkeleton Sk;
  ScopeId Root = AbstractSkeleton::rootScope();
  ScopeId Child = Sk.addScope(Root);
  Sk.addVariable("a0", Root, 0);
  Sk.addVariable("a1", Root, 0);
  Sk.addVariable("a2", Root, 0);
  Sk.addVariable("p0", Root, 1);
  Sk.addVariable("p1", Root, 1);
  Sk.addVariable("b0", Child, 0);
  Sk.addHole(Root, 0);
  Sk.addHole(Root, 0);
  Sk.addHole(Child, 0);
  Sk.addHole(Child, 0);
  Sk.addHole(Root, 1);
  Sk.addHole(Root, 1);
  return Sk;
}

/// testSkeleton() as a one-unit program.
std::vector<SkeletonUnit> testUnits() {
  std::vector<SkeletonUnit> Units(1);
  Units[0].Skeleton = testSkeleton();
  return Units;
}

/// Drains \p Cursor's only unit.
std::vector<Assignment> drain(ProgramCursor &Cursor) {
  std::vector<Assignment> Out;
  while (const ProgramAssignment *PA = Cursor.next())
    Out.push_back((*PA)[0]);
  return Out;
}

std::vector<Assignment> collect(const std::vector<SkeletonUnit> &Units,
                                SpeMode Mode, const ValidityConstraints *C) {
  ProgramCursor Cursor(Units, Mode);
  if (C)
    Cursor.setConstraints({C});
  return drain(Cursor);
}

/// A constraint set exercising every stratum: a level digit (hole 2 may not
/// use any root variable... impossible to forbid wholesale here, so instead
/// forbid concrete (hole, var) pairs across types and scopes).
ValidityConstraints someConstraints(const AbstractSkeleton &Sk) {
  ValidityConstraints C;
  C.reset(Sk);
  C.forbid(0, 1); // hole 0 (type0, root) may not take a1.
  C.forbid(2, 5); // hole 2 (type0, child) may not take the child-local b0.
  C.forbid(3, 0); // hole 3 may not take a0.
  C.forbid(5, 4); // hole 5 (type1) may not take p1.
  return C;
}

/// Three units whose rank suffixes are multi-limb: a two-hole head, a
/// ~10^82 middle unit, and a two-hole tail.
std::vector<SkeletonUnit> hugeSuffixUnits() {
  SkeletonUnit Small;
  Small.Skeleton.addVariable("s0", AbstractSkeleton::rootScope(), 0);
  Small.Skeleton.addVariable("s1", AbstractSkeleton::rootScope(), 0);
  Small.Skeleton.addHole(AbstractSkeleton::rootScope(), 0);
  Small.Skeleton.addHole(AbstractSkeleton::rootScope(), 0);

  SkeletonUnit Huge;
  {
    AbstractSkeleton &Sk = Huge.Skeleton;
    ScopeId Scope = AbstractSkeleton::rootScope();
    std::vector<ScopeId> Chain{Scope};
    for (unsigned Depth = 0; Depth < 4; ++Depth) {
      Scope = Sk.addScope(Scope);
      Chain.push_back(Scope);
    }
    for (TypeKey T = 0; T < 3; ++T) {
      for (ScopeId S : Chain) {
        Sk.addVariable("v", S, T);
        Sk.addVariable("w", S, T);
      }
      for (ScopeId S : Chain)
        for (unsigned H = 0; H < 8; ++H)
          Sk.addHole(S, T);
    }
  }

  SkeletonUnit Tail;
  Tail.Skeleton.addVariable("t0", AbstractSkeleton::rootScope(), 0);
  Tail.Skeleton.addVariable("t1", AbstractSkeleton::rootScope(), 0);
  Tail.Skeleton.addHole(AbstractSkeleton::rootScope(), 0);
  Tail.Skeleton.addHole(AbstractSkeleton::rootScope(), 0);

  std::vector<SkeletonUnit> Units;
  Units.push_back(std::move(Small));
  Units.push_back(std::move(Huge));
  Units.push_back(std::move(Tail));
  return Units;
}

} // namespace

TEST(ValidityPruningTest, PrunedCursorEqualsBruteForceFilter) {
  std::vector<SkeletonUnit> Units = testUnits();
  ValidityConstraints C = someConstraints(Units[0].Skeleton);

  std::vector<Assignment> All = collect(Units, SpeMode::Exact, nullptr);
  std::vector<Assignment> Expected;
  for (const Assignment &A : All)
    if (!assignmentViolates(A, C))
      Expected.push_back(A);

  std::vector<Assignment> Pruned = collect(Units, SpeMode::Exact, &C);
  EXPECT_EQ(Pruned, Expected);
  EXPECT_LT(Pruned.size(), All.size()) << "constraints should bite";

  ProgramCursor Counter(Units, SpeMode::Exact);
  Counter.setConstraints({&C});
  uint64_t Valid = 0;
  while (Counter.next())
    ++Valid;
  EXPECT_EQ(Counter.pruned(), BigInt(All.size() - Expected.size()));
  EXPECT_EQ(Valid, Expected.size());

  // One pruned cursor re-seeked at shuffled ranks: pruning must also hold
  // on an odometer that a seek decoded rather than one next() stepped to.
  std::vector<uint64_t> Ranks(All.size());
  std::iota(Ranks.begin(), Ranks.end(), 0);
  std::shuffle(Ranks.begin(), Ranks.end(), std::mt19937(2017));
  ProgramCursor Reseeked(Units, SpeMode::Exact);
  Reseeked.setConstraints({&C});
  for (uint64_t R : Ranks) {
    Reseeked.seek(BigInt(R));
    std::vector<Assignment> Suffix = drain(Reseeked), Want;
    for (uint64_t S = R; S < All.size(); ++S)
      if (!assignmentViolates(All[S], C))
        Want.push_back(All[S]);
    EXPECT_EQ(Suffix, Want) << "seek " << R;
  }
}

TEST(ValidityPruningTest, PaperFaithfulModeFiltersIdentically) {
  std::vector<SkeletonUnit> Units = testUnits();
  ValidityConstraints C = someConstraints(Units[0].Skeleton);

  std::vector<Assignment> All = collect(Units, SpeMode::PaperFaithful, nullptr);
  std::vector<Assignment> Expected;
  for (const Assignment &A : All)
    if (!assignmentViolates(A, C))
      Expected.push_back(A);
  EXPECT_EQ(collect(Units, SpeMode::PaperFaithful, &C), Expected);
}

TEST(ValidityPruningTest, InvalidSpanEndIsExact) {
  std::vector<SkeletonUnit> Units = testUnits();
  ValidityConstraints C = someConstraints(Units[0].Skeleton);
  std::vector<Assignment> All = collect(Units, SpeMode::Exact, nullptr);

  ProgramCursor Cursor(Units, SpeMode::Exact);
  ASSERT_TRUE(Cursor.size().fitsInUint64());
  uint64_t N = Cursor.size().toUint64();
  ASSERT_EQ(N, All.size());
  for (uint64_t R = 0; R < N; ++R) {
    BigInt SpanEnd = Cursor.invalidSpanEnd(BigInt(R), {&C});
    if (assignmentViolates(All[R], C)) {
      // The whole reported span must be invalid, and it must not be empty.
      ASSERT_GT(SpanEnd, BigInt(R)) << "rank " << R;
      ASSERT_TRUE(SpanEnd.fitsInUint64());
      for (uint64_t S = R; S < SpanEnd.toUint64(); ++S)
        EXPECT_TRUE(assignmentViolates(All[S], C)) << "rank " << S;
    } else {
      EXPECT_EQ(SpanEnd, BigInt(R)) << "rank " << R;
    }
  }
}

TEST(ValidityPruningTest, ShardsPartitionThePrunedSequence) {
  std::vector<SkeletonUnit> Units = testUnits();
  ValidityConstraints C = someConstraints(Units[0].Skeleton);
  std::vector<Assignment> Expected = collect(Units, SpeMode::Exact, &C);
  BigInt Size = ProgramCursor(Units, SpeMode::Exact).size();

  for (uint64_t Shards : {2u, 3u, 4u, 7u}) {
    std::vector<Assignment> Union;
    BigInt TotalPruned(0);
    for (uint64_t S = 0; S < Shards; ++S) {
      // The harness's route: a shard is a restored rank range.
      BigInt Begin, End;
      cursor_detail::shardRange(BigInt(0), Size, S, Shards, Begin, End);
      ProgramCursor Cursor(Units, SpeMode::Exact);
      Cursor.setConstraints({&C});
      ASSERT_TRUE(
          Cursor.restoreState({Begin.toString(), End.toString(), "0"}));
      std::vector<Assignment> Part = drain(Cursor);
      Union.insert(Union.end(), Part.begin(), Part.end());
      TotalPruned += Cursor.pruned();
    }
    EXPECT_EQ(Union, Expected) << Shards << " shards";
    EXPECT_EQ(TotalPruned + BigInt(Expected.size()), Size);
  }
}

TEST(ValidityPruningTest, FullyForbiddenHoleEmptiesTheSpace) {
  std::vector<SkeletonUnit> Units = testUnits();
  ValidityConstraints C;
  C.reset(Units[0].Skeleton);
  // Hole 4 (type1, root) loses both p0 and p1: nothing survives.
  C.forbid(4, 3);
  C.forbid(4, 4);
  EXPECT_TRUE(collect(Units, SpeMode::Exact, &C).empty());
  ProgramCursor Cursor(Units, SpeMode::Exact);
  Cursor.setConstraints({&C});
  EXPECT_EQ(Cursor.next(), nullptr);
  EXPECT_EQ(Cursor.pruned(), Cursor.size());
}

TEST(ValidityPruningTest, ProgramSpanDecodeSurvivesHugeUnitSuffixes) {
  // Regression: ProgramCursor's rank decode must divide by multi-limb
  // (>= 2^64) unit suffixes correctly -- an earlier draft aliased the
  // divmod remainder with its dividend, which BigInt zeroed first, so the
  // less-significant units all decoded as rank 0 and invalid variants
  // slipped through. Unit 1 is a ~10^82 space, putting every suffix to its
  // left far beyond one limb.
  std::vector<SkeletonUnit> Units = hugeSuffixUnits();

  // Forbid the tail unit's second assignment (hole 1 -> var 1), leaving
  // one valid tail rank out of two: the pruned stream over the first few
  // program ranks must be exactly the even ranks.
  ValidityConstraints TailC;
  TailC.reset(Units[2].Skeleton);
  TailC.forbid(1, 1);

  ProgramCursor Pruned(Units, SpeMode::Exact);
  ASSERT_FALSE(Pruned.size().fitsInUint64()) << "suffixes must be multi-limb";
  Pruned.setConstraints({nullptr, nullptr, &TailC});
  Pruned.setEnd(BigInt(8));
  ProgramCursor All(Units, SpeMode::Exact);
  All.setEnd(BigInt(8));

  std::vector<ProgramAssignment> Expected, Got;
  while (const ProgramAssignment *PA = All.next())
    if (!assignmentViolates((*PA)[2], TailC))
      Expected.push_back(*PA);
  while (const ProgramAssignment *PA = Pruned.next()) {
    EXPECT_FALSE(assignmentViolates((*PA)[2], TailC))
        << "pruned cursor emitted a forbidden tail assignment";
    Got.push_back(*PA);
  }
  EXPECT_EQ(Got, Expected);
  EXPECT_EQ(Pruned.pruned(), BigInt(4)); // Ranks 1, 3, 5, 7.

  // Deep seek: beyond the first multi-limb block the decode's dividend
  // exceeds 2^64, the exact case the aliasing bug corrupted. Forbid the
  // *first* unit's rank-0 assignment too (hole 1 -> var 0), so a decode
  // that misreads the leading digit as 0 fabricates a huge bogus span and
  // silently swallows the valid variants that follow.
  ValidityConstraints HeadC;
  HeadC.reset(Units[0].Skeleton);
  HeadC.forbid(1, 0);

  BigInt H = AssignmentCursor(Units[1].Skeleton, SpeMode::Exact).size();
  BigInt BlockStart = H * 2; // Start of head-unit rank 1 (the valid head).
  ProgramCursor Deep(Units, SpeMode::Exact);
  Deep.setConstraints({&HeadC, nullptr, &TailC});
  Deep.seek(BlockStart + BigInt(5)); // Odd rank: tail invalid.
  Deep.setEnd(BlockStart + BigInt(10));
  std::vector<ProgramAssignment> DeepGot;
  while (const ProgramAssignment *PA = Deep.next())
    DeepGot.push_back(*PA);
  // Valid ranks in [start+5, start+10) are the even ones: +6 and +8.
  ASSERT_EQ(DeepGot.size(), 2u)
      << "span decode overshot past valid deep ranks";
  for (const ProgramAssignment &PA : DeepGot) {
    EXPECT_FALSE(assignmentViolates(PA[0], HeadC));
    EXPECT_FALSE(assignmentViolates(PA[2], TailC));
  }
  EXPECT_EQ(Deep.pruned(), BigInt(3)); // Ranks +5, +7, +9.
}

TEST(ValidityPruningTest, SeekLandsOnUnprunedRanks) {
  // Ranks are not renumbered: seeking to rank R then pulling must yield the
  // first *valid* assignment at rank >= R, exactly like filtering the
  // unpruned stream from R.
  std::vector<SkeletonUnit> Units = testUnits();
  ValidityConstraints C = someConstraints(Units[0].Skeleton);
  std::vector<Assignment> All = collect(Units, SpeMode::Exact, nullptr);

  for (uint64_t R = 0; R < All.size(); R += 7) {
    ProgramCursor Cursor(Units, SpeMode::Exact);
    Cursor.setConstraints({&C});
    Cursor.seek(BigInt(R));
    const ProgramAssignment *PA = Cursor.next();
    const Assignment *A = PA ? &(*PA)[0] : nullptr;
    const Assignment *Want = nullptr;
    for (uint64_t S = R; S < All.size(); ++S) {
      if (!assignmentViolates(All[S], C)) {
        Want = &All[S];
        break;
      }
    }
    if (!Want) {
      EXPECT_EQ(A, nullptr) << "seek " << R;
    } else {
      ASSERT_NE(A, nullptr) << "seek " << R;
      EXPECT_EQ(*A, *Want) << "seek " << R;
    }
  }
}

TEST(ValidityPruningTest, OneRankStepAgreesWithTheDecoder) {
  // Wherever the one-rank rule lets a pruned cursor step over a violation
  // on its odometer, the general decoder must report a span of exactly
  // that rank; wherever it finds no violation the span is empty, and
  // wherever it defers to the decoder the span is not. Every rank of the
  // single-skeleton fixtures is walked unpruned on a one-unit program; the
  // multi-unit fixtures are walked over the ranges the huge suffix test
  // covers.
  using Offense = AssignmentCursor::Offense;
  unsigned Held = 0, Failed = 0;

  std::vector<SkeletonUnit> Single = testUnits();
  ValidityConstraints Some = someConstraints(Single[0].Skeleton);
  ValidityConstraints NoHole4;
  NoHole4.reset(Single[0].Skeleton);
  NoHole4.forbid(4, 3);
  NoHole4.forbid(4, 4);
  for (const ValidityConstraints *C : {&Some, &NoHole4}) {
    ProgramCursor Cursor(Single, SpeMode::Exact);
    while (const ProgramAssignment *PA = Cursor.next()) {
      BigInt R = Cursor.position() - BigInt(1);
      Offense O = Cursor.offense({C});
      BigInt SpanEnd = Cursor.invalidSpanEnd(R, {C});
      ASSERT_EQ(O == Offense::None, !assignmentViolates((*PA)[0], *C))
          << "rank " << R.toString();
      if (O == Offense::None) {
        EXPECT_EQ(SpanEnd, R) << "rank " << R.toString();
      }
      if (O == Offense::OneRank) {
        ++Held;
        EXPECT_EQ(SpanEnd, R + BigInt(1)) << "rank " << R.toString();
      }
      if (O == Offense::Span) {
        ++Failed;
        EXPECT_GT(SpanEnd, R) << "rank " << R.toString();
      }
    }
  }

  std::vector<SkeletonUnit> Units = hugeSuffixUnits();
  ValidityConstraints HeadC, TailC;
  HeadC.reset(Units[0].Skeleton);
  HeadC.forbid(1, 0);
  TailC.reset(Units[2].Skeleton);
  TailC.forbid(1, 1);
  BigInt BlockStart =
      AssignmentCursor(Units[1].Skeleton, SpeMode::Exact).size() * 2;
  std::vector<std::vector<const ValidityConstraints *>> Tables = {
      {nullptr, nullptr, &TailC}, {&HeadC, nullptr, &TailC}};
  for (const auto &PerUnit : Tables) {
    for (const BigInt &Start : {BigInt(0), BlockStart}) {
      ProgramCursor All(Units, SpeMode::Exact);
      All.seek(Start);
      All.setEnd(Start + BigInt(16));
      while (const ProgramAssignment *PA = All.next()) {
        BigInt R = All.position() - BigInt(1);
        bool Violates = assignmentViolates((*PA)[2], TailC) ||
                        (PerUnit[0] && assignmentViolates((*PA)[0], HeadC));
        Offense O = All.offense(PerUnit);
        ASSERT_EQ(O == Offense::None, !Violates) << "rank " << R.toString();
        if (O == Offense::OneRank) {
          ++Held;
          EXPECT_EQ(All.invalidSpanEnd(R, PerUnit), R + BigInt(1))
              << "rank " << R.toString();
        }
        Failed += O == Offense::Span;
      }
    }
  }

  EXPECT_GT(Held, 0u) << "the one-rank rule never held";
  EXPECT_GT(Failed, 0u) << "the one-rank rule never fell back to the decoder";
}
