//===- tests/combinatorics_partitions_test.cpp - partition generators ----===//

#include "combinatorics/SetPartitions.h"
#include "combinatorics/Stirling.h"

#include "gtest/gtest.h"

#include <set>

using namespace spe;

TEST(RGSTest, ValidityPredicate) {
  EXPECT_TRUE(isValidRGS({}));
  EXPECT_TRUE(isValidRGS({0}));
  EXPECT_TRUE(isValidRGS({0, 0, 1, 0, 2}));
  EXPECT_FALSE(isValidRGS({1}));
  EXPECT_FALSE(isValidRGS({0, 2}));
  EXPECT_FALSE(isValidRGS({0, 1, 3}));
}

TEST(RGSTest, NumBlocks) {
  EXPECT_EQ(numBlocks({}), 0u);
  EXPECT_EQ(numBlocks({0, 0, 0}), 1u);
  EXPECT_EQ(numBlocks({0, 1, 2, 1}), 3u);
}

TEST(RGSTest, CanonicalizeLabeling) {
  // Labels 7,7,3,7,9 -> 0,0,1,0,2.
  RestrictedGrowthString C = canonicalizeLabeling({7, 7, 3, 7, 9});
  EXPECT_EQ(C, RestrictedGrowthString({0, 0, 1, 0, 2}));
  EXPECT_TRUE(isValidRGS(C));
  // Canonicalizing a valid RGS is the identity.
  EXPECT_EQ(canonicalizeLabeling({0, 1, 0, 2}),
            RestrictedGrowthString({0, 1, 0, 2}));
}

TEST(SetPartitionGeneratorTest, EmptySetHasOnePartition) {
  SetPartitionGenerator Gen(0, 3);
  EXPECT_TRUE(Gen.next());
  EXPECT_TRUE(Gen.current().empty());
  EXPECT_FALSE(Gen.next());
}

TEST(SetPartitionGeneratorTest, ZeroBlocksYieldsNothing) {
  SetPartitionGenerator Gen(3, 0);
  EXPECT_FALSE(Gen.next());
}

TEST(SetPartitionGeneratorTest, CountsMatchStirlingSums) {
  StirlingTable T;
  for (unsigned N = 1; N <= 8; ++N) {
    for (unsigned K = 1; K <= N + 2; ++K) {
      SetPartitionGenerator Gen(N, K);
      uint64_t Count = 0;
      while (Gen.next())
        ++Count;
      EXPECT_EQ(Count, T.partitionsUpTo(N, K).toUint64())
          << "N=" << N << " K=" << K;
    }
  }
}

TEST(SetPartitionGeneratorTest, AllOutputsAreValidAndDistinct) {
  SetPartitionGenerator Gen(7, 4);
  std::set<RestrictedGrowthString> Seen;
  while (Gen.next()) {
    EXPECT_TRUE(isValidRGS(Gen.current()));
    EXPECT_LE(numBlocks(Gen.current()), 4u);
    EXPECT_TRUE(Seen.insert(Gen.current()).second) << "duplicate partition";
  }
}

TEST(SetPartitionGeneratorTest, LexicographicOrder) {
  SetPartitionGenerator Gen(5, 5);
  RestrictedGrowthString Prev;
  bool First = true;
  while (Gen.next()) {
    if (!First) {
      EXPECT_LT(Prev, Gen.current());
    }
    Prev = Gen.current();
    First = false;
  }
}

TEST(SetPartitionGeneratorTest, ResetRestartsStream) {
  SetPartitionGenerator Gen(4, 2);
  uint64_t CountA = 0, CountB = 0;
  while (Gen.next())
    ++CountA;
  Gen.reset();
  while (Gen.next())
    ++CountB;
  EXPECT_EQ(CountA, CountB);
}

TEST(ExactBlockPartitionGeneratorTest, CountsMatchStirlingNumbers) {
  StirlingTable T;
  for (unsigned N = 0; N <= 8; ++N) {
    for (unsigned K = 0; K <= N + 1; ++K) {
      ExactBlockPartitionGenerator Gen(N, K);
      uint64_t Count = 0;
      while (Gen.next()) {
        EXPECT_EQ(numBlocks(Gen.current()), K);
        ++Count;
      }
      EXPECT_EQ(Count, T.stirling2(N, K).toUint64())
          << "N=" << N << " K=" << K;
    }
  }
}

TEST(CombinationGeneratorTest, CountsMatchBinomials) {
  StirlingTable T;
  for (unsigned N = 0; N <= 9; ++N) {
    for (unsigned K = 0; K <= N + 1; ++K) {
      CombinationGenerator Gen(N, K);
      uint64_t Count = 0;
      while (Gen.next()) {
        EXPECT_EQ(Gen.current().size(), K);
        ++Count;
      }
      EXPECT_EQ(Count, T.binomial(N, K).toUint64()) << "N=" << N << " K=" << K;
    }
  }
}

TEST(CombinationGeneratorTest, SubsetsAreSortedAndDistinct) {
  CombinationGenerator Gen(6, 3);
  std::set<std::vector<uint32_t>> Seen;
  while (Gen.next()) {
    const std::vector<uint32_t> &C = Gen.current();
    for (size_t I = 1; I < C.size(); ++I)
      EXPECT_LT(C[I - 1], C[I]);
    EXPECT_LT(C.back(), 6u);
    EXPECT_TRUE(Seen.insert(C).second);
  }
  EXPECT_EQ(Seen.size(), 20u);
}

// Property sweep: every (N, MaxBlocks) pairing in a grid produces only valid,
// distinct RGS strings whose block count respects the bound.
class PartitionSweepTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(PartitionSweepTest, StreamIsCanonicalAndComplete) {
  auto [N, MaxBlocks] = GetParam();
  StirlingTable T;
  SetPartitionGenerator Gen(N, MaxBlocks);
  std::set<RestrictedGrowthString> Seen;
  while (Gen.next()) {
    ASSERT_TRUE(isValidRGS(Gen.current()));
    ASSERT_LE(numBlocks(Gen.current()),
              MaxBlocks == 0 ? 0u : MaxBlocks);
    ASSERT_TRUE(Seen.insert(Gen.current()).second);
  }
  EXPECT_EQ(Seen.size(), N == 0 ? 1 : T.partitionsUpTo(N, MaxBlocks).toUint64());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PartitionSweepTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 6u, 9u),
                       ::testing::Values(1u, 2u, 3u, 4u, 9u)));

TEST(SetPartitionGeneratorTest, SeekToResumesMidStream) {
  // Collect the reference stream, then for every position check that seekTo
  // reproduces the exact suffix.
  for (unsigned MaxBlocks : {1u, 2u, 3u, 5u}) {
    std::vector<RestrictedGrowthString> All = allPartitionsUpTo(5, MaxBlocks);
    for (size_t Pos = 0; Pos < All.size(); ++Pos) {
      SetPartitionGenerator Gen(5, MaxBlocks);
      Gen.seekTo(All[Pos]);
      EXPECT_EQ(Gen.current(), All[Pos]);
      for (size_t Next = Pos + 1; Next < All.size(); ++Next) {
        ASSERT_TRUE(Gen.next());
        EXPECT_EQ(Gen.current(), All[Next]);
      }
      EXPECT_FALSE(Gen.next());
    }
  }
}

TEST(SetPartitionGeneratorTest, SeekToEmptyStringIsExhausted) {
  SetPartitionGenerator Gen(0, 3);
  Gen.seekTo({});
  EXPECT_TRUE(Gen.current().empty());
  EXPECT_FALSE(Gen.next());
}

TEST(RgsRankerTest, CountMatchesStirlingSums) {
  StirlingTable T;
  for (unsigned N : {0u, 1u, 2u, 4u, 6u, 9u}) {
    for (unsigned K : {0u, 1u, 2u, 3u, 6u, 9u}) {
      RgsRanker Ranker(N, K);
      if (N == 0)
        EXPECT_EQ(Ranker.count(), BigInt(1));
      else
        EXPECT_EQ(Ranker.count(), T.partitionsUpTo(N, K))
            << "N=" << N << " K=" << K;
    }
  }
}

TEST(RgsRankerTest, UnrankEnumeratesGeneratorOrder) {
  for (unsigned N : {1u, 3u, 5u, 7u}) {
    for (unsigned K : {1u, 2u, 3u, 7u}) {
      RgsRanker Ranker(N, K);
      SetPartitionGenerator Gen(N, K);
      BigInt Rank(0);
      while (Gen.next()) {
        EXPECT_EQ(Ranker.unrank(Rank), Gen.current())
            << "N=" << N << " K=" << K << " rank=" << Rank.toString();
        EXPECT_EQ(Ranker.rank(Gen.current()), Rank);
        Rank += BigInt(1);
      }
      EXPECT_EQ(Rank, Ranker.count());
    }
  }
}

TEST(RgsRankerTest, LargeSpaceRankRoundTrip) {
  // A Table-1-sized rank space (Bell(40) ~ 1.6e35): unranking must stay
  // consistent with ranking without ever materializing the stream.
  RgsRanker Ranker(40, 40);
  EXPECT_GT(Ranker.count().numDecimalDigits(), 30u);
  const BigInt Probes[] = {
      BigInt(0), BigInt(1), BigInt::pow(10, 20),
      Ranker.count() - BigInt(1), Ranker.count().divideBySmall(3),
  };
  for (const BigInt &Probe : Probes) {
    RestrictedGrowthString RGS = Ranker.unrank(Probe);
    EXPECT_TRUE(isValidRGS(RGS));
    EXPECT_EQ(Ranker.rank(RGS), Probe);
  }
}
