//===- tests/combinatorics_rank_fuzz_test.cpp - rank/unrank fuzzing ------===//
//
// Property-fuzz tests for the ranking primitives behind cursor seek and
// checkpoint restore: RgsRanker rank/unrank must be mutually inverse at
// *random large ranks* (the existing tests sweep small spaces
// sequentially), SetPartitionGenerator::seekTo must splice into the
// lexicographic stream at any unranked position, and BigInt::divmod must
// hold its division identity on multi-limb operands near radix boundaries
// -- the exact arithmetic the mixed-radix decode leans on at every restore.
//
//===----------------------------------------------------------------------===//

#include "combinatorics/SetPartitions.h"
#include "combinatorics/Stirling.h"
#include "support/BigInt.h"

#include "gtest/gtest.h"

#include <random>

using namespace spe;

namespace {

/// Uniform-ish random BigInt in [0, Bound) built from 64-bit words; exact
/// uniformity is irrelevant for a round-trip property.
BigInt randomBelow(std::mt19937_64 &Rng, const BigInt &Bound) {
  if (Bound <= BigInt(1))
    return BigInt(0);
  unsigned Limbs = (Bound.numBits() + 63) / 64 + 1;
  BigInt R(0);
  for (unsigned I = 0; I < Limbs; ++I) {
    // R = R * 2^64 + word, via two 32-bit multiplies to stay in BigInt ops.
    R *= uint64_t(1) << 32;
    R *= uint64_t(1) << 32;
    R += BigInt(Rng());
  }
  return R % Bound;
}

} // namespace

TEST(RankFuzzTest, RgsRankerRoundTripsAtRandomLargeRanks) {
  std::mt19937_64 Rng(0x5EED);
  // (N, MaxBlocks) shapes chosen so the rank spaces span one to several
  // limbs: Bell(25) ~ 4.6e18 is just inside uint64, Bell(30) ~ 8.5e23 is
  // well past it, and the bounded-block shapes mirror real skeleton groups.
  const std::pair<unsigned, unsigned> Shapes[] = {
      {6, 6}, {9, 4}, {12, 12}, {16, 7}, {20, 20}, {25, 25}, {30, 30},
      {32, 9}};
  for (auto [N, K] : Shapes) {
    RgsRanker Ranker(N, K);
    ASSERT_FALSE(Ranker.count().isZero());
    for (int I = 0; I < 40; ++I) {
      BigInt Rank = randomBelow(Rng, Ranker.count());
      RestrictedGrowthString RGS = Ranker.unrank(Rank);
      ASSERT_TRUE(isValidRGS(RGS)) << "N=" << N << " K=" << K;
      ASSERT_EQ(RGS.size(), N);
      EXPECT_LE(numBlocks(RGS), K);
      EXPECT_EQ(Ranker.rank(RGS), Rank)
          << "N=" << N << " K=" << K << " rank " << Rank.toString();
    }
  }
}

TEST(RankFuzzTest, RgsRankerRoundTripsAtRadixBoundaries) {
  // The divmod edge cases a mixed-radix decode hits: rank 0, count-1, and
  // the ranks straddling each suffix-product boundary (where a digit
  // rolls over and the remainder collapses to 0 / expands to radix-1).
  for (auto [N, K] : {std::pair<unsigned, unsigned>{26, 26},
                      {30, 10},
                      {28, 28}}) {
    RgsRanker Ranker(N, K);
    const BigInt &Count = Ranker.count();
    std::vector<BigInt> Probes = {BigInt(0), Count - BigInt(1),
                                  Count.divideBySmall(2),
                                  Count.divideBySmall(2) + BigInt(1)};
    // Straddle powers of two near the limb boundary when inside range.
    for (unsigned Bits : {63u, 64u, 65u}) {
      BigInt P = BigInt::pow(2, Bits);
      if (P < Count) {
        Probes.push_back(P - BigInt(1));
        Probes.push_back(P);
      }
    }
    for (const BigInt &Rank : Probes) {
      RestrictedGrowthString RGS = Ranker.unrank(Rank);
      EXPECT_EQ(Ranker.rank(RGS), Rank)
          << "N=" << N << " K=" << K << " rank " << Rank.toString();
    }
  }
}

TEST(RankFuzzTest, UnrankIsStrictlyLexicographicAcrossNeighbors) {
  std::mt19937_64 Rng(0xBEEF);
  RgsRanker Ranker(18, 18);
  for (int I = 0; I < 30; ++I) {
    BigInt Rank = randomBelow(Rng, Ranker.count() - BigInt(1));
    RestrictedGrowthString A = Ranker.unrank(Rank);
    RestrictedGrowthString B = Ranker.unrank(Rank + BigInt(1));
    EXPECT_TRUE(A < B) << "rank " << Rank.toString()
                       << " is not lexicographically before its successor";
  }
}

TEST(RankFuzzTest, SeekToSplicesIntoTheGeneratorStreamAnywhere) {
  // seekTo(unrank(r)) then next() must walk unrank(r+1), unrank(r+2), ...
  // exactly -- the property cursor restores depend on. Fuzz random splice
  // points in spaces too large to sweep.
  std::mt19937_64 Rng(0xACE);
  for (auto [N, K] : {std::pair<unsigned, unsigned>{14, 14},
                      {18, 6},
                      {22, 22}}) {
    RgsRanker Ranker(N, K);
    for (int I = 0; I < 12; ++I) {
      BigInt Rank = randomBelow(Rng, Ranker.count());
      SetPartitionGenerator Gen(N, K);
      Gen.seekTo(Ranker.unrank(Rank));
      EXPECT_EQ(Gen.current(), Ranker.unrank(Rank));
      // Walk a short window forward and compare against direct unranking.
      BigInt Next = Rank + BigInt(1);
      for (int Step = 0; Step < 5 && Next < Ranker.count(); ++Step) {
        ASSERT_TRUE(Gen.next());
        EXPECT_EQ(Gen.current(), Ranker.unrank(Next))
            << "N=" << N << " K=" << K << " splice "
            << Rank.toString() << " step " << Step;
        Next += BigInt(1);
      }
      if (Next == Ranker.count()) {
        EXPECT_FALSE(Gen.next());
      }
    }
  }
}

TEST(RankFuzzTest, BigIntDivmodIdentityOnMultiLimbOperands) {
  // divmod is the engine under every unranking: fuzz the division identity
  // q * d + r == n with r < d on operands spanning 1..5 limbs, biased
  // toward all-ones limb patterns (the historical carry-bug habitat).
  std::mt19937_64 Rng(0xD1CE);
  auto RandomBig = [&](unsigned Limbs, bool Saturate) {
    BigInt V(0);
    for (unsigned I = 0; I < Limbs; ++I) {
      V *= uint64_t(1) << 32;
      V *= uint64_t(1) << 32;
      V += BigInt(Saturate ? ~uint64_t(0) - (Rng() & 0xff) : Rng());
    }
    return V;
  };
  for (int I = 0; I < 200; ++I) {
    unsigned NL = 1 + Rng() % 5, DL = 1 + Rng() % NL;
    bool Saturate = (Rng() & 3) == 0;
    BigInt N = RandomBig(NL, Saturate);
    BigInt D = RandomBig(DL, Saturate);
    if (D.isZero())
      D = BigInt(1);
    BigInt Q, R;
    BigInt::divmod(N, D, Q, R);
    EXPECT_TRUE(R < D) << "remainder not reduced";
    EXPECT_EQ(Q * D + R, N) << "division identity violated";
  }
  // Exact radix boundaries: n = d * k and n = d * k - 1.
  BigInt D = RandomBig(2, true);
  BigInt K = RandomBig(2, false);
  BigInt Product = D * K;
  BigInt Q, R;
  BigInt::divmod(Product, D, Q, R);
  EXPECT_EQ(Q, K);
  EXPECT_TRUE(R.isZero());
  BigInt::divmod(Product - BigInt(1), D, Q, R);
  EXPECT_EQ(Q, K - BigInt(1));
  EXPECT_EQ(R, D - BigInt(1));
}
