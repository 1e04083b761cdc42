//===- combinatorics/SetPartitions.cpp - Set-partition generation --------===//

#include "combinatorics/SetPartitions.h"

#include <cassert>
#include <cstddef>

using namespace spe;

unsigned spe::numBlocks(const RestrictedGrowthString &RGS) {
  uint32_t Max = 0;
  if (RGS.empty())
    return 0;
  for (uint32_t Value : RGS)
    if (Value > Max)
      Max = Value;
  return Max + 1;
}

bool spe::isValidRGS(const RestrictedGrowthString &RGS) {
  uint32_t Bound = 0;
  for (uint32_t Value : RGS) {
    if (Value > Bound)
      return false;
    if (Value == Bound)
      ++Bound;
  }
  return true;
}

RestrictedGrowthString
spe::canonicalizeLabeling(const std::vector<uint32_t> &Labels) {
  RestrictedGrowthString Result(Labels.size());
  // Renumber labels in first-occurrence order.
  std::vector<uint32_t> SeenLabels;
  for (size_t I = 0; I < Labels.size(); ++I) {
    uint32_t Renamed = ~0u;
    for (size_t J = 0; J < SeenLabels.size(); ++J) {
      if (SeenLabels[J] == Labels[I]) {
        Renamed = static_cast<uint32_t>(J);
        break;
      }
    }
    if (Renamed == ~0u) {
      Renamed = static_cast<uint32_t>(SeenLabels.size());
      SeenLabels.push_back(Labels[I]);
    }
    Result[I] = Renamed;
  }
  return Result;
}

SetPartitionGenerator::SetPartitionGenerator(unsigned N, unsigned MaxBlocks)
    : N(N), MaxBlocks(MaxBlocks) {
  if (N > 0 && this->MaxBlocks > N)
    this->MaxBlocks = N;
  reset();
}

void SetPartitionGenerator::reset() {
  Started = false;
  Done = N > 0 && MaxBlocks == 0;
  Current.assign(N, 0);
  Maxima.assign(N, 0);
}

bool SetPartitionGenerator::next() {
  if (Done)
    return false;
  if (!Started) {
    Started = true;
    // The all-zeros string (single block) is the lexicographic minimum.
    for (unsigned I = 0; I < N; ++I) {
      Current[I] = 0;
      Maxima[I] = I == 0 ? 0 : (Current[I - 1] == Maxima[I - 1]
                                    ? Maxima[I - 1] + 1
                                    : Maxima[I - 1]);
    }
    if (N == 0)
      Done = true; // Single empty partition; exhausted afterwards.
    return true;
  }
  // Find the rightmost position that can be incremented: Current[I] may rise
  // to min(Maxima[I], MaxBlocks-1).
  for (unsigned I = N; I-- > 1;) {
    uint32_t Cap = Maxima[I] < MaxBlocks - 1 ? Maxima[I] : MaxBlocks - 1;
    if (Current[I] < Cap) {
      ++Current[I];
      // Reset the suffix to zeros and recompute the prefix maxima, where
      // Maxima[J] is the largest value Current[J] may take while keeping the
      // string a valid RGS, i.e. 1 + max(Current[0..J-1]).
      for (unsigned J = I + 1; J < N; ++J)
        Current[J] = 0;
      for (unsigned J = I + 1; J < N; ++J)
        Maxima[J] = Current[J - 1] == Maxima[J - 1] ? Maxima[J - 1] + 1
                                                    : Maxima[J - 1];
      return true;
    }
  }
  Done = true;
  return false;
}

void SetPartitionGenerator::seekTo(const RestrictedGrowthString &RGS) {
  assert(RGS.size() == N && "seekTo length mismatch");
  assert(isValidRGS(RGS) && "seekTo target is not a restricted growth string");
  assert((N == 0 || numBlocks(RGS) <= MaxBlocks) &&
         "seekTo target exceeds the block bound");
  Current = RGS;
  Maxima.assign(N, 0);
  for (unsigned I = 1; I < N; ++I)
    Maxima[I] = Current[I - 1] == Maxima[I - 1] ? Maxima[I - 1] + 1
                                                : Maxima[I - 1];
  Started = true;
  // With N == 0 the single empty partition is now consumed.
  Done = N == 0;
}

RgsRanker::RgsRanker(unsigned N, unsigned MaxBlocks) : N(N), MaxBlocks(MaxBlocks) {
  if (N > 0 && this->MaxBlocks > N)
    this->MaxBlocks = N;
  unsigned K = this->MaxBlocks;
  if (N == 0) {
    Total = BigInt(1); // The single empty partition.
    return;
  }
  if (K == 0) {
    Total = BigInt(0);
    return;
  }
  Suffixes.assign(N + 1, std::vector<BigInt>(K + 1, BigInt(0)));
  for (unsigned M = 0; M <= K; ++M)
    Suffixes[N][M] = BigInt(1);
  for (unsigned I = N; I-- > 1;) {
    for (unsigned M = 1; M <= K; ++M) {
      Suffixes[I][M] = Suffixes[I + 1][M] * M;
      if (M < K)
        Suffixes[I][M] += Suffixes[I + 1][M + 1];
    }
  }
  // Position 0 is forced to open the first block.
  Total = Suffixes[1][1];
}

RestrictedGrowthString RgsRanker::unrank(const BigInt &Rank) const {
  assert(Rank < Total && "RGS rank out of range");
  RestrictedGrowthString RGS(N, 0);
  if (N == 0)
    return RGS;
  BigInt Rest = Rank;
  unsigned M = 1;
  for (unsigned I = 1; I < N; ++I) {
    // Values 0..M-1 reuse a block (weight Suffixes[I+1][M] each); value M
    // opens a new one (weight Suffixes[I+1][M+1]).
    BigInt Span = Suffixes[I + 1][M] * M;
    if (Rest < Span) {
      BigInt Digit, Rem;
      BigInt::divmod(Rest, Suffixes[I + 1][M], Digit, Rem);
      RGS[I] = static_cast<uint32_t>(Digit.toUint64());
      Rest = Rem;
    } else {
      Rest -= Span;
      RGS[I] = M;
      ++M;
    }
  }
  assert(Rest.isZero() && "rank decomposition did not terminate");
  return RGS;
}

BigInt RgsRanker::rank(const RestrictedGrowthString &RGS) const {
  assert(RGS.size() == N && "rank length mismatch");
  BigInt Rank(0);
  unsigned M = 1;
  for (unsigned I = 1; I < N; ++I) {
    Rank += Suffixes[I + 1][M] * RGS[I];
    if (RGS[I] == M)
      ++M;
  }
  return Rank;
}

ExactBlockPartitionGenerator::ExactBlockPartitionGenerator(unsigned N,
                                                           unsigned K)
    : Inner(N, K), N(N), K(K) {}

bool ExactBlockPartitionGenerator::next() {
  // {0 over 0} = 1: the empty partition has exactly zero blocks.
  if (N == 0)
    return K == 0 ? Inner.next() : false;
  if (K == 0 || K > N)
    return false;
  while (Inner.next())
    if (numBlocks(Inner.current()) == K)
      return true;
  return false;
}

CombinationGenerator::CombinationGenerator(unsigned N, unsigned K)
    : N(N), K(K) {
  Done = K > N;
}

bool CombinationGenerator::next() {
  if (Done)
    return false;
  if (!Started) {
    Started = true;
    Current.resize(K);
    for (unsigned I = 0; I < K; ++I)
      Current[I] = I;
    if (K == 0)
      Done = true; // Single empty combination.
    return true;
  }
  // Standard lexicographic successor.
  for (unsigned I = K; I-- > 0;) {
    if (Current[I] < N - K + I) {
      ++Current[I];
      for (unsigned J = I + 1; J < K; ++J)
        Current[J] = Current[J - 1] + 1;
      return true;
    }
  }
  Done = true;
  return false;
}

std::vector<RestrictedGrowthString> spe::allPartitionsUpTo(unsigned N,
                                                           unsigned MaxBlocks) {
  std::vector<RestrictedGrowthString> Result;
  SetPartitionGenerator Gen(N, MaxBlocks);
  while (Gen.next())
    Result.push_back(Gen.current());
  return Result;
}
