//===- combinatorics/SetPartitions.h - Set-partition generation ----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generation of set partitions encoded as restricted growth strings (RGS),
/// the canonical encoding used in Section 4.1.2 of the paper: a string
/// a_1..a_n with a_1 = 0 and a_{i+1} <= 1 + max(a_1..a_i). Each string is one
/// partition of {1..n} into unlabeled non-empty blocks; generation is in
/// lexicographic order (Knuth TAOCP 7.2.1.5).
///
//===----------------------------------------------------------------------===//

#ifndef SPE_COMBINATORICS_SETPARTITIONS_H
#define SPE_COMBINATORICS_SETPARTITIONS_H

#include "support/BigInt.h"

#include <cstdint>
#include <vector>

namespace spe {

/// A set partition of {0..n-1} as a restricted growth string: Blocks[i] is the
/// block index of element i, block indices appear in first-use order.
using RestrictedGrowthString = std::vector<uint32_t>;

/// \returns the number of blocks of \p RGS (max entry + 1; 0 for empty).
unsigned numBlocks(const RestrictedGrowthString &RGS);

/// \returns true iff \p RGS is a valid restricted growth string.
bool isValidRGS(const RestrictedGrowthString &RGS);

/// Converts an arbitrary labeling (element -> label) into canonical RGS form
/// by renumbering labels in first-occurrence order. This is the core of
/// alpha-canonicalization: two labelings are equivalent up to label renaming
/// iff they normalize to the same RGS.
RestrictedGrowthString canonicalizeLabeling(const std::vector<uint32_t> &Labels);

/// Generates all partitions of an N-element set into at most MaxBlocks
/// non-empty blocks, in lexicographic RGS order.
///
/// Usage:
/// \code
///   SetPartitionGenerator Gen(N, MaxBlocks);
///   while (Gen.next())
///     use(Gen.current());
/// \endcode
///
/// The N = 0 case yields exactly one (empty) partition.
class SetPartitionGenerator {
public:
  /// \param N          number of elements.
  /// \param MaxBlocks  maximum number of blocks; clamped to N for N > 0.
  ///                   MaxBlocks = 0 with N > 0 yields nothing.
  SetPartitionGenerator(unsigned N, unsigned MaxBlocks);

  /// Advances to the next partition. \returns false when exhausted.
  bool next();

  /// \returns the current RGS; valid only after next() returned true.
  const RestrictedGrowthString &current() const { return Current; }

  /// Restarts the generation from the first partition.
  void reset();

  /// Positions the generator exactly on \p RGS, as if next() had just
  /// returned it: current() equals \p RGS and next() yields its lexicographic
  /// successor. \p RGS must be a valid restricted growth string of length N
  /// with at most MaxBlocks blocks. This is how the enumeration cursors
  /// resume a partition stream mid-way after an unranking seek.
  void seekTo(const RestrictedGrowthString &RGS);

private:
  unsigned N;
  unsigned MaxBlocks;
  bool Started = false;
  bool Done = false;
  RestrictedGrowthString Current;
  /// Prefix maxima: Maxima[i] = 1 + max(Current[0..i-1]).
  std::vector<uint32_t> Maxima;
};

/// Generates all partitions of an N-element set into exactly K non-empty
/// blocks ({N over K} of them), by filtering the ≤K stream. The paper's
/// PARTITIONS'(Q, k).
class ExactBlockPartitionGenerator {
public:
  ExactBlockPartitionGenerator(unsigned N, unsigned K);

  bool next();
  const RestrictedGrowthString &current() const { return Inner.current(); }

private:
  SetPartitionGenerator Inner;
  unsigned N;
  unsigned K;
};

/// Generates all K-element subsets of {0..N-1} in lexicographic order; the
/// paper's COMBINATIONS(Q, k) routine used to promote local holes.
class CombinationGenerator {
public:
  CombinationGenerator(unsigned N, unsigned K);

  bool next();
  const std::vector<uint32_t> &current() const { return Current; }

private:
  unsigned N;
  unsigned K;
  bool Started = false;
  bool Done = false;
  std::vector<uint32_t> Current;
};

/// Ranks and unranks restricted growth strings of length N with at most
/// MaxBlocks blocks, in the same lexicographic order SetPartitionGenerator
/// produces them. The rank space is the BigInt count partitionsUpTo(N,
/// MaxBlocks), so Table-1-sized partition streams can be addressed directly
/// without materialization; this is the core primitive behind
/// AssignmentCursor::seek and invalidSpanEnd (see DESIGN.md Section 5).
class RgsRanker {
public:
  RgsRanker(unsigned N, unsigned MaxBlocks);

  /// \returns the total number of strings (the rank space size).
  const BigInt &count() const { return Total; }

  /// \returns the string with lexicographic rank \p Rank. Asserts
  /// Rank < count().
  RestrictedGrowthString unrank(const BigInt &Rank) const;

  /// \returns the lexicographic rank of \p RGS (the inverse of unrank).
  BigInt rank(const RestrictedGrowthString &RGS) const;

private:
  unsigned N;
  unsigned MaxBlocks;
  /// Suffixes[I][M]: number of ways to complete positions I..N-1 of a string
  /// whose prefix uses M blocks.
  std::vector<std::vector<BigInt>> Suffixes;
  BigInt Total;
};

/// Collects all partitions of an N-set into at most MaxBlocks blocks.
/// Convenience for tests and small problem sizes.
std::vector<RestrictedGrowthString> allPartitionsUpTo(unsigned N,
                                                      unsigned MaxBlocks);

} // namespace spe

#endif // SPE_COMBINATORICS_SETPARTITIONS_H
