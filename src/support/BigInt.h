//===- support/BigInt.h - Arbitrary-precision unsigned integers ----------===//
//
// Part of the SPE reproduction of "Skeletal Program Enumeration for Rigorous
// Compiler Testing" (PLDI 2017).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision unsigned integer arithmetic. Naive enumeration counts
/// in Table 1 of the paper reach 10^163, far beyond any machine word; Stirling
/// and Bell numbers used by the SPE counting routines also overflow quickly.
/// The representation is a little-endian vector of 64-bit limbs with no
/// leading zero limbs (zero is the empty vector).
///
//===----------------------------------------------------------------------===//

#ifndef SPE_SUPPORT_BIGINT_H
#define SPE_SUPPORT_BIGINT_H

#include <cstdint>
#include <string>
#include <vector>

namespace spe {

/// Arbitrary-precision unsigned integer.
///
/// Supports the operations the enumeration counters need: addition,
/// subtraction (asserting no underflow), multiplication (schoolbook, both by
/// a small word and by another BigInt), division by a small word, comparison,
/// decimal conversion, and logarithms for order-of-magnitude reporting.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a machine word.
  BigInt(uint64_t Value);

  /// Parses a decimal string. Asserts on malformed input.
  static BigInt fromDecimalString(const std::string &Text);

  /// \returns true iff the value is zero.
  bool isZero() const { return Limbs.empty(); }

  /// \returns true iff the value is one.
  bool isOne() const { return Limbs.size() == 1 && Limbs[0] == 1; }

  /// \returns true iff the value fits in a uint64_t.
  bool fitsInUint64() const { return Limbs.size() <= 1; }

  /// \returns the value as uint64_t; asserts that it fits.
  uint64_t toUint64() const;

  /// Three-way comparison: negative, zero, or positive as *this <, ==, > RHS.
  int compare(const BigInt &RHS) const;

  bool operator==(const BigInt &RHS) const { return compare(RHS) == 0; }
  bool operator!=(const BigInt &RHS) const { return compare(RHS) != 0; }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  BigInt &operator+=(const BigInt &RHS);
  BigInt operator+(const BigInt &RHS) const;

  /// Subtraction; asserts *this >= RHS.
  BigInt &operator-=(const BigInt &RHS);
  BigInt operator-(const BigInt &RHS) const;

  BigInt &operator*=(uint64_t RHS);
  BigInt &operator*=(const BigInt &RHS);
  BigInt operator*(const BigInt &RHS) const;
  BigInt operator*(uint64_t RHS) const;

  /// Divides by a small word; \returns the quotient and stores the remainder
  /// in \p Remainder if non-null. Asserts \p Divisor != 0.
  BigInt divideBySmall(uint64_t Divisor, uint64_t *Remainder = nullptr) const;

  /// Full division: computes \p Quotient and \p Remainder such that
  /// Dividend == Quotient * Divisor + Remainder with Remainder < Divisor.
  /// Asserts \p Divisor != 0. Either output may alias either input. Used by
  /// the enumeration cursors to decompose mixed-radix ranks whose radices
  /// are themselves BigInt counts.
  static void divmod(const BigInt &Dividend, const BigInt &Divisor,
                     BigInt &Quotient, BigInt &Remainder);

  BigInt operator/(const BigInt &RHS) const;
  BigInt operator%(const BigInt &RHS) const;

  /// \returns the number of significant bits (0 for zero).
  unsigned numBits() const;

  /// \returns bit \p Index (0 = least significant); false beyond numBits().
  bool bit(unsigned Index) const;

  /// \returns *this raised to \p Exponent.
  static BigInt pow(uint64_t Base, unsigned Exponent);

  /// \returns the decimal representation.
  std::string toString() const;

  /// \returns the number of decimal digits (1 for zero).
  unsigned numDecimalDigits() const;

  /// \returns log10 of the value as a double, or -inf for zero.
  double log10() const;

  /// \returns the value converted to double (may overflow to +inf).
  double toDouble() const;

private:
  void trim();

  /// Little-endian 64-bit limbs; empty means zero.
  std::vector<uint64_t> Limbs;
};

} // namespace spe

#endif // SPE_SUPPORT_BIGINT_H
