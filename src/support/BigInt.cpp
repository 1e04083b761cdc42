//===- support/BigInt.cpp - Arbitrary-precision unsigned integers --------===//

#include "support/BigInt.h"

#include <cassert>
#include <cmath>
#include <utility>

using namespace spe;

BigInt::BigInt(uint64_t Value) {
  if (Value != 0)
    Limbs.push_back(Value);
}

BigInt BigInt::fromDecimalString(const std::string &Text) {
  assert(!Text.empty() && "empty decimal string");
  BigInt Result;
  for (char C : Text) {
    assert(C >= '0' && C <= '9' && "malformed decimal string");
    Result *= 10;
    Result += BigInt(static_cast<uint64_t>(C - '0'));
  }
  return Result;
}

uint64_t BigInt::toUint64() const {
  assert(fitsInUint64() && "value does not fit in uint64_t");
  return Limbs.empty() ? 0 : Limbs[0];
}

int BigInt::compare(const BigInt &RHS) const {
  if (Limbs.size() != RHS.Limbs.size())
    return Limbs.size() < RHS.Limbs.size() ? -1 : 1;
  for (size_t I = Limbs.size(); I-- > 0;) {
    if (Limbs[I] != RHS.Limbs[I])
      return Limbs[I] < RHS.Limbs[I] ? -1 : 1;
  }
  return 0;
}

void BigInt::trim() {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
}

BigInt &BigInt::operator+=(const BigInt &RHS) {
  if (Limbs.size() < RHS.Limbs.size())
    Limbs.resize(RHS.Limbs.size(), 0);
  unsigned __int128 Carry = 0;
  for (size_t I = 0; I < Limbs.size(); ++I) {
    unsigned __int128 Sum = Carry + Limbs[I];
    if (I < RHS.Limbs.size())
      Sum += RHS.Limbs[I];
    Limbs[I] = static_cast<uint64_t>(Sum);
    Carry = Sum >> 64;
  }
  if (Carry != 0)
    Limbs.push_back(static_cast<uint64_t>(Carry));
  return *this;
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  BigInt Result = *this;
  Result += RHS;
  return Result;
}

BigInt &BigInt::operator-=(const BigInt &RHS) {
  assert(*this >= RHS && "BigInt subtraction underflow");
  uint64_t Borrow = 0;
  for (size_t I = 0; I < Limbs.size(); ++I) {
    unsigned __int128 Sub = Borrow;
    if (I < RHS.Limbs.size())
      Sub += RHS.Limbs[I];
    if (static_cast<unsigned __int128>(Limbs[I]) >= Sub) {
      Limbs[I] = static_cast<uint64_t>(Limbs[I] - Sub);
      Borrow = 0;
    } else {
      unsigned __int128 Base = static_cast<unsigned __int128>(1) << 64;
      Limbs[I] = static_cast<uint64_t>(Base + Limbs[I] - Sub);
      Borrow = 1;
    }
  }
  assert(Borrow == 0 && "BigInt subtraction underflow");
  trim();
  return *this;
}

BigInt BigInt::operator-(const BigInt &RHS) const {
  BigInt Result = *this;
  Result -= RHS;
  return Result;
}

BigInt &BigInt::operator*=(uint64_t RHS) {
  if (RHS == 0 || isZero()) {
    Limbs.clear();
    return *this;
  }
  unsigned __int128 Carry = 0;
  for (uint64_t &Limb : Limbs) {
    unsigned __int128 Product =
        static_cast<unsigned __int128>(Limb) * RHS + Carry;
    Limb = static_cast<uint64_t>(Product);
    Carry = Product >> 64;
  }
  if (Carry != 0)
    Limbs.push_back(static_cast<uint64_t>(Carry));
  return *this;
}

BigInt &BigInt::operator*=(const BigInt &RHS) {
  *this = *this * RHS;
  return *this;
}

BigInt BigInt::operator*(const BigInt &RHS) const {
  BigInt Result;
  if (isZero() || RHS.isZero())
    return Result;
  Result.Limbs.assign(Limbs.size() + RHS.Limbs.size(), 0);
  for (size_t I = 0; I < Limbs.size(); ++I) {
    unsigned __int128 Carry = 0;
    for (size_t J = 0; J < RHS.Limbs.size(); ++J) {
      unsigned __int128 Cur = Result.Limbs[I + J];
      Cur += static_cast<unsigned __int128>(Limbs[I]) * RHS.Limbs[J];
      Cur += Carry;
      Result.Limbs[I + J] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
    }
    size_t K = I + RHS.Limbs.size();
    while (Carry != 0) {
      unsigned __int128 Cur = Result.Limbs[K];
      Cur += Carry;
      Result.Limbs[K] = static_cast<uint64_t>(Cur);
      Carry = Cur >> 64;
      ++K;
    }
  }
  Result.trim();
  return Result;
}

BigInt BigInt::operator*(uint64_t RHS) const {
  BigInt Result = *this;
  Result *= RHS;
  return Result;
}

BigInt BigInt::divideBySmall(uint64_t Divisor, uint64_t *Remainder) const {
  assert(Divisor != 0 && "division by zero");
  BigInt Quotient;
  Quotient.Limbs.assign(Limbs.size(), 0);
  unsigned __int128 Rem = 0;
  for (size_t I = Limbs.size(); I-- > 0;) {
    unsigned __int128 Cur = (Rem << 64) | Limbs[I];
    Quotient.Limbs[I] = static_cast<uint64_t>(Cur / Divisor);
    Rem = Cur % Divisor;
  }
  Quotient.trim();
  if (Remainder)
    *Remainder = static_cast<uint64_t>(Rem);
  return Quotient;
}

unsigned BigInt::numBits() const {
  if (Limbs.empty())
    return 0;
  unsigned TopBits = 64 - static_cast<unsigned>(__builtin_clzll(Limbs.back()));
  return static_cast<unsigned>((Limbs.size() - 1) * 64) + TopBits;
}

bool BigInt::bit(unsigned Index) const {
  size_t Limb = Index / 64;
  if (Limb >= Limbs.size())
    return false;
  return (Limbs[Limb] >> (Index % 64)) & 1;
}

void BigInt::divmod(const BigInt &Dividend, const BigInt &Divisor,
                    BigInt &Quotient, BigInt &Remainder) {
  assert(!Divisor.isZero() && "division by zero");
  if (Divisor.Limbs.size() == 1) {
    uint64_t Rem = 0;
    Quotient = Dividend.divideBySmall(Divisor.Limbs[0], &Rem);
    Remainder = BigInt(Rem);
    return;
  }
  if (Dividend < Divisor) {
    Remainder = Dividend;
    Quotient = BigInt();
    return;
  }
  // Binary long division into locals, assigned last, so either output may
  // alias either input. Rank decompositions divide numbers of at most a few
  // thousand bits, where the O(bits * limbs) cost is negligible.
  unsigned Bits = Dividend.numBits();
  BigInt Q, R;
  Q.Limbs.assign((Bits + 63) / 64, 0);
  for (unsigned I = Bits; I-- > 0;) {
    R *= 2;
    if (Dividend.bit(I))
      R += BigInt(1);
    if (R >= Divisor) {
      R -= Divisor;
      Q.Limbs[I / 64] |= uint64_t(1) << (I % 64);
    }
  }
  Q.trim();
  Quotient = std::move(Q);
  Remainder = std::move(R);
}

BigInt BigInt::operator/(const BigInt &RHS) const {
  BigInt Quotient, Remainder;
  divmod(*this, RHS, Quotient, Remainder);
  return Quotient;
}

BigInt BigInt::operator%(const BigInt &RHS) const {
  BigInt Quotient, Remainder;
  divmod(*this, RHS, Quotient, Remainder);
  return Remainder;
}

BigInt BigInt::pow(uint64_t Base, unsigned Exponent) {
  BigInt Result(1);
  BigInt Factor(Base);
  while (Exponent != 0) {
    if (Exponent & 1)
      Result *= Factor;
    Factor *= Factor;
    Exponent >>= 1;
  }
  return Result;
}

std::string BigInt::toString() const {
  if (isZero())
    return "0";
  // Peel off 19 decimal digits at a time (10^19 fits in a uint64_t).
  constexpr uint64_t Chunk = 10000000000000000000ULL;
  std::vector<uint64_t> Pieces;
  BigInt Current = *this;
  while (!Current.isZero()) {
    uint64_t Rem = 0;
    Current = Current.divideBySmall(Chunk, &Rem);
    Pieces.push_back(Rem);
  }
  std::string Result = std::to_string(Pieces.back());
  for (size_t I = Pieces.size() - 1; I-- > 0;) {
    std::string Part = std::to_string(Pieces[I]);
    Result.append(19 - Part.size(), '0');
    Result += Part;
  }
  return Result;
}

unsigned BigInt::numDecimalDigits() const {
  if (isZero())
    return 1;
  return static_cast<unsigned>(toString().size());
}

double BigInt::log10() const {
  if (isZero())
    return -HUGE_VAL;
  // Use the top two limbs for the mantissa and account for the rest as a
  // power-of-two exponent; accurate to well below one decimal digit.
  size_t N = Limbs.size();
  double Top = static_cast<double>(Limbs[N - 1]);
  if (N >= 2)
    Top = Top * 18446744073709551616.0 + static_cast<double>(Limbs[N - 2]);
  size_t SkippedLimbs = N >= 2 ? N - 2 : 0;
  return std::log10(Top) +
         static_cast<double>(SkippedLimbs) * 64.0 * std::log10(2.0);
}

double BigInt::toDouble() const {
  if (isZero())
    return 0.0;
  double Result = 0.0;
  for (size_t I = Limbs.size(); I-- > 0;) {
    Result = Result * 18446744073709551616.0 + static_cast<double>(Limbs[I]);
    if (std::isinf(Result))
      return Result;
  }
  return Result;
}
