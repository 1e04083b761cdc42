//===- tests/support_bigint_test.cpp - BigInt unit tests -----------------===//

#include "support/BigInt.h"

#include "gtest/gtest.h"

#include <cmath>

using namespace spe;

TEST(BigIntTest, DefaultIsZero) {
  BigInt Zero;
  EXPECT_TRUE(Zero.isZero());
  EXPECT_EQ(Zero.toString(), "0");
  EXPECT_EQ(Zero.toUint64(), 0u);
  EXPECT_EQ(Zero.numDecimalDigits(), 1u);
}

TEST(BigIntTest, SmallValuesRoundTrip) {
  for (uint64_t V : {1ull, 9ull, 10ull, 999ull, 1000000007ull,
                     18446744073709551615ull}) {
    BigInt B(V);
    EXPECT_EQ(B.toString(), std::to_string(V));
    EXPECT_EQ(B.toUint64(), V);
  }
}

TEST(BigIntTest, AdditionCarriesAcrossLimbs) {
  BigInt Max(18446744073709551615ull);
  BigInt Result = Max + BigInt(1);
  EXPECT_EQ(Result.toString(), "18446744073709551616");
  EXPECT_FALSE(Result.fitsInUint64());
}

TEST(BigIntTest, SubtractionBorrowsAcrossLimbs) {
  BigInt TwoTo64 = BigInt::pow(2, 64);
  BigInt Result = TwoTo64 - BigInt(1);
  EXPECT_EQ(Result.toString(), "18446744073709551615");
  EXPECT_TRUE((TwoTo64 - TwoTo64).isZero());
}

TEST(BigIntTest, MultiplicationMatchesKnownPowers) {
  EXPECT_EQ(BigInt::pow(2, 100).toString(), "1267650600228229401496703205376");
  EXPECT_EQ(BigInt::pow(10, 30).toString(),
            std::string("1") + std::string(30, '0'));
  EXPECT_EQ(BigInt::pow(3, 0).toString(), "1");
  EXPECT_EQ(BigInt::pow(0, 5).toString(), "0");
  EXPECT_EQ(BigInt::pow(0, 0).toString(), "1");
}

TEST(BigIntTest, BigTimesBig) {
  BigInt A = BigInt::pow(2, 100);
  BigInt B = BigInt::pow(5, 100);
  // 2^100 * 5^100 = 10^100.
  EXPECT_EQ((A * B).toString(), BigInt::pow(10, 100).toString());
}

TEST(BigIntTest, MultiplySmall) {
  BigInt A = BigInt::pow(10, 25);
  A *= 7;
  EXPECT_EQ(A.toString(), "7" + std::string(25, '0'));
  A *= 0;
  EXPECT_TRUE(A.isZero());
}

TEST(BigIntTest, DivideBySmall) {
  BigInt A = BigInt::pow(10, 40);
  uint64_t Rem = 123;
  BigInt Q = (A + BigInt(123)).divideBySmall(10, &Rem);
  EXPECT_EQ(Rem, 3u);
  EXPECT_EQ(Q.toString(), "1" + std::string(37, '0') + "12");
}

TEST(BigIntTest, DivideExact) {
  BigInt A = BigInt::pow(7, 30);
  uint64_t Rem = 1;
  BigInt Q = A.divideBySmall(7, &Rem);
  EXPECT_EQ(Rem, 0u);
  EXPECT_EQ((Q * 7ull).toString(), A.toString());
}

TEST(BigIntTest, ComparisonOrdering) {
  BigInt A(5), B(7);
  BigInt C = BigInt::pow(2, 200);
  EXPECT_LT(A.compare(B), 0);
  EXPECT_GT(B.compare(A), 0);
  EXPECT_EQ(A.compare(BigInt(5)), 0);
  EXPECT_TRUE(B < C);
  EXPECT_TRUE(C >= B);
  EXPECT_TRUE(C == C);
}

TEST(BigIntTest, FromDecimalStringRoundTrip) {
  const std::string Digits = "123456789012345678901234567890123456789";
  EXPECT_EQ(BigInt::fromDecimalString(Digits).toString(), Digits);
  EXPECT_EQ(BigInt::fromDecimalString("0").toString(), "0");
  EXPECT_EQ(BigInt::fromDecimalString("007").toString(), "7");
}

TEST(BigIntTest, Log10Accuracy) {
  EXPECT_NEAR(BigInt(1000).log10(), 3.0, 1e-9);
  EXPECT_NEAR(BigInt::pow(10, 163).log10(), 163.0, 1e-6);
  EXPECT_NEAR(BigInt::pow(2, 64).log10(), 64.0 * std::log10(2.0), 1e-6);
  EXPECT_TRUE(std::isinf(BigInt(0).log10()));
}

TEST(BigIntTest, NumDecimalDigits) {
  EXPECT_EQ(BigInt(9).numDecimalDigits(), 1u);
  EXPECT_EQ(BigInt(10).numDecimalDigits(), 2u);
  EXPECT_EQ(BigInt::pow(10, 50).numDecimalDigits(), 51u);
}

TEST(BigIntTest, ToDouble) {
  EXPECT_DOUBLE_EQ(BigInt(42).toDouble(), 42.0);
  EXPECT_NEAR(BigInt::pow(2, 70).toDouble(), std::pow(2.0, 70.0), 1e6);
  EXPECT_TRUE(std::isinf(BigInt::pow(10, 400).toDouble()));
}

TEST(BigIntTest, AccumulatedSumMatchesClosedForm) {
  // sum_{i=0..999} i = 499500, built through += on a growing accumulator.
  BigInt Sum;
  for (uint64_t I = 0; I < 1000; ++I)
    Sum += BigInt(I);
  EXPECT_EQ(Sum.toUint64(), 499500u);
}

TEST(BigIntTest, NumBitsAndBitAccess) {
  EXPECT_EQ(BigInt(0).numBits(), 0u);
  EXPECT_EQ(BigInt(1).numBits(), 1u);
  EXPECT_EQ(BigInt(255).numBits(), 8u);
  EXPECT_EQ(BigInt::pow(2, 64).numBits(), 65u);
  BigInt V = BigInt::pow(2, 100);
  EXPECT_TRUE(V.bit(100));
  EXPECT_FALSE(V.bit(99));
  EXPECT_FALSE(V.bit(101));
  EXPECT_FALSE(V.bit(500));
}

TEST(BigIntTest, DivmodSmallValues) {
  BigInt Q, R;
  BigInt::divmod(BigInt(17), BigInt(5), Q, R);
  EXPECT_EQ(Q.toUint64(), 3u);
  EXPECT_EQ(R.toUint64(), 2u);
  BigInt::divmod(BigInt(4), BigInt(9), Q, R);
  EXPECT_TRUE(Q.isZero());
  EXPECT_EQ(R.toUint64(), 4u);
  BigInt::divmod(BigInt(0), BigInt(3), Q, R);
  EXPECT_TRUE(Q.isZero());
  EXPECT_TRUE(R.isZero());
}

TEST(BigIntTest, DivmodLargeValuesRoundTrip) {
  // Quotient * Divisor + Remainder must reconstruct the dividend exactly,
  // across multi-limb dividends and divisors.
  const BigInt Dividends[] = {
      BigInt::pow(10, 163), BigInt::pow(2, 200) + BigInt(12345),
      BigInt::fromDecimalString("987654321098765432109876543210"),
  };
  const BigInt Divisors[] = {
      BigInt(7), BigInt::pow(2, 64), BigInt::pow(10, 50) + BigInt(3),
      BigInt::fromDecimalString("18446744073709551629"),
  };
  for (const BigInt &A : Dividends) {
    for (const BigInt &B : Divisors) {
      BigInt Q, R;
      BigInt::divmod(A, B, Q, R);
      EXPECT_TRUE(R < B);
      EXPECT_EQ(Q * B + R, A) << A.toString() << " / " << B.toString();
    }
  }
}

TEST(BigIntTest, DivisionOperators) {
  BigInt A = BigInt::pow(3, 120);
  BigInt B = BigInt::pow(3, 40);
  EXPECT_EQ(A / B, BigInt::pow(3, 80));
  EXPECT_TRUE((A % B).isZero());
  EXPECT_EQ((A + BigInt(5)) % B, BigInt(5));
  EXPECT_EQ(A / A, BigInt(1));
  EXPECT_EQ(A / (A + BigInt(1)), BigInt(0));
}

TEST(BigIntTest, DivmodOutputsMayAliasInputs) {
  // X = 10^40 + 7 over a one-limb and a multi-limb divisor; every output
  // may be the same object as either input.
  const BigInt X = BigInt::pow(10, 40) + BigInt(7);
  struct Case {
    BigInt D, Q, R;
  };
  const Case Cases[] = {
      {BigInt::pow(10, 9), BigInt::pow(10, 31), BigInt(7)},
      {BigInt::pow(10, 25), BigInt::pow(10, 15), BigInt(7)},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE("divisor " + C.D.toString());
    {
      BigInt N = X, R;
      BigInt::divmod(N, C.D, N, R); // Quotient aliases the dividend.
      EXPECT_EQ(N, C.Q);
      EXPECT_EQ(R, C.R);
    }
    {
      BigInt N = X, Q;
      BigInt::divmod(N, C.D, Q, N); // Remainder aliases the dividend.
      EXPECT_EQ(Q, C.Q);
      EXPECT_EQ(N, C.R);
    }
    {
      BigInt D = C.D, R;
      BigInt::divmod(X, D, D, R); // Quotient aliases the divisor.
      EXPECT_EQ(D, C.Q);
      EXPECT_EQ(R, C.R);
    }
    {
      BigInt D = C.D, Q;
      BigInt::divmod(X, D, Q, D); // Remainder aliases the divisor.
      EXPECT_EQ(Q, C.Q);
      EXPECT_EQ(D, C.R);
    }
  }
}
