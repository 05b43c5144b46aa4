#include <gtest/gtest.h>

#include <numeric>

#include "gf/gf256.h"
#include "gf/vect.h"
#include "test_util.h"

namespace carousel::gf {
namespace {

TEST(Gf256, AdditionIsXor) {
  EXPECT_EQ(add(0x53, 0xCA), 0x53 ^ 0xCA);
  EXPECT_EQ(sub(0x53, 0xCA), add(0x53, 0xCA));
  for (unsigned a = 0; a < 256; ++a) EXPECT_EQ(add(Byte(a), Byte(a)), 0);
}

TEST(Gf256, MultiplicativeIdentityAndZero) {
  for (unsigned a = 0; a < 256; ++a) {
    EXPECT_EQ(mul(Byte(a), 1), a);
    EXPECT_EQ(mul(1, Byte(a)), a);
    EXPECT_EQ(mul(Byte(a), 0), 0);
    EXPECT_EQ(mul(0, Byte(a)), 0);
  }
}

TEST(Gf256, KnownProducts) {
  // Spot values for polynomial 0x11D (match ISA-L / jerasure GF(2^8)).
  EXPECT_EQ(mul(2, 2), 4);
  EXPECT_EQ(mul(0x80, 2), 0x1D);  // x^8 = x^4+x^3+x^2+1
  EXPECT_EQ(mul(0xFF, 0xFF), 0xE2);
}

// Independent reference: shift-and-add ("peasant") multiplication straight
// from the field definition, sharing no code with the table implementation.
Byte peasant_mul(Byte a, Byte b) {
  unsigned r = 0, x = a;
  for (int i = 0; i < 8; ++i)
    if (b & (1u << i)) r ^= x << i;
  for (int i = 15; i >= 8; --i)
    if (r & (1u << i)) r ^= kPrimitivePoly << (i - 8);
  return static_cast<Byte>(r);
}

TEST(Gf256, TableMatchesPeasantMultiplicationExhaustively) {
  for (unsigned a = 0; a < 256; ++a)
    for (unsigned b = 0; b < 256; ++b)
      ASSERT_EQ(mul(Byte(a), Byte(b)), peasant_mul(Byte(a), Byte(b)))
          << a << "*" << b;
}

TEST(Gf256, MulCommutative) {
  for (unsigned a = 0; a < 256; a += 7)
    for (unsigned b = 0; b < 256; ++b)
      EXPECT_EQ(mul(Byte(a), Byte(b)), mul(Byte(b), Byte(a)));
}

TEST(Gf256, MulAssociativeSampled) {
  for (unsigned a = 1; a < 256; a += 11)
    for (unsigned b = 1; b < 256; b += 13)
      for (unsigned c = 1; c < 256; c += 17)
        EXPECT_EQ(mul(mul(Byte(a), Byte(b)), Byte(c)),
                  mul(Byte(a), mul(Byte(b), Byte(c))));
}

TEST(Gf256, DistributiveSampled) {
  for (unsigned a = 0; a < 256; a += 5)
    for (unsigned b = 0; b < 256; b += 9)
      for (unsigned c = 0; c < 256; c += 11)
        EXPECT_EQ(mul(Byte(a), add(Byte(b), Byte(c))),
                  add(mul(Byte(a), Byte(b)), mul(Byte(a), Byte(c))));
}

TEST(Gf256, InverseRoundTrip) {
  for (unsigned a = 1; a < 256; ++a) {
    EXPECT_EQ(mul(Byte(a), inv(Byte(a))), 1) << "a=" << a;
    EXPECT_EQ(div(Byte(a), Byte(a)), 1);
  }
  EXPECT_EQ(inv(0), 0);  // sentinel convention
}

TEST(Gf256, DivIsMulByInverse) {
  for (unsigned a = 0; a < 256; a += 3)
    for (unsigned b = 1; b < 256; b += 5)
      EXPECT_EQ(mul(div(Byte(a), Byte(b)), Byte(b)), a);
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (unsigned a = 0; a < 256; a += 6) {
    Byte acc = 1;
    for (unsigned e = 0; e < 300; ++e) {
      EXPECT_EQ(pow(Byte(a), e), e == 0 ? Byte(1) : acc)
          << "a=" << a << " e=" << e;
      if (e == 0)
        acc = Byte(a);
      else
        acc = mul(acc, Byte(a));
    }
  }
}

TEST(Gf256, LogExpRoundTrip) {
  for (unsigned a = 1; a < 256; ++a) EXPECT_EQ(exp(log(Byte(a))), a);
  for (unsigned i = 0; i < 255; ++i) EXPECT_EQ(log(exp(i)), i);
}

TEST(Gf256, GeneratorHasFullOrder) {
  // exp enumerates all 255 nonzero elements exactly once.
  std::vector<bool> seen(256, false);
  for (unsigned i = 0; i < 255; ++i) {
    Byte v = exp(i);
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[v]) << "repeat at i=" << i;
    seen[v] = true;
  }
}

TEST(Vect, MulRowMatchesScalar) {
  for (unsigned c = 0; c < 256; c += 4) {
    const Byte* row = mul_row(Byte(c));
    for (unsigned b = 0; b < 256; ++b)
      EXPECT_EQ(row[b], mul(Byte(c), Byte(b)));
  }
}

TEST(Vect, MulRegionMatchesScalar) {
  auto src = test::random_bytes(1000);
  std::vector<Byte> dst(src.size());
  for (Byte c : {Byte(0), Byte(1), Byte(2), Byte(0x8E), Byte(0xFF)}) {
    mul_region(c, src.data(), dst.data(), src.size());
    for (std::size_t i = 0; i < src.size(); ++i)
      ASSERT_EQ(dst[i], mul(c, src[i])) << "c=" << int(c) << " i=" << i;
  }
}

TEST(Vect, MulRegionInPlace) {
  auto src = test::random_bytes(257);
  auto expect = src;
  for (auto& b : expect) b = mul(0x35, b);
  mul_region(0x35, src.data(), src.data(), src.size());
  EXPECT_EQ(src, expect);
}

TEST(Vect, MulAddRegionAccumulates) {
  auto src = test::random_bytes(513, 1);
  auto dst = test::random_bytes(513, 2);
  auto expect = dst;
  for (std::size_t i = 0; i < src.size(); ++i)
    expect[i] ^= mul(0x1B, src[i]);
  mul_add_region(0x1B, src.data(), dst.data(), src.size());
  EXPECT_EQ(dst, expect);
}

TEST(Vect, MulAddRegionZeroCoeffIsNoop) {
  auto src = test::random_bytes(64, 1);
  auto dst = test::random_bytes(64, 2);
  auto expect = dst;
  mul_add_region(0, src.data(), dst.data(), src.size());
  EXPECT_EQ(dst, expect);
}

TEST(Vect, XorRegionOddSizes) {
  for (std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 65u, 1000u}) {
    auto src = test::random_bytes(n, 3);
    auto dst = test::random_bytes(n, 4);
    auto expect = dst;
    for (std::size_t i = 0; i < n; ++i) expect[i] ^= src[i];
    xor_region(src.data(), dst.data(), n);
    EXPECT_EQ(dst, expect) << "n=" << n;
  }
}

}  // namespace
}  // namespace carousel::gf
