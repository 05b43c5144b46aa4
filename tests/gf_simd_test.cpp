// Cross-backend equivalence tests for the GF(2^8) region kernels: the AVX2
// shuffle and GFNI affine kernels must agree with the scalar full-table
// backend bit-for-bit on every coefficient, size and alignment.

#include <gtest/gtest.h>

#include "gf/backend.h"
#include "gf/vect.h"
#include "test_util.h"

namespace carousel::gf {
namespace {

TEST(Backend, BestIsSupportedAndSettable) {
  Backend best = best_backend();
  EXPECT_TRUE(set_backend(best));
  EXPECT_EQ(active_backend(), best);
  EXPECT_TRUE(set_backend(Backend::kScalar));
  EXPECT_EQ(active_backend(), Backend::kScalar);
  set_backend(best);
}

TEST(Backend, NamesAreStable) {
  EXPECT_STREQ(backend_name(Backend::kScalar), "scalar");
  EXPECT_STREQ(backend_name(Backend::kAvx2), "avx2");
  EXPECT_STREQ(backend_name(Backend::kGfni), "gfni");
}

TEST(Backend, ScopedBackendRestores) {
  Backend before = active_backend();
  {
    ScopedBackend guard(Backend::kScalar);
    EXPECT_TRUE(guard.ok());
    EXPECT_EQ(active_backend(), Backend::kScalar);
  }
  EXPECT_EQ(active_backend(), before);
}

class BackendEquivalence : public ::testing::TestWithParam<Backend> {
 protected:
  void SetUp() override {
    if (!set_backend(GetParam()))
      GTEST_SKIP() << "backend " << backend_name(GetParam())
                   << " not supported on this CPU";
  }
  void TearDown() override { set_backend(best_backend()); }
};

TEST_P(BackendEquivalence, MulRegionAllCoefficients) {
  auto src = test::random_bytes(1 << 12);
  std::vector<Byte> dst(src.size());
  for (unsigned c = 0; c < 256; ++c) {
    mul_region(static_cast<Byte>(c), src.data(), dst.data(), src.size());
    for (std::size_t i = 0; i < src.size(); i += 97)
      ASSERT_EQ(dst[i], mul(static_cast<Byte>(c), src[i]))
          << "c=" << c << " i=" << i;
  }
}

TEST_P(BackendEquivalence, MulAddRegionAllCoefficients) {
  auto src = test::random_bytes(2048, 1);
  for (unsigned c = 0; c < 256; c += 3) {
    auto dst = test::random_bytes(2048, 2);
    auto expect = dst;
    for (std::size_t i = 0; i < src.size(); ++i)
      expect[i] ^= mul(static_cast<Byte>(c), src[i]);
    mul_add_region(static_cast<Byte>(c), src.data(), dst.data(), src.size());
    ASSERT_EQ(dst, expect) << "c=" << c;
  }
}

TEST_P(BackendEquivalence, TailSizesAroundVectorWidth) {
  // Exercise every remainder around the 32-byte vector width.
  for (std::size_t n = 0; n <= 100; ++n) {
    auto src = test::random_bytes(n, static_cast<std::uint32_t>(n) + 1);
    std::vector<Byte> dst(n, 0);
    mul_region(0xA7, src.data(), dst.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(dst[i], mul(0xA7, src[i])) << "n=" << n << " i=" << i;
  }
}

TEST_P(BackendEquivalence, UnalignedPointers) {
  // Every src offset mod the 32-byte vector width (dst offset de-correlated
  // via *7 mod 32), so each possible vmovdqu misalignment is hit — the SIMD
  // kernels promise memcpy-clean unaligned access for arbitrary Byte*
  // regions, and UBSan's alignment check rides on this test.
  auto buf = test::random_bytes(4096 + 64, 7);
  for (std::size_t off = 0; off < 32; ++off) {
    std::vector<Byte> dst(4096 + 64, 0);
    mul_region(0x53, buf.data() + off, dst.data() + ((off * 7) % 32), 4000);
    for (std::size_t i = 0; i < 4000; i += 131)
      ASSERT_EQ(dst[(off * 7) % 32 + i], mul(0x53, buf[off + i]))
          << "off=" << off;
  }
}

TEST_P(BackendEquivalence, XorRegion) {
  for (std::size_t n : {31u, 32u, 33u, 1000u}) {
    auto src = test::random_bytes(n, 5);
    auto dst = test::random_bytes(n, 6);
    auto expect = dst;
    for (std::size_t i = 0; i < n; ++i) expect[i] ^= src[i];
    xor_region(src.data(), dst.data(), n);
    ASSERT_EQ(dst, expect) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendEquivalence,
                         ::testing::Values(Backend::kScalar, Backend::kAvx2,
                                           Backend::kGfni),
                         [](const auto& info) {
                           return backend_name(info.param);
                         });

// Exhaustive 256x256 product check on whatever backend is fastest — pins the
// GFNI affine-matrix packing (and the shuffle tables) to the field tables.
TEST(BackendExhaustive, FullMultiplicationTableOnBestBackend) {
  set_backend(best_backend());
  std::vector<Byte> src(256);
  for (unsigned i = 0; i < 256; ++i) src[i] = static_cast<Byte>(i);
  std::vector<Byte> dst(256);
  for (unsigned c = 0; c < 256; ++c) {
    mul_region(static_cast<Byte>(c), src.data(), dst.data(), 256);
    for (unsigned b = 0; b < 256; ++b)
      ASSERT_EQ(dst[b], mul(static_cast<Byte>(c), static_cast<Byte>(b)))
          << "c=" << c << " b=" << b;
  }
}

}  // namespace
}  // namespace carousel::gf
