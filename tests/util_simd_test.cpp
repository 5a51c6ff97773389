// The portable SIMD lane layer (util/simd.hpp).  Every lane operation is
// checked against a plain scalar reference on randomized inputs, so the
// vector tier (CSPLS_SIMD=ON) and the scalar-array tier (OFF) are held to
// the same answers.
#include "util/simd.hpp"

#include <array>
#include <cstdint>
#include <cstring>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace simd = cspls::util::simd;
using cspls::util::Xoshiro256;

namespace {

std::array<std::int32_t, 8> lanes_of(const simd::i32x8& a) {
  std::array<std::int32_t, 8> out{};
  a.store(out.data());
  return out;
}

TEST(SimdUtil, PaddedSize) {
  EXPECT_EQ(simd::padded_size(0, 8), 0u);
  EXPECT_EQ(simd::padded_size(1, 8), 8u);
  EXPECT_EQ(simd::padded_size(8, 8), 8u);
  EXPECT_EQ(simd::padded_size(9, 8), 16u);
  EXPECT_EQ(simd::padded_size(13, 4), 16u);
}

TEST(SimdUtil, TierNameFollowsTheBuild) {
  const char* tier = simd::tier_name();
#if CSPLS_SIMD_VECTOR_EXT
  EXPECT_EQ(std::strncmp(tier, "vector-ext", 10), 0) << tier;
#else
  EXPECT_STREQ(tier, "scalar");
#endif
}

TEST(SimdI32, LoadStoreBroadcast) {
  const std::array<std::int32_t, 8> src = {1, -2, 3, -4, 5, -6, 7, -8};
  EXPECT_EQ(lanes_of(simd::i32x8::load(src.data())), src);

  std::array<std::int32_t, 8> all{};
  all.fill(-42);
  EXPECT_EQ(lanes_of(simd::i32x8::broadcast(-42)), all);
}

TEST(SimdI32, ArithmeticMatchesScalarReference) {
  Xoshiro256 rng(0xA11CE);
  for (int round = 0; round < 200; ++round) {
    std::int32_t xs[8];
    std::int32_t ys[8];
    for (auto& x : xs) x = static_cast<std::int32_t>(rng.next()) % 1000;
    for (auto& y : ys) y = static_cast<std::int32_t>(rng.next()) % 1000;
    const auto a = simd::i32x8::load(xs);
    const auto b = simd::i32x8::load(ys);
    const auto sum = lanes_of(a + b);
    const auto diff = lanes_of(a - b);
    const auto x_or = lanes_of(a ^ b);
    for (std::size_t k = 0; k < 8; ++k) {
      EXPECT_EQ(sum[k], xs[k] + ys[k]);
      EXPECT_EQ(diff[k], xs[k] - ys[k]);
      EXPECT_EQ(x_or[k], xs[k] ^ ys[k]);
    }
  }
}

TEST(SimdI32, NegateMaskFoldsSign) {
  // (d ^ m) - m is d for m = 0 and -d for m = -1: the costas slot tables
  // fold a pair's orientation into this mask instead of a multiply.
  const std::int32_t ds[8] = {5, -3, 0, 17, -17, 1, -1, 9};
  const std::int32_t ms[8] = {0, 0, 0, -1, -1, -1, 0, -1};
  const auto d = simd::i32x8::load(ds);
  const auto m = simd::i32x8::load(ms);
  const auto got = lanes_of((d ^ m) - m);
  for (std::size_t k = 0; k < 8; ++k) {
    EXPECT_EQ(got[k], ms[k] == 0 ? ds[k] : -ds[k]);
  }
}

}  // namespace
