// Portable fixed-width SIMD lanes for the data-parallel cost kernels.
//
// The lane type wraps a GNU vector extension
// (`__attribute__((vector_size(32)))`), which GCC and Clang lower to the
// best ISA the target allows (SSE2 pairs on stock x86-64, single AVX2 ops
// under -march=native/CSPLS_NATIVE, NEON on aarch64).  No intrinsic
// headers, no per-ISA code, and no kernel branches on the target.
//
// Only the operations a kernel actually uses live here (today the costas
// swap scan's slot arithmetic).  Scratch arrays that back full-lane loads are
// padded to a lane multiple via padded_size() so a full-width load never
// reads past the logical end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(__GNUC__)
#error "util/simd.hpp needs the GNU vector extensions: build with GCC or Clang"
#endif

namespace cspls::util::simd {

/// Human-readable tier: "vector-ext", tagged on x86-64 with the widest ISA
/// this CPU reports.
[[nodiscard]] const char* tier_name() noexcept;

/// Smallest multiple of `lanes` >= n (scratch padding for full-lane loads).
[[nodiscard]] constexpr std::size_t padded_size(std::size_t n,
                                                std::size_t lanes) noexcept {
  return (n + lanes - 1) / lanes * lanes;
}

// --- i32x8: eight 32-bit lanes --------------------------------------------

struct i32x8 {
  static constexpr std::size_t kLanes = 8;
  using native = std::int32_t __attribute__((vector_size(32)));
  native v;

  [[nodiscard]] static i32x8 load(const std::int32_t* p) noexcept {
    i32x8 r;
    std::memcpy(&r.v, p, sizeof(r.v));
    return r;
  }

  void store(std::int32_t* p) const noexcept { std::memcpy(p, &v, sizeof(v)); }

  [[nodiscard]] static i32x8 broadcast(std::int32_t s) noexcept {
    i32x8 r;
    r.v = native{s, s, s, s, s, s, s, s};
    return r;
  }

  friend i32x8 operator+(const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
    r.v = a.v + b.v;
    return r;
  }

  friend i32x8 operator-(const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
    r.v = a.v - b.v;
    return r;
  }

  friend i32x8 operator^(const i32x8& a, const i32x8& b) noexcept {
    i32x8 r;
    r.v = a.v ^ b.v;
    return r;
  }
};

}  // namespace cspls::util::simd
