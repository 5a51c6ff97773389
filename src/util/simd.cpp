#include "util/simd.hpp"

namespace cspls::util::simd {

const char* tier_name() noexcept {
#if CSPLS_SIMD_VECTOR_EXT && defined(__x86_64__)
  static const char* const name = [] {
    if (__builtin_cpu_supports("avx512f")) return "vector-ext[avx512f]";
    if (__builtin_cpu_supports("avx2")) return "vector-ext[avx2]";
    if (__builtin_cpu_supports("sse4.2")) return "vector-ext[sse4.2]";
    return "vector-ext[sse2]";
  }();
  return name;
#elif CSPLS_SIMD_VECTOR_EXT
  return "vector-ext";
#else
  return "scalar";
#endif
}

}  // namespace cspls::util::simd
