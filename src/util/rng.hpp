// Deterministic pseudo-random number generation for reproducible experiments.
//
// The engine is xoshiro256** (Blackman & Vigna), seeded through splitmix64 as
// its authors recommend.  It provides jump() so that a family of
// walkers can be given provably non-overlapping subsequences from one master
// seed — the property the independent multi-walk engine relies on: the paper's
// parallel scheme launches "several search engines starting from different
// initial configurations", and those configurations must be independent even
// when thousands of walkers share a single experiment seed.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>

namespace cspls::util {

/// splitmix64: used to expand a 64-bit seed into engine state.  Also a fine
/// standalone generator for non-critical uses (hashing, quick decorrelation).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  [[nodiscard]] std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 256-bit-state generator.
/// Satisfies std::uniform_random_bit_generator so it can drive <random>.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seed via splitmix64 expansion (never yields the all-zero state).
  explicit Xoshiro256(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept { return next(); }

  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advance 2^128 steps: partitions the period into 2^128 non-overlapping
  /// streams.  Used to derive sibling streams for parallel walkers.
  void jump() noexcept;

  /// Uniform integer in [0, bound).  Uses Lemire's multiply-shift rejection
  /// method (unbiased, one division in the rare rejection path).  Defined
  /// inline: this is the tie-break draw on the solver's hot path.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound <= 1) return 0;
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) [[unlikely]] {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform01() < p; }

  /// Fisher–Yates shuffle of a span.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(values[i - 1], values[j]);
    }
  }

  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return state_;
  }

  /// Rebuild an engine at an exact stream position previously captured with
  /// state().  This is the checkpoint/resume primitive: a resumed engine
  /// continues the captured sequence bit-for-bit.  An all-zero state (never
  /// produced by a seeded engine) is re-seeded defensively so the generator
  /// can't lock up on corrupt input.
  [[nodiscard]] static Xoshiro256 from_state(
      const std::array<std::uint64_t, 4>& state) noexcept {
    Xoshiro256 rng;
    if ((state[0] | state[1] | state[2] | state[3]) != 0) {
      rng.state_ = state;
    }
    return rng;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

/// Factory producing decorrelated sibling generators from one master seed.
///
/// Stream i is the master engine advanced by i jump()s (each jump is 2^128
/// steps), so any two streams are non-overlapping for any realistic run
/// length.  This mirrors how the reproduction assigns one stream per parallel
/// walker.
class RngStreamFactory {
 public:
  explicit RngStreamFactory(std::uint64_t master_seed) noexcept
      : base_(master_seed) {}

  /// Engine for walker `stream`; identical (seed, stream) always yields the
  /// identical sequence, regardless of how many streams are created.
  [[nodiscard]] Xoshiro256 stream(std::uint64_t stream_index) const noexcept;

 private:
  Xoshiro256 base_;
};

}  // namespace cspls::util
