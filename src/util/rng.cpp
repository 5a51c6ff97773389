#include "util/rng.hpp"

namespace cspls::util {

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : state_) word = sm.next();
  // splitmix64 cannot produce four zero words from any seed, but be defensive:
  // the all-zero state is the one fixed point of xoshiro.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

namespace {
constexpr std::array<std::uint64_t, 4> kJump = {
    0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
    0x39abdc4529b1661cULL};
constexpr std::array<std::uint64_t, 4> kLongJump = {
    0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
    0x39109bb02acbe635ULL};
}  // namespace

void Xoshiro256::jump() noexcept {
  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        acc[0] ^= state_[0];
        acc[1] ^= state_[1];
        acc[2] ^= state_[2];
        acc[3] ^= state_[3];
      }
      (void)next();
    }
  }
  state_ = acc;
}

void Xoshiro256::long_jump() noexcept {
  std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
  for (const std::uint64_t word : kLongJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (word & (1ULL << bit)) {
        acc[0] ^= state_[0];
        acc[1] ^= state_[1];
        acc[2] ^= state_[2];
        acc[3] ^= state_[3];
      }
      (void)next();
    }
  }
  state_ = acc;
}

std::int64_t Xoshiro256::between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto width =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi >= lo expected
  return lo + static_cast<std::int64_t>(below(width));
}

Xoshiro256 RngStreamFactory::stream(std::uint64_t stream_index) const noexcept {
  Xoshiro256 engine = base_;
  for (std::uint64_t i = 0; i < stream_index; ++i) engine.jump();
  return engine;
}

RngStreamFactory RngStreamFactory::repetition(
    std::uint64_t rep) const noexcept {
  Xoshiro256 engine = base_;
  for (std::uint64_t i = 0; i < rep; ++i) engine.long_jump();
  return RngStreamFactory(engine, seed_);
}

}  // namespace cspls::util
