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

Xoshiro256 RngStreamFactory::stream(std::uint64_t stream_index) const noexcept {
  Xoshiro256 engine = base_;
  for (std::uint64_t i = 0; i < stream_index; ++i) engine.jump();
  return engine;
}

}  // namespace cspls::util
