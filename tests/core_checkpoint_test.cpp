// core::Checkpoint: safe-point capture through the engine's preempt flag,
// byte-identical resume of an interrupted walk, and the strict versioned
// JSON schema (round-trip exactness, unknown/missing-member rejection,
// consistency validation on resume).
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <utility>
#include <vector>

#include "core/adaptive_search.hpp"
#include "problems/costas.hpp"
#include "util/rng.hpp"

namespace cspls::core {
namespace {

Params test_params(const csp::Problem& p) {
  Params params = Params::from_hints(p.tuning(), p.num_variables());
  params.max_restarts = 50;
  return params;
}

/// The walk's (iteration, cost) samples, every 8 iterations.
using Samples = std::vector<std::pair<std::uint64_t, csp::Cost>>;

/// Point `hooks`' sample hook at `samples` (a no-op when null).
void sample_into(Hooks& hooks, Samples* samples) {
  if (samples == nullptr) return;
  hooks.sample = [samples](std::uint64_t iteration, csp::Cost cost) {
    samples->emplace_back(iteration, cost);
  };
  hooks.sample_period = 8;
}

/// Run to completion with no interruption: the reference trajectory.
Result reference_run(const csp::Problem& prototype, std::uint64_t seed,
                     Samples* samples = nullptr) {
  auto problem = prototype.clone();
  const AdaptiveSearch engine(test_params(*problem));
  util::Xoshiro256 rng(seed);
  Hooks hooks;
  sample_into(hooks, samples);
  return engine.solve(*problem, rng, StopToken(), hooks);
}

/// Run until iteration `preempt_at`, then preempt and capture.  The flag is
/// flipped by the observer hook, so the next iteration's stop poll — the
/// safe point — observes it deterministically.
std::optional<Checkpoint> capture_at(const csp::Problem& prototype,
                                     std::uint64_t seed,
                                     std::uint64_t preempt_at,
                                     Result* interrupted_out = nullptr,
                                     Samples* samples = nullptr) {
  auto problem = prototype.clone();
  const AdaptiveSearch engine(test_params(*problem));
  util::Xoshiro256 rng(seed);
  std::atomic<bool> preempt{false};
  std::optional<Checkpoint> checkpoint;
  Hooks hooks;
  hooks.observer_period = 1;
  hooks.observer = [&](std::uint64_t iter, csp::Cost, std::span<const int>) {
    if (iter >= preempt_at) preempt.store(true, std::memory_order_relaxed);
  };
  hooks.checkpoint_out = &checkpoint;
  sample_into(hooks, samples);
  const Result result = engine.solve(
      *problem, rng, StopToken().with_preempt(&preempt), hooks);
  if (interrupted_out != nullptr) *interrupted_out = result;
  return checkpoint;
}

/// Resume from `checkpoint` and run to completion.
Result resume_run(const csp::Problem& prototype, const Checkpoint& checkpoint,
                  Samples* samples = nullptr) {
  auto problem = prototype.clone();
  const AdaptiveSearch engine(test_params(*problem));
  util::Xoshiro256 rng(0);  // overwritten by the checkpoint's RNG state
  Hooks hooks;
  hooks.resume = &checkpoint;
  sample_into(hooks, samples);
  return engine.solve(*problem, rng, StopToken(), hooks);
}

/// Everything but wall-clock seconds must match.
void expect_byte_identical(const Result& resumed, const Result& reference) {
  EXPECT_EQ(resumed.solved, reference.solved);
  EXPECT_EQ(resumed.cost, reference.cost);
  EXPECT_EQ(resumed.solution, reference.solution);
  EXPECT_EQ(resumed.interrupted, reference.interrupted);
  EXPECT_EQ(resumed.stop_cause, reference.stop_cause);
  EXPECT_EQ(resumed.stats.iterations, reference.stats.iterations);
  EXPECT_EQ(resumed.stats.swaps, reference.stats.swaps);
  EXPECT_EQ(resumed.stats.plateau_moves, reference.stats.plateau_moves);
  EXPECT_EQ(resumed.stats.local_minima, reference.stats.local_minima);
  EXPECT_EQ(resumed.stats.resets, reference.stats.resets);
  EXPECT_EQ(resumed.stats.restarts, reference.stats.restarts);
  EXPECT_EQ(resumed.stats.cost_evaluations, reference.stats.cost_evaluations);
}

TEST(CoreCheckpoint, PreemptedWalkStopsAtSafePointWithACapturedCheckpoint) {
  const problems::Costas costas(10);
  Result interrupted;
  const std::optional<Checkpoint> checkpoint =
      capture_at(costas, 77, 50, &interrupted);
  ASSERT_TRUE(checkpoint.has_value());
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_EQ(interrupted.stop_cause, StopCause::kPreempted);
  // Captured at the next stop poll after the flag flipped; no later.
  EXPECT_GE(interrupted.stats.iterations, 50u);
  EXPECT_EQ(checkpoint->stats.iterations, interrupted.stats.iterations);
  EXPECT_EQ(checkpoint->values.size(), costas.num_variables());
  EXPECT_EQ(checkpoint->best.size(), costas.num_variables());
  EXPECT_EQ(checkpoint->tabu_until.size(), costas.num_variables());
}

TEST(CoreCheckpoint, ResumeIsByteIdenticalToTheUninterruptedRun) {
  const problems::Costas costas(10);
  for (const std::uint64_t seed : {77ULL, 1234ULL, 9001ULL}) {
    const Result reference = reference_run(costas, seed);
    ASSERT_GT(reference.stats.iterations, 16u);
    // Cuts near the start, in the middle and just before the end; every
    // one must land the walk on the same final state.
    for (const std::uint64_t cut :
         {std::uint64_t{1}, reference.stats.iterations / 2,
          reference.stats.iterations - 5}) {
      const std::optional<Checkpoint> checkpoint =
          capture_at(costas, seed, cut);
      ASSERT_TRUE(checkpoint.has_value());
      expect_byte_identical(resume_run(costas, *checkpoint), reference);
    }
  }
}

TEST(CoreCheckpoint, ResumeAfterJsonRoundTripIsStillByteIdentical) {
  const problems::Costas costas(10);
  Samples reference_samples;
  const Result reference = reference_run(costas, 77, &reference_samples);
  Samples samples;
  const std::optional<Checkpoint> checkpoint = capture_at(
      costas, 77, reference.stats.iterations / 2, nullptr, &samples);
  ASSERT_TRUE(checkpoint.has_value());

  const std::optional<util::Json> reparsed =
      util::Json::parse(checkpoint->to_json().dump(0));
  ASSERT_TRUE(reparsed.has_value());
  const Checkpoint decoded = Checkpoint::from_json(*reparsed);
  EXPECT_EQ(decoded, *checkpoint);

  const std::size_t before = samples.size();
  ASSERT_GE(before, 2u);  // iteration 0 and at least one period
  expect_byte_identical(resume_run(costas, decoded, &samples), reference);
  // The preempted run's samples followed by the resumed run's read as one
  // uninterrupted walk: the resumed walk takes no second iteration-0
  // sample and goes on at the next period.
  ASSERT_GT(samples.size(), before);
  EXPECT_GT(samples[before].first, samples[before - 1].first);
  EXPECT_EQ(samples, reference_samples);
}

TEST(CoreCheckpoint, CheckpointIsNotCapturedForPlainCancellation) {
  const problems::Costas costas(10);
  auto problem = costas.clone();
  const AdaptiveSearch engine(test_params(*problem));
  util::Xoshiro256 rng(77);
  std::atomic<bool> cancel{false};
  std::optional<Checkpoint> checkpoint;
  Hooks hooks;
  hooks.observer_period = 1;
  hooks.observer = [&](std::uint64_t iter, csp::Cost, std::span<const int>) {
    if (iter >= 50) cancel.store(true, std::memory_order_relaxed);
  };
  hooks.checkpoint_out = &checkpoint;
  const Result result =
      engine.solve(*problem, rng, StopToken(&cancel), hooks);
  EXPECT_EQ(result.stop_cause, StopCause::kCancel);
  EXPECT_FALSE(checkpoint.has_value());
}

TEST(CoreCheckpoint, StrictJsonRejectsUnknownMissingAndMistypedMembers) {
  const problems::Costas costas(10);
  const std::optional<Checkpoint> checkpoint = capture_at(costas, 77, 50);
  ASSERT_TRUE(checkpoint.has_value());
  const util::Json good = checkpoint->to_json();

  // Wrong / missing schema tag.
  {
    util::Json bad = good;
    bad.set("schema", std::string("cspls-checkpoint/999"));
    EXPECT_THROW((void)Checkpoint::from_json(bad), std::invalid_argument);
  }
  // Unknown member.
  {
    util::Json bad = good;
    bad.set("surprise", std::uint64_t{1});
    EXPECT_THROW((void)Checkpoint::from_json(bad), std::invalid_argument);
  }
  // Missing member: rebuild without the RNG state.
  {
    util::Json bad = util::Json::object();
    for (const auto& [key, value] : good.members()) {
      if (key != "rng_state") bad.set(key, value);
    }
    EXPECT_THROW((void)Checkpoint::from_json(bad), std::invalid_argument);
  }
  // Internally inconsistent sizes (tabu vector shorter than values).
  {
    Checkpoint torn = *checkpoint;
    torn.tabu_until.pop_back();
    EXPECT_THROW((void)Checkpoint::from_json(torn.to_json()),
                 std::invalid_argument);
  }
}

TEST(CoreCheckpoint, ResumeValidatesProblemSizeAndCostInvariant) {
  const problems::Costas costas(10);
  const std::optional<Checkpoint> checkpoint = capture_at(costas, 77, 100);
  ASSERT_TRUE(checkpoint.has_value());

  // Wrong problem size.
  {
    problems::Costas other(9);
    const AdaptiveSearch engine(test_params(other));
    util::Xoshiro256 rng(0);
    Hooks hooks;
    hooks.resume = &*checkpoint;
    EXPECT_THROW((void)engine.solve(other, rng, StopToken(), hooks),
                 std::invalid_argument);
  }
  // Torn capture: the recorded cost no longer matches the configuration.
  {
    Checkpoint torn = *checkpoint;
    torn.cost += 1;
    auto problem = costas.clone();
    const AdaptiveSearch engine(test_params(*problem));
    util::Xoshiro256 rng(0);
    Hooks hooks;
    hooks.resume = &torn;
    EXPECT_THROW((void)engine.solve(*problem, rng, StopToken(), hooks),
                 std::invalid_argument);
  }
}

}  // namespace
}  // namespace cspls::core
