// Name-based factory over all benchmark models, used by benches, examples
// and tests to iterate "every problem in the suite".
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "csp/problem.hpp"

namespace cspls::problems {

/// Canonical benchmark names, paper benchmarks first:
/// "costas", "all-interval", "perfect-square", "magic-square",
/// then the additional models from the original distribution:
/// "queens", "langford", "partition", "alpha".
[[nodiscard]] const std::vector<std::string>& problem_names();

/// The four benchmarks evaluated by the paper (Figures 1-3).
[[nodiscard]] const std::vector<std::string>& paper_benchmarks();

/// True iff `name` is one of problem_names().
[[nodiscard]] bool is_known_problem(const std::string& name);

/// "" when (name, size) is instantiable; otherwise the diagnostic
/// make_problem would throw — unknown names list every valid name,
/// unusable sizes say what the problem expects.  Shared with
/// problems::parse_spec so the CLI, JSON API and benches reject bad
/// instances with identical messages.
[[nodiscard]] std::string validate_instance(const std::string& name,
                                            std::size_t size);

/// Instantiate a problem by name.
///
/// `size` semantics per problem:
///   costas/queens: order n;  all-interval: series length n;
///   magic-square: board side n;  langford: number count n;
///   partition: n (multiple of 4);  alpha: ignored (fixed 26 letters);
///   perfect-square: quadtree split count (side 32), or 0 for the
///   Duijvestijn order-21 instance (side 112).
/// `seed` only affects generated instances (perfect-square quadtree).
///
/// Throws std::invalid_argument with the validate_instance diagnostic on
/// an unknown name or an unusable size.
[[nodiscard]] std::unique_ptr<csp::Problem> make_problem(
    const std::string& name, std::size_t size, std::uint64_t seed = 0);

/// A reasonable quick-run size for each problem (used by tests/examples).
[[nodiscard]] std::size_t default_size(const std::string& name);

/// The scaled-down size used by the simulation benches (a median single
/// walk of 5-60 ms).
[[nodiscard]] std::size_t bench_size(const std::string& name);

/// The paper's own experiment scale (minutes-to-hours sequential!).
[[nodiscard]] std::size_t paper_size(const std::string& name);

}  // namespace cspls::problems
