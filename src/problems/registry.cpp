#include "problems/registry.hpp"

#include <algorithm>
#include <stdexcept>

#include "problems/all_interval.hpp"
#include "problems/alpha.hpp"
#include "problems/costas.hpp"
#include "problems/langford.hpp"
#include "problems/magic_square.hpp"
#include "problems/partition.hpp"
#include "problems/perfect_square.hpp"
#include "problems/queens.hpp"

namespace cspls::problems {

const std::vector<std::string>& problem_names() {
  static const std::vector<std::string> names = {
      "costas",  "all-interval", "perfect-square", "magic-square",
      "queens",  "langford",     "partition",      "alpha"};
  return names;
}

const std::vector<std::string>& paper_benchmarks() {
  static const std::vector<std::string> names = {
      "all-interval", "perfect-square", "magic-square", "costas"};
  return names;
}

namespace {

std::string valid_names_list() {
  std::string list;
  for (const auto& name : problem_names()) {
    if (!list.empty()) list += ", ";
    list += name;
  }
  return list;
}

std::string unknown_problem_message(const std::string& name) {
  return "unknown problem \"" + name + "\" (valid names: " +
         valid_names_list() + ")";
}

[[noreturn]] void throw_unknown(const std::string& name) {
  throw std::invalid_argument(unknown_problem_message(name));
}

}  // namespace

bool is_known_problem(const std::string& name) {
  const auto& names = problem_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::string validate_instance(const std::string& name, std::size_t size) {
  if (!is_known_problem(name)) return unknown_problem_message(name);
  // alpha ignores the size; perfect-square treats 0 as the Duijvestijn
  // order-21 instance and any other value as the quadtree split count.
  if (name == "alpha" || name == "perfect-square") return {};
  if (size == 0) {
    return "problem \"" + name + "\" needs a size >= 1 (got 0)";
  }
  if (name == "partition" && size % 4 != 0) {
    return "partition needs a size that is a multiple of 4 (got " +
           std::to_string(size) + ")";
  }
  if (name == "langford" && size < 2) {
    return "langford needs a size >= 2 (got " + std::to_string(size) + ")";
  }
  return {};
}

std::unique_ptr<csp::Problem> make_problem(const std::string& name,
                                           std::size_t size,
                                           std::uint64_t seed) {
  if (const std::string error = validate_instance(name, size);
      !error.empty()) {
    throw std::invalid_argument(error);
  }
  if (name == "costas") return std::make_unique<Costas>(size);
  if (name == "all-interval") return std::make_unique<AllInterval>(size);
  if (name == "magic-square") return std::make_unique<MagicSquare>(size);
  if (name == "queens") return std::make_unique<Queens>(size);
  if (name == "langford") return std::make_unique<Langford>(size);
  if (name == "partition") return std::make_unique<Partition>(size);
  if (name == "alpha") return std::make_unique<Alpha>();
  if (name == "perfect-square") {
    if (size == 0) {
      return std::make_unique<PerfectSquare>(
          PerfectSquareInstance::duijvestijn21());
    }
    return std::make_unique<PerfectSquare>(
        PerfectSquareInstance::quadtree(5, static_cast<int>(size), seed));
  }
  throw_unknown(name);
}

std::size_t default_size(const std::string& name) {
  if (name == "costas") return 10;
  if (name == "all-interval") return 24;
  if (name == "perfect-square") return 5;   // quadtree splits
  if (name == "magic-square") return 10;
  if (name == "queens") return 50;
  if (name == "langford") return 16;
  if (name == "partition") return 40;
  if (name == "alpha") return 26;
  throw_unknown(name);
}

std::size_t bench_size(const std::string& name) {
  // Chosen so the median single walk sits in the 5-60 ms band on commodity
  // hardware with a pronounced heavy tail — small enough
  // that a full harness run takes minutes, large enough that the runtime
  // law has the shape that drives the paper's speedup curves.
  if (name == "costas") return 13;
  if (name == "all-interval") return 20;
  if (name == "perfect-square") return 8;   // quadtree splits (25 squares)
  if (name == "magic-square") return 12;
  if (name == "queens") return 100;
  if (name == "langford") return 24;
  if (name == "partition") return 80;
  if (name == "alpha") return 26;
  throw_unknown(name);
}

std::size_t paper_size(const std::string& name) {
  if (name == "costas") return 21;         // paper runs n=21 and n=22
  if (name == "all-interval") return 700;
  if (name == "perfect-square") return 0;  // Duijvestijn order-21
  if (name == "magic-square") return 200;
  if (name == "queens") return 1000;
  if (name == "langford") return 100;
  if (name == "partition") return 400;
  if (name == "alpha") return 26;
  throw_unknown(name);
}

}  // namespace cspls::problems
