#include "problems/spec.hpp"

#include <charconv>
#include <stdexcept>

#include "problems/registry.hpp"

namespace cspls::problems {

namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') return false;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

std::optional<ProblemSpec> try_parse_spec(std::string_view spec,
                                          std::string* error) {
  const auto fail = [&](std::string message) -> std::optional<ProblemSpec> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  ProblemSpec parsed;
  std::string_view rest = spec;

  // Trailing "@seed" first, so sizes can't swallow it.
  if (const auto at = rest.rfind('@'); at != std::string_view::npos) {
    const std::string_view seed_text = rest.substr(at + 1);
    if (!parse_u64(seed_text, parsed.instance_seed)) {
      return fail("bad instance seed \"" + std::string(seed_text) +
                  "\" in spec \"" + std::string(spec) +
                  "\" (expected an unsigned integer after '@')");
    }
    rest = rest.substr(0, at);
  }

  bool has_size = false;
  std::uint64_t size = 0;
  if (const auto colon = rest.find(':'); colon != std::string_view::npos) {
    const std::string_view size_text = rest.substr(colon + 1);
    if (!parse_u64(size_text, size)) {
      return fail("bad size \"" + std::string(size_text) + "\" in spec \"" +
                  std::string(spec) +
                  "\" (expected an unsigned integer after ':')");
    }
    has_size = true;
    rest = rest.substr(0, colon);
  }
  parsed.name = std::string(rest);

  if (!has_size) {
    // Validate the name before asking the registry for its default size so
    // unknown names get the name-listing diagnostic, not a size complaint.
    if (!is_known_problem(parsed.name)) {
      return fail(validate_instance(parsed.name, 0));
    }
    parsed.size = default_size(parsed.name);
  } else {
    parsed.size = static_cast<std::size_t>(size);
  }

  if (const std::string err = validate_instance(parsed.name, parsed.size);
      !err.empty()) {
    return fail(err);
  }
  return parsed;
}

ProblemSpec parse_spec(std::string_view spec) {
  std::string error;
  auto parsed = try_parse_spec(spec, &error);
  if (!parsed.has_value()) throw std::invalid_argument(error);
  return *std::move(parsed);
}

std::string format_spec(const ProblemSpec& spec) {
  std::string out = spec.name;
  out += ':';
  out += std::to_string(spec.size);
  if (spec.instance_seed != 0) {
    out += '@';
    out += std::to_string(spec.instance_seed);
  }
  return out;
}

std::unique_ptr<csp::Problem> instantiate(const ProblemSpec& spec) {
  return make_problem(spec.name, spec.size, spec.instance_seed);
}

}  // namespace cspls::problems
