// One name table per wire enum: the enumerators' wire spellings, indexed by
// value.  `name_of`, the decoders (through `parse`) and the hint lists in
// error messages all read the table, so adding an enumerator means editing one
// line, and the constructor rejects a table that misses one.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace cspls::util {

/// The wire names of `Enum`, whose enumerators run 0..kLast.
template <typename Enum, Enum kLast>
class NameTable {
 public:
  static constexpr std::size_t kSize = static_cast<std::size_t>(kLast) + 1;

  template <typename... Names>
  constexpr explicit NameTable(Names... names) : names_{names...} {
    static_assert(sizeof...(Names) == kSize, "one name per enumerator");
  }

  [[nodiscard]] constexpr std::string_view name(Enum value) const {
    return names_[static_cast<std::size_t>(value)];
  }

  /// std::nullopt for a name outside the table.
  [[nodiscard]] constexpr std::optional<Enum> parse(
      std::string_view name) const noexcept {
    for (std::size_t i = 0; i < kSize; ++i) {
      if (names_[i] == name) return static_cast<Enum>(i);
    }
    return std::nullopt;
  }

  /// "a | b | c": the valid alternatives, for hints and error messages.
  [[nodiscard]] std::string joined() const {
    std::string out;
    for (std::size_t i = 0; i < kSize; ++i) {
      if (i != 0) out += " | ";
      out += names_[i];
    }
    return out;
  }

 private:
  std::array<std::string_view, kSize> names_;
};

}  // namespace cspls::util
