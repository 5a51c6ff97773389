// Minimal dependency-free JSON document model, writer and reader.
//
// Exists so that api::SolveRequest / api::SolveReport can cross a process
// boundary (files, pipes, HTTP bodies) without pulling a third-party JSON
// library into the build.  Scope is deliberately small: the six JSON types,
// UTF-8 strings with full escape handling, and *lossless* 64-bit integers —
// numbers are stored as their canonical text, so a master seed of 2^64-1
// survives encode -> decode -> encode byte-for-byte (a double-based store
// would silently round it).
//
// Objects preserve insertion order, which makes the writer deterministic:
// encoding the same document twice yields the same bytes (the round-trip
// property the api tests lock in).
//
// JsonReader below is the one decoding idiom every wire value shares:
// allowed members, required members and typed, range-checked reads, each
// failure an std::invalid_argument naming the value and the member.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/names.hpp"

namespace cspls::util {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, Json>;

  Json() noexcept = default;                     // null
  Json(std::nullptr_t) noexcept : Json() {}      // NOLINT(runtime/explicit)
  Json(bool value);                              // NOLINT(runtime/explicit)
  Json(int value);                               // NOLINT(runtime/explicit)
  Json(std::int64_t value);                      // NOLINT(runtime/explicit)
  Json(std::uint64_t value);                     // NOLINT(runtime/explicit)
  Json(double value);                            // NOLINT(runtime/explicit)
  Json(const char* value);                       // NOLINT(runtime/explicit)
  Json(std::string value);                       // NOLINT(runtime/explicit)
  Json(std::string_view value);                  // NOLINT(runtime/explicit)

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();
  /// An array of `values` in order: the one encoder of integer
  /// configurations and counter vectors.
  template <typename Range>
  [[nodiscard]] static Json array_of(const Range& values) {
    Json out = array();
    for (const auto& value : values) out.push_back(Json(value));
    return out;
  }
  /// A number holding exactly `text` (must already be valid JSON number
  /// syntax); the parser uses this to preserve the source text so 64-bit
  /// integers and doubles round-trip losslessly.
  [[nodiscard]] static Json number_from_text(std::string text);

  [[nodiscard]] Type type() const noexcept { return type_; }
  [[nodiscard]] bool is_null() const noexcept { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return type_ == Type::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return type_ == Type::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return type_ == Type::kObject;
  }

  // Typed accessors; all throw std::runtime_error on a type (or numeric
  // range) mismatch, naming the offending conversion.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- Arrays -----------------------------------------------------------
  /// Number of elements (arrays) or members (objects); 0 otherwise.
  [[nodiscard]] std::size_t size() const noexcept;
  Json& push_back(Json value);  ///< appends; *this must be an array
  [[nodiscard]] const Json& operator[](std::size_t index) const;
  [[nodiscard]] const std::vector<Json>& elements() const;

  // --- Objects ----------------------------------------------------------
  /// Insert-or-replace `key`; returns *this so sets chain fluently.
  Json& set(std::string key, Json value);
  /// Member lookup; nullptr when absent (or not an object).
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  /// Member lookup; throws std::runtime_error naming the missing key.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] bool contains(std::string_view key) const noexcept {
    return find(key) != nullptr;
  }
  [[nodiscard]] const std::vector<Member>& members() const;

  // --- Serialization ----------------------------------------------------
  /// Compact when indent == 0, pretty-printed with `indent` spaces per
  /// nesting level otherwise.  Deterministic: member order is preserved.
  [[nodiscard]] std::string dump(int indent = 0) const;

  /// Strict parser (whole input must be one JSON value).  Returns
  /// std::nullopt on malformed input and, when `error` is non-null, stores
  /// a message with the byte offset of the failure.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text,
                                                 std::string* error = nullptr);

  [[nodiscard]] bool operator==(const Json& other) const;

 private:
  void write(std::string& out, int indent, int depth) const;
  /// The number's text parsed whole as T; `wanted` names T in the error.
  template <typename T>
  T number_as(const char* wanted) const;

  Type type_ = Type::kNull;
  bool bool_ = false;
  /// Number text (canonical, as written/parsed) or string payload.
  std::string scalar_;
  std::vector<Json> array_;
  std::vector<Member> object_;
};

/// Where a value sits in its document, formatted only when a read fails:
/// "<value>.<member>[<index>]", e.g. "core::Checkpoint.values[3]".
struct JsonPath {
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

  std::string_view value;
  std::string_view member = {};  ///< empty: the value itself
  std::size_t index = kNoIndex;

  [[nodiscard]] std::string str() const;
  /// Throws std::invalid_argument("<path>: <detail>").
  [[noreturn]] void fail(std::string_view detail) const;
};

namespace json_detail {
/// Throws "<path>: expected <type>, got <type>" unless `json` holds `type`.
void expect(const Json& json, Json::Type type, const JsonPath& path);
std::int64_t read_int(const Json& json, const JsonPath& path, std::int64_t lo,
                      std::int64_t hi);
std::uint64_t read_uint(const Json& json, const JsonPath& path,
                        std::uint64_t hi);
double read_double(const Json& json, const JsonPath& path);
}  // namespace json_detail

/// The elements of an array value; anything else throws naming `path`.
[[nodiscard]] inline const std::vector<Json>& read_json_array(
    const Json& json, const JsonPath& path) {
  json_detail::expect(json, Json::Type::kArray, path);
  return json.elements();
}

/// Typed read of one value into T: bool, an integer type (range-checked
/// against T), double, std::string, or a std::vector of those.  A wrong
/// type or an out-of-range number throws std::invalid_argument naming
/// `path`.
template <typename T>
[[nodiscard]] T read_json(const Json& json, const JsonPath& path) {
  if constexpr (std::is_same_v<T, bool>) {
    json_detail::expect(json, Json::Type::kBool, path);
    return json.as_bool();
  } else if constexpr (std::is_same_v<T, std::string>) {
    json_detail::expect(json, Json::Type::kString, path);
    return json.as_string();
  } else if constexpr (std::is_same_v<T, double>) {
    return json_detail::read_double(json, path);
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    return static_cast<T>(json_detail::read_int(
        json, path, std::numeric_limits<T>::min(),
        std::numeric_limits<T>::max()));
  } else if constexpr (std::is_integral_v<T>) {
    return static_cast<T>(
        json_detail::read_uint(json, path, std::numeric_limits<T>::max()));
  } else {
    const std::vector<Json>& elements = read_json_array(json, path);
    T out;
    out.reserve(elements.size());
    for (std::size_t i = 0; i < elements.size(); ++i) {
      out.push_back(read_json<typename T::value_type>(
          elements[i], JsonPath{path.value, path.member, i}));
    }
    return out;
  }
}

/// The strict reader every value decoder shares: one JSON object, the
/// members it may hold, and typed reads of them.  Every failure throws
/// std::invalid_argument naming the value and the member, e.g.
/// `core::Checkpoint.stats.swaps: expected a number, got a string`.
/// Unknown members reject rather than being ignored: a misspelled
/// "deadline-ms" silently meaning "no deadline" is exactly the failure a
/// wire format must not have.  A value nested in another decodes at its
/// path there (the `from_json(json, path)` overloads), so a message names
/// the member from the outermost document down.
class JsonReader {
 public:
  /// Rejects a non-object (`<where>: expected an object`) and any member
  /// outside `allowed` (`<where>: unknown member "<name>"`).
  JsonReader(const Json& json, const JsonPath& where,
             std::initializer_list<std::string_view> allowed);

  /// A member's path, or an element's when `index` is given.
  [[nodiscard]] JsonPath path(
      std::string_view member,
      std::size_t index = JsonPath::kNoIndex) const noexcept {
    return JsonPath{where_, member, index};
  }
  [[noreturn]] void fail(std::string_view member,
                         std::string_view detail) const {
    path(member).fail(detail);
  }

  /// nullptr when absent.
  [[nodiscard]] const Json* find(std::string_view member) const noexcept {
    return json_.find(member);
  }
  /// A required member: `<where>: missing member "<member>"` when absent.
  [[nodiscard]] const Json& at(std::string_view member) const;

  /// A required member read as T (see read_json).
  template <typename T>
  [[nodiscard]] T get(std::string_view member) const {
    return read_json<T>(at(member), path(member));
  }
  /// An optional member read as T; `fallback` when absent.
  template <typename T>
  [[nodiscard]] T get(std::string_view member, T fallback) const {
    const Json* value = find(member);
    return value == nullptr ? fallback : read_json<T>(*value, path(member));
  }
  /// An enum member spelled by its name table (required, or `fallback`
  /// when absent); an unknown name lists the valid ones.
  template <typename Enum, Enum kLast>
  [[nodiscard]] Enum get(std::string_view member,
                         const NameTable<Enum, kLast>& names) const {
    const std::string& name = get<std::string>(member);
    const std::optional<Enum> value = names.parse(name);
    if (!value.has_value()) {
      fail(member, "unknown name \"" + name + "\" (" + names.joined() + ")");
    }
    return *value;
  }
  template <typename Enum, Enum kLast>
  [[nodiscard]] Enum get(std::string_view member,
                         const NameTable<Enum, kLast>& names,
                         Enum fallback) const {
    return find(member) == nullptr ? fallback : get(member, names);
  }

  /// A required array member's elements.
  [[nodiscard]] const std::vector<Json>& elements(
      std::string_view member) const {
    return read_json_array(at(member), path(member));
  }

 private:
  const Json& json_;
  std::string where_;
};

}  // namespace cspls::util
