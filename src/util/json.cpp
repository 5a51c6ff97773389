#include "util/json.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace cspls::util {

namespace {

[[noreturn]] void type_error(const char* wanted, Json::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "number",
                                           "string", "array", "object"};
  throw std::runtime_error(std::string("Json: expected ") + wanted +
                           ", document holds " +
                           kNames[static_cast<int>(got)]);
}

}  // namespace

Json::Json(bool value) : type_(Type::kBool), bool_(value) {}

Json::Json(int value) : Json(static_cast<std::int64_t>(value)) {}

Json::Json(std::int64_t value)
    : type_(Type::kNumber), scalar_(std::to_string(value)) {}

Json::Json(std::uint64_t value)
    : type_(Type::kNumber), scalar_(std::to_string(value)) {}

Json::Json(double value) : type_(Type::kNumber) {
  // Shortest text that round-trips the exact double (std::to_chars).
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc{}) throw std::runtime_error("Json: unformattable double");
  scalar_.assign(buf, end);
}

Json::Json(const char* value) : type_(Type::kString), scalar_(value) {}

Json::Json(std::string value)
    : type_(Type::kString), scalar_(std::move(value)) {}

Json::Json(std::string_view value) : type_(Type::kString), scalar_(value) {}

Json Json::array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

template <typename T>
T Json::number_as(const char* wanted) const {
  if (type_ != Type::kNumber) type_error("number", type_);
  T value{};
  const char* end = scalar_.data() + scalar_.size();
  const auto [ptr, ec] = std::from_chars(scalar_.data(), end, value);
  if (ec != std::errc{} || ptr != end) {
    throw std::runtime_error("Json: number '" + scalar_ + "' is not " +
                             wanted);
  }
  return value;
}

bool Json::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

std::int64_t Json::as_int64() const {
  return number_as<std::int64_t>("an int64");
}

std::uint64_t Json::as_uint64() const {
  return number_as<std::uint64_t>("a uint64");
}

double Json::as_double() const { return number_as<double>("a double"); }

const std::string& Json::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return scalar_;
}

std::size_t Json::size() const noexcept {
  if (type_ == Type::kArray) return array_.size();
  if (type_ == Type::kObject) return object_.size();
  return 0;
}

Json& Json::push_back(Json value) {
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
  return *this;
}

const std::vector<Json>& Json::elements() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

Json& Json::set(std::string key, Json value) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return *this;
    }
  }
  object_.emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* found = find(key);
  if (found == nullptr) {
    throw std::runtime_error("Json: missing member \"" + std::string(key) +
                             "\"");
  }
  return *found;
}

const std::vector<Json::Member>& Json::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

bool Json::operator==(const Json& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
    case Type::kString:
      return scalar_ == other.scalar_;
    case Type::kArray:
      return array_ == other.array_;
    case Type::kObject:
      return object_ == other.object_;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Strict reader
// ---------------------------------------------------------------------------

std::string JsonPath::str() const {
  std::string out(value);
  if (!member.empty()) {
    out += '.';
    out += member;
  }
  if (index != kNoIndex) out += '[' + std::to_string(index) + ']';
  return out;
}

void JsonPath::fail(std::string_view detail) const {
  throw std::invalid_argument(str() + ": " + std::string(detail));
}

namespace json_detail {

void expect(const Json& json, Json::Type type, const JsonPath& path) {
  // The JSON type as a message reads it: "got a string".
  static constexpr const char* kTypes[] = {
      "null", "a bool", "a number", "a string", "an array", "an object"};
  if (json.type() != type) {
    path.fail(std::string("expected ") + kTypes[static_cast<int>(type)] +
              ", got " + kTypes[static_cast<int>(json.type())]);
  }
}

std::int64_t read_int(const Json& json, const JsonPath& path, std::int64_t lo,
                      std::int64_t hi) {
  expect(json, Json::Type::kNumber, path);
  try {
    const std::int64_t value = json.as_int64();
    if (value >= lo && value <= hi) return value;
  } catch (const std::runtime_error&) {
  }
  path.fail("expected an integer in [" + std::to_string(lo) + ", " +
            std::to_string(hi) + "], got " + json.dump());
}

std::uint64_t read_uint(const Json& json, const JsonPath& path,
                        std::uint64_t hi) {
  expect(json, Json::Type::kNumber, path);
  try {
    const std::uint64_t value = json.as_uint64();
    if (value <= hi) return value;
  } catch (const std::runtime_error&) {
  }
  path.fail("expected an integer in [0, " + std::to_string(hi) + "], got " +
            json.dump());
}

double read_double(const Json& json, const JsonPath& path) {
  expect(json, Json::Type::kNumber, path);
  try {
    return json.as_double();
  } catch (const std::runtime_error&) {
    path.fail("expected a double, got " + json.dump());
  }
}

}  // namespace json_detail

JsonReader::JsonReader(const Json& json, const JsonPath& where,
                       std::initializer_list<std::string_view> allowed)
    : json_(json), where_(where.str()) {
  json_detail::expect(json, Json::Type::kObject, where);
  // One pass, each member looked up in `allowed` once: linear in the
  // object's size however many members a client sends.
  std::vector<bool> seen(allowed.size());
  for (const auto& member : json.members()) {
    const auto known =
        std::find(allowed.begin(), allowed.end(), member.first);
    if (known == allowed.end()) {
      path({}).fail("unknown member \"" + member.first + "\"");
    }
    const auto slot = static_cast<std::size_t>(known - allowed.begin());
    if (seen[slot]) {
      path({}).fail("repeated member \"" + member.first + "\"");
    }
    seen[slot] = true;
  }
}

const Json& JsonReader::at(std::string_view member) const {
  const Json* value = find(member);
  if (value == nullptr) {
    path({}).fail("missing member \"" + std::string(member) + "\"");
  }
  return *value;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

namespace {

// The two-character escapes: kEscaped[i] is written as a backslash and
// kEscapeLetters[i].  The parser also reads "\\/" as '/', never written.
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t";
constexpr std::string_view kEscapeLetters = "\"\\bfnrt";

void write_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    if (const std::size_t k = kEscaped.find(c); k != std::string_view::npos) {
      out += '\\';
      out += kEscapeLetters[k];
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;  // UTF-8 bytes pass through verbatim
    }
  }
  out += '"';
}

void write_newline_indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      out += scalar_;
      break;
    case Type::kString:
      write_escaped(out, scalar_);
      break;
    case Type::kArray: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i != 0) out += ',';
        write_newline_indent(out, indent, depth + 1);
        array_[i].write(out, indent, depth + 1);
      }
      if (!array_.empty()) write_newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::kObject: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i != 0) out += ',';
        write_newline_indent(out, indent, depth + 1);
        write_escaped(out, object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.write(out, indent, depth + 1);
      }
      if (!object_.empty()) write_newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

// ---------------------------------------------------------------------------
// Parser — strict recursive descent with a nesting cap.  Object members are
// appended as they come, so parsing stays linear in the text; a repeated
// name is kept and left to JsonReader, which rejects it.
// ---------------------------------------------------------------------------

struct JsonParser {
  static constexpr int kMaxDepth = 64;

  std::string_view text;
  std::size_t pos = 0;
  std::string error;

  [[nodiscard]] bool fail(const std::string& message) {
    if (error.empty()) {
      error = message + " at offset " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size()) {
      const char c = text[pos];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos;
    }
  }

  [[nodiscard]] bool consume(char expected) {
    if (pos >= text.size() || text[pos] != expected) {
      return fail(std::string("expected '") + expected + "'");
    }
    ++pos;
    return true;
  }

  [[nodiscard]] bool parse_literal(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos += literal.size();
    return true;
  }

  bool parse_hex4(unsigned& out) {
    if (pos + 4 > text.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text[pos++];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return fail("bad hex digit in \\u escape");
      }
    }
    return true;
  }

  static void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    while (true) {
      if (pos >= text.size()) return fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("raw control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) return fail("truncated escape");
      const char esc = text[pos++];
      if (const std::size_t k = kEscapeLetters.find(esc);
          k != std::string_view::npos) {
        out += kEscaped[k];
        continue;
      }
      switch (esc) {
        case '/':
          out += '/';
          break;
        case 'u': {
          unsigned cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate escape must follow.
            if (pos + 1 >= text.size() || text[pos] != '\\' ||
                text[pos + 1] != 'u') {
              return fail("lone high surrogate");
            }
            pos += 2;
            unsigned low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xDC00 || low > 0xDFFF) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return fail("lone low surrogate");
          }
          append_utf8(out, cp);
          break;
        }
        default:
          return fail("unknown escape");
      }
    }
  }

  bool parse_number(Json& out) {
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    const auto digits = [&] {
      const std::size_t before = pos;
      while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') ++pos;
      return pos > before;
    };
    if (!digits()) return fail("bad number");
    if (pos < text.size() && text[pos] == '.') {
      ++pos;
      if (!digits()) return fail("bad number (fraction)");
    }
    if (pos < text.size() && (text[pos] == 'e' || text[pos] == 'E')) {
      ++pos;
      if (pos < text.size() && (text[pos] == '+' || text[pos] == '-')) ++pos;
      if (!digits()) return fail("bad number (exponent)");
    }
    // Reject the leading-zero forms the grammar above lets through ("01").
    const std::string_view body = text.substr(start, pos - start);
    const std::string_view integral = body.substr(body[0] == '-' ? 1 : 0);
    if (integral.size() > 1 && integral[0] == '0' && integral[1] >= '0' &&
        integral[1] <= '9') {
      return fail("bad number (leading zero)");
    }
    out = Json();
    out.type_ = Json::Type::kNumber;
    out.scalar_ = body;
    return true;
  }

  bool parse_value(Json& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    switch (c) {
      case 'n':
        if (!parse_literal("null")) return false;
        out = Json();
        return true;
      case 't':
        if (!parse_literal("true")) return false;
        out = Json(true);
        return true;
      case 'f':
        if (!parse_literal("false")) return false;
        out = Json(false);
        return true;
      case '"': {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++pos;
        Json array = Json::array();
        skip_ws();
        if (pos < text.size() && text[pos] == ']') {
          ++pos;
          out = std::move(array);
          return true;
        }
        while (true) {
          Json element;
          if (!parse_value(element, depth + 1)) return false;
          array.push_back(std::move(element));
          skip_ws();
          if (pos >= text.size()) return fail("unterminated array");
          if (text[pos] == ',') {
            ++pos;
            continue;
          }
          if (text[pos] == ']') {
            ++pos;
            out = std::move(array);
            return true;
          }
          return fail("expected ',' or ']'");
        }
      }
      case '{': {
        ++pos;
        Json object = Json::object();
        skip_ws();
        if (pos < text.size() && text[pos] == '}') {
          ++pos;
          out = std::move(object);
          return true;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          skip_ws();
          if (!consume(':')) return false;
          Json value;
          if (!parse_value(value, depth + 1)) return false;
          object.object_.emplace_back(std::move(key), std::move(value));
          skip_ws();
          if (pos >= text.size()) return fail("unterminated object");
          if (text[pos] == ',') {
            ++pos;
            continue;
          }
          if (text[pos] == '}') {
            ++pos;
            out = std::move(object);
            return true;
          }
          return fail("expected ',' or '}'");
        }
      }
      default:
        return parse_number(out);
    }
  }
};

std::optional<Json> Json::parse(std::string_view text, std::string* error) {
  JsonParser parser{text, 0, {}};
  Json value;
  if (!parser.parse_value(value, 0)) {
    if (error != nullptr) *error = parser.error;
    return std::nullopt;
  }
  parser.skip_ws();
  if (parser.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at offset " + std::to_string(parser.pos);
    }
    return std::nullopt;
  }
  return value;
}

}  // namespace cspls::util
