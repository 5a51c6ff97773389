#include "util/cli.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

namespace cspls::util {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::add_flag(std::string name, std::string help) {
  Option opt;
  opt.kind = Kind::kFlag;
  opt.help = std::move(help);
  order_.push_back(name);
  options_.emplace(std::move(name), std::move(opt));
  return *this;
}

ArgParser& ArgParser::add_int(std::string name, std::int64_t default_value,
                              std::string help) {
  Option opt;
  opt.kind = Kind::kInt;
  opt.help = std::move(help);
  opt.int_value = default_value;
  order_.push_back(name);
  options_.emplace(std::move(name), std::move(opt));
  return *this;
}

ArgParser& ArgParser::add_uint64(std::string name, std::uint64_t default_value,
                                 std::string help) {
  Option opt;
  opt.kind = Kind::kUint64;
  opt.help = std::move(help);
  opt.uint64_value = default_value;
  order_.push_back(name);
  options_.emplace(std::move(name), std::move(opt));
  return *this;
}

ArgParser& ArgParser::add_string(std::string name, std::string default_value,
                                 std::string help) {
  Option opt;
  opt.kind = Kind::kString;
  opt.help = std::move(help);
  opt.string_value = std::move(default_value);
  order_.push_back(name);
  options_.emplace(std::move(name), std::move(opt));
  return *this;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Option& opt = options_.at(name);
    os << "  --" << name;
    switch (opt.kind) {
      case Kind::kFlag:
        break;
      case Kind::kInt:
        os << " <int=" << opt.int_value << ">";
        break;
      case Kind::kUint64:
        os << " <uint=" << opt.uint64_value << ">";
        break;
      case Kind::kString:
        os << " <str=" << opt.string_value << ">";
        break;
    }
    os << "\n      " << opt.help << "\n";
  }
  os << "  --help\n      Show this message.\n";
  return os.str();
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.size() < 3 || arg.substr(0, 2) != "--") {
      error_ = "unexpected argument: " + std::string(arg);
      std::fprintf(stderr, "%s\n%s", error_.c_str(), usage().c_str());
      return false;
    }
    arg.remove_prefix(2);
    // Support both "--name value" and "--name=value".
    std::string_view value;
    bool has_inline_value = false;
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_inline_value = true;
    }
    const auto it = options_.find(arg);
    if (it == options_.end()) {
      error_ = "unknown option: --" + std::string(arg);
      std::fprintf(stderr, "%s\n%s", error_.c_str(), usage().c_str());
      return false;
    }
    Option& opt = it->second;
    if (opt.kind == Kind::kFlag) {
      opt.flag_value = true;
      continue;
    }
    if (!has_inline_value) {
      if (i + 1 >= argc) {
        error_ = "option --" + std::string(arg) + " expects a value";
        std::fprintf(stderr, "%s\n", error_.c_str());
        return false;
      }
      value = argv[++i];
    }
    try {
      switch (opt.kind) {
        case Kind::kInt:
          opt.int_value = std::stoll(std::string(value));
          break;
        case Kind::kUint64:
          // stoull silently wraps "-1" to 2^64-1; reject signs explicitly.
          if (!value.empty() && (value[0] == '-' || value[0] == '+')) {
            throw std::invalid_argument("unsigned value expected");
          }
          opt.uint64_value = std::stoull(std::string(value));
          break;
        case Kind::kString:
          opt.string_value = std::string(value);
          break;
        case Kind::kFlag:
          break;
      }
    } catch (const std::exception&) {
      error_ = "bad value for --" + std::string(arg) + ": " +
               std::string(value);
      std::fprintf(stderr, "%s\n", error_.c_str());
      return false;
    }
  }
  return true;
}

const ArgParser::Option& ArgParser::lookup(std::string_view name,
                                           Kind kind) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.kind != kind) {
    throw std::logic_error("ArgParser: undeclared option " + std::string(name));
  }
  return it->second;
}

bool ArgParser::flag(std::string_view name) const {
  return lookup(name, Kind::kFlag).flag_value;
}

std::int64_t ArgParser::get_int(std::string_view name) const {
  return lookup(name, Kind::kInt).int_value;
}

std::uint64_t ArgParser::get_uint64(std::string_view name) const {
  return lookup(name, Kind::kUint64).uint64_value;
}

const std::string& ArgParser::get_string(std::string_view name) const {
  return lookup(name, Kind::kString).string_value;
}

}  // namespace cspls::util
