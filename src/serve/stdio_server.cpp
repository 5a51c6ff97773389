#include "serve/stdio_server.hpp"

#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

namespace cspls::serve {

namespace {

/// The next line of `in` without its newline, keeping at most `keep` of its
/// bytes in `line` and reading the rest only to drop it.  Returns the
/// line's full length as the session measures it (a CRLF ending's '\r'
/// not counted), or nullopt at the end of the input.
std::optional<std::size_t> read_line(std::istream& in, std::size_t keep,
                                     std::string& line) {
  using Traits = std::istream::traits_type;
  line.clear();
  std::streambuf& buffer = *in.rdbuf();
  std::size_t length = 0;
  std::size_t trailing_cr = 0;
  for (int c = buffer.sbumpc(); c != '\n'; c = buffer.sbumpc()) {
    if (Traits::eq_int_type(c, Traits::eof())) {
      if (length == 0) return std::nullopt;
      break;
    }
    trailing_cr = c == '\r' ? trailing_cr + 1 : 0;
    if (length++ < keep) line.push_back(Traits::to_char_type(c));
  }
  return length - trailing_cr;
}

}  // namespace

StdioServer::StdioServer(Scheduler& scheduler, std::istream& in,
                         std::ostream& out, Session::Options options)
    : scheduler_(scheduler), in_(in), out_(out), options_(options) {}

void StdioServer::run() {
  std::mutex out_m;
  const auto write = [this, &out_m](std::string_view line) {
    // The session already serializes emits; this lock pairs each write
    // with its flush, and keeps the reader's own rejections whole.
    std::lock_guard lock(out_m);
    out_ << line << std::flush;
  };
  Session session(scheduler_, write, options_);

  // An oversized line is answered once its newline arrives, holding no
  // more of it than the limit (0 = no limit).
  const std::size_t limit = options_.max_line_bytes;
  const std::size_t keep = limit == 0 ? std::string::npos : limit;
  std::string line;
  while (const std::optional<std::size_t> length = read_line(in_, keep, line)) {
    if (limit != 0 && *length > limit) {
      write(encode_error(kErrOversized,
                         "request line of " + std::to_string(*length) +
                             " bytes exceeds the " + std::to_string(limit) +
                             "-byte limit") +
            '\n');
      continue;
    }
    session.handle_line(line);
  }
  session.drain();
}

}  // namespace cspls::serve
