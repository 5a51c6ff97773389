#include "serve/stdio_server.hpp"

#include <istream>
#include <mutex>
#include <ostream>
#include <string>

namespace cspls::serve {

StdioServer::StdioServer(Scheduler& scheduler, std::istream& in,
                         std::ostream& out, Session::Options options)
    : scheduler_(scheduler), in_(in), out_(out), options_(options) {}

void StdioServer::run() {
  std::mutex out_m;
  Session session(
      scheduler_,
      [this, &out_m](std::string_view line) {
        // The session already serializes emits; this lock only pairs the
        // write with its flush against a racing final flush.
        std::lock_guard lock(out_m);
        out_ << line << std::flush;
      },
      options_);

  std::string line;
  while (std::getline(in_, line)) {
    session.handle_line(line);
  }
  session.drain();
}

}  // namespace cspls::serve
