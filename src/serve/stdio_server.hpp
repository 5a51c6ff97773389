// The stdio transport: JSON-lines over a byte stream pair — the front
// door for `printf '{"op":...}' | cspls_serve` pipelines and for tests
// (any std::istream/std::ostream pair works, stringstreams included).
//
// run() reads request lines until EOF, dispatching each through one
// Session; events stream to the output as they happen (flushed per line,
// so a consumer sees `sample` events live, not on exit).  A line is
// bounded while it is read: past Session::Options::max_line_bytes the rest
// is dropped as it arrives and the line is answered `oversized`.  At EOF
// it drains — every submitted job still gets its `report` — then returns.
#pragma once

#include <iosfwd>

#include "serve/session.hpp"

namespace cspls::serve {

class StdioServer {
 public:
  StdioServer(Scheduler& scheduler, std::istream& in, std::ostream& out,
              Session::Options options = {});

  /// Serve until EOF on the input, then drain and return.
  void run();

 private:
  Scheduler& scheduler_;
  std::istream& in_;
  std::ostream& out_;
  Session::Options options_;
};

}  // namespace cspls::serve
