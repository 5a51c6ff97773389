// A blocking HTTP/1.1 keep-alive client for loopback benchmarking: one
// request in flight per connection, chunked responses split into their
// chunks with each chunk's arrival time.  Framing is parsed as bytes
// arrive (it decides where a response ends); chunk contents are decoded
// by the caller after the phase.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serving.hpp"

namespace perfbench {

class HttpClient {
 public:
  /// Connect to 127.0.0.1:`port`; throws std::runtime_error on failure.
  explicit HttpClient(std::uint16_t port);
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  struct Response {
    int status = 0;
    std::vector<Event> chunks;  ///< chunk payloads, trailing '\n' removed
    std::string body;           ///< Content-Length body
    double write_done_ms = 0.0;
    double end_ms = 0.0;        ///< last byte of the response
    std::uint64_t bytes = 0;
  };

  /// Send one request (`body` empty = no body) and read its response.
  /// Returns false on a transport or framing error.
  bool exchange(std::string_view method, std::string_view path,
                std::string_view body, Response& response);

 private:
  bool exchange_unchecked(std::string_view method, std::string_view path,
                          std::string_view body, Response& response);
  bool fill();  ///< read more bytes into buffer_
  bool read_line(std::string& line, Response& response);
  bool read_exact(std::size_t n, std::string& out, Response& response);

  int fd_ = -1;
  std::string buffer_;
  std::size_t pos_ = 0;
};

}  // namespace perfbench
