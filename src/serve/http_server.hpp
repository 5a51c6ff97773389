// Minimal dependency-free HTTP/1.1 front door over the same wire schema
// as the stdio transport: POST one command envelope, stream event lines
// back.
//
//   POST /api HTTP/1.1            body: one command object (no newline
//   Content-Length: ...           framing needed — the body IS the line)
//
//   -> 200, Content-Type: application/x-ndjson, Transfer-Encoding:
//      chunked; each event line is one chunk, flushed as it happens, so
//      `curl -N` shows accepted/sample events live and the final `report`
//      ends the stream.
//
//   GET /stats                    -> 200, one `stats` event line.
//
// Protocol errors (bad JSON, unknown op, oversized body) answer 400 with
// one `error` event line; unknown paths/methods answer 404/405.
//
// Connections are persistent (HTTP/1.1 keep-alive): after a response —
// including a chunked stream, whose 0-length terminator delimits it — the
// handler loops for the next request on the same socket, so a client can
// POST many commands and poll /stats without paying a TCP handshake per
// call.  `Connection: close` (or HTTP/1.0 without keep-alive) closes
// after the response; a request whose HTTP framing itself is malformed
// always closes, since the byte stream is no longer synchronized.
//
// A client that disconnects mid-stream cancels its jobs: the write
// failure flips the connection's broken flag and the handler cancels
// before draining, so walkers never grind for a departed curl.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/session.hpp"

namespace cspls::serve {

class HttpServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = ephemeral; see port() after start()
    std::size_t max_body_bytes = 1 << 20;
  };

  explicit HttpServer(Scheduler& scheduler)
      : HttpServer(scheduler, Options{}) {}
  HttpServer(Scheduler& scheduler, Options options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Bind 127.0.0.1 and start accepting.  Throws std::runtime_error when
  /// the socket cannot be bound.
  void start();

  /// The bound port (after start()).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Stop accepting, close the listener and join all connections
  /// (outstanding streams are cancelled).  Idempotent.
  void stop();

 private:
  void accept_loop();
  /// Serve connection `id` on socket `fd` until it closes; the last act
  /// under conn_m_ queues `id` on finished_, before the socket closes.
  void handle_connection(int fd, std::uint64_t id);
  /// Join the handlers that queued themselves on finished_.  Caller holds
  /// conn_m_.
  void reap_finished_locked();

  Scheduler& scheduler_;
  Options options_;
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread acceptor_;
  std::mutex conn_m_;
  /// Handler threads by connection id.  A handler queues its id on
  /// finished_ before its socket closes, and accept_loop joins the queued
  /// ones before starting the next, so closed connections do not keep
  /// their stacks.
  std::unordered_map<std::uint64_t, std::thread> connections_;
  std::vector<std::uint64_t> finished_;
  std::uint64_t next_connection_ = 0;
  std::unordered_set<int> live_fds_;  ///< open sockets, for stop() to break
                                      ///< idle keep-alive reads
};

}  // namespace cspls::serve
