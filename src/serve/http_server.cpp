#include "serve/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

#include "serve/protocol.hpp"

namespace cspls::serve {

namespace {

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent =
        ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(sent));
  }
  return true;
}

std::string hex_of(std::size_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%zx", value);
  return buffer;
}

/// One event line as an HTTP/1.1 chunk.
bool send_chunk(int fd, std::string_view line) {
  std::string chunk = hex_of(line.size());
  chunk += "\r\n";
  chunk.append(line);
  chunk += "\r\n";
  return send_all(fd, chunk);
}

bool send_simple(int fd, int code, std::string_view reason,
                 std::string_view body, bool keep_alive) {
  std::string response = "HTTP/1.1 " + std::to_string(code) + " ";
  response.append(reason);
  response +=
      "\r\nContent-Type: application/x-ndjson\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\nConnection: ";
  response += keep_alive ? "keep-alive" : "close";
  response += "\r\n\r\n";
  response.append(body);
  return send_all(fd, response);
}

struct Request {
  std::string method;
  std::string path;
  std::string body;
  bool keep_alive = true;
};

std::string lowercased(std::string text) {
  for (char& c : text) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return text;
}

/// Read one request (start line, headers, Content-Length body) from the
/// socket, consuming it from `buffer` — which persists across requests on
/// a keep-alive connection, so bytes of a pipelined next request are kept,
/// not dropped.  Returns false on a connection-level failure (peer gone);
/// protocol-level problems come back as `error_code`/`error_message` with
/// ok == true.
bool read_request(int fd, std::size_t max_body, std::string& buffer,
                  Request& request, std::string_view& error_code,
                  std::string& error_message) {
  char io[4096];
  std::size_t header_end = buffer.find("\r\n\r\n");
  while (header_end == std::string::npos) {
    if (buffer.size() > max_body + 8192) {
      error_code = kErrOversized;
      error_message = "request headers exceed the size limit";
      return true;
    }
    const ssize_t got = ::recv(fd, io, sizeof io, 0);
    if (got <= 0) return false;
    buffer.append(io, static_cast<std::size_t>(got));
    header_end = buffer.find("\r\n\r\n");
  }

  const std::string head = buffer.substr(0, header_end);
  const std::size_t line_end = head.find("\r\n");
  const std::string start_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = start_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos
                               : start_line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos) {
    error_code = kErrBadEnvelope;
    error_message = "malformed HTTP request line";
    return true;
  }
  request.method = start_line.substr(0, sp1);
  request.path = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  // Persistence default by version: 1.1 keeps alive unless told otherwise,
  // 1.0 closes unless the client opts in.
  request.keep_alive = start_line.substr(sp2 + 1) != "HTTP/1.0";

  std::size_t content_length = 0;
  std::size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string::npos) next = head.size();
    const std::string line = head.substr(pos, next - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      const std::string name = lowercased(line.substr(0, colon));
      std::size_t value_at = colon + 1;
      while (value_at < line.size() && line[value_at] == ' ') ++value_at;
      if (name == "content-length") {
        try {
          content_length = std::stoul(line.substr(value_at));
        } catch (const std::exception&) {
          error_code = kErrBadEnvelope;
          error_message = "unparsable Content-Length";
          return true;
        }
      } else if (name == "connection") {
        const std::string value = lowercased(line.substr(value_at));
        if (value.find("close") != std::string::npos) {
          request.keep_alive = false;
        } else if (value.find("keep-alive") != std::string::npos) {
          request.keep_alive = true;
        }
      }
    }
    pos = next + 2;
  }
  if (content_length > max_body) {
    error_code = kErrOversized;
    error_message = "request body of " + std::to_string(content_length) +
                    " bytes exceeds the " + std::to_string(max_body) +
                    "-byte limit";
    return true;
  }

  const std::size_t total = header_end + 4 + content_length;
  while (buffer.size() < total) {
    const ssize_t got = ::recv(fd, io, sizeof io, 0);
    if (got <= 0) return false;
    buffer.append(io, static_cast<std::size_t>(got));
  }
  request.body = buffer.substr(header_end + 4, content_length);
  buffer.erase(0, total);
  return true;
}

}  // namespace

HttpServer::HttpServer(Scheduler& scheduler, Options options)
    : scheduler_(scheduler), options_(options) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::start() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("HttpServer: socket() failed");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw std::runtime_error("HttpServer: cannot bind 127.0.0.1:" +
                             std::to_string(options_.port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listen_fd_.store(fd);
  acceptor_ = std::thread([this] { accept_loop(); });
}

void HttpServer::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  const int fd = listen_fd_.exchange(-1);
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR), ::close(fd);
  if (acceptor_.joinable()) acceptor_.join();
  std::unordered_map<std::uint64_t, std::thread> connections;
  {
    std::lock_guard lock(conn_m_);
    connections.swap(connections_);
    // Break connections parked in a keep-alive recv(): shutdown wakes the
    // read with EOF and the handler loop exits.  The handler owns close();
    // fds leave this set before closing, so no reused descriptor is hit.
    for (const int fd : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  for (auto& [id, connection] : connections) {
    if (connection.joinable()) connection.join();
  }
}

void HttpServer::reap_finished_locked() {
  // Every queued id names a live entry: apart from this loop, only stop()
  // removes entries, and it joins the acceptor first.  The handler queued
  // its id in its last locked section, so the join only waits for it to
  // close its socket and return.
  for (const std::uint64_t id : finished_) {
    const auto it = connections_.find(id);
    it->second.join();
    connections_.erase(it);
  }
  finished_.clear();
}

void HttpServer::accept_loop() {
  for (;;) {
    const int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      continue;
    }
    std::lock_guard lock(conn_m_);
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    reap_finished_locked();
    live_fds_.insert(fd);
    const std::uint64_t id = next_connection_++;
    connections_.emplace(
        id, std::thread([this, fd, id] { handle_connection(fd, id); }));
  }
}

void HttpServer::handle_connection(int fd, std::uint64_t id) {
  std::string buffer;  ///< unconsumed bytes, carried across requests
  bool keep_open = true;
  while (keep_open && !stopping_.load()) {
    Request request;
    std::string_view error_code;
    std::string error_message;
    if (!read_request(fd, options_.max_body_bytes, buffer, request,
                      error_code, error_message)) {
      break;
    }
    if (!error_code.empty()) {
      // The HTTP framing itself is broken: after answering, the byte
      // stream is unsynchronized, so the connection cannot persist.
      send_simple(fd, 400, "Bad Request",
                  encode_error(error_code, error_message) + "\n",
                  /*keep_alive=*/false);
      break;
    }
    keep_open = request.keep_alive;

    if (request.method == "GET" && request.path == "/stats") {
      if (!send_simple(fd, 200, "OK",
                       encode_stats(scheduler_.stats().to_json(),
                                    scheduler_.service_stats().to_json()) +
                           "\n",
                       keep_open)) {
        break;
      }
      continue;
    }
    if (request.path != "/api") {
      if (!send_simple(fd, 404, "Not Found",
                       encode_error(kErrUnknownOp,
                                    "no such path (POST /api, GET /stats)") +
                           "\n",
                       keep_open)) {
        break;
      }
      continue;
    }
    if (request.method != "POST") {
      if (!send_simple(fd, 405, "Method Not Allowed",
                       encode_error(kErrUnknownOp,
                                    "POST the command to /api") +
                           "\n",
                       keep_open)) {
        break;
      }
      continue;
    }

    // Parse before answering so protocol errors get a 400 status; the
    // session would only see them after the 200 header was on the wire.
    // The parsed command is what the session then runs: one parse per body.
    Command parsed_command;
    try {
      parsed_command = parse_command(request.body, options_.max_body_bytes);
    } catch (const ProtocolError& error) {
      if (!send_simple(fd, 400, "Bad Request",
                       encode_error(error.code(), error.what(), error.tag()) +
                           "\n",
                       keep_open)) {
        break;
      }
      continue;
    }
    // Admission pre-check, also before the 200 header: a solve aimed at a
    // full lane answers 429 with the stable `overloaded` code (the session
    // path can only report it as an in-stream error event).
    if (const auto* solve = std::get_if<SolveCommand>(&parsed_command);
        solve != nullptr && scheduler_.reject_overloaded(solve->priority)) {
      if (!send_simple(fd, 429, "Too Many Requests",
                       encode_error(kErrOverloaded,
                                    "lane \"" +
                                        std::string(name_of(solve->priority)) +
                                        "\" is at its depth bound",
                                    solve->tag) +
                           "\n",
                       keep_open)) {
        break;
      }
      continue;
    }

    std::string header =
        "HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
        "Transfer-Encoding: chunked\r\nConnection: ";
    header += keep_open ? "keep-alive" : "close";
    header += "\r\n\r\n";
    if (!send_all(fd, header)) break;

    std::atomic<bool> broken{false};
    Session session(
        scheduler_,
        [fd, &broken](std::string_view line) {
          if (broken.load(std::memory_order_relaxed)) return;
          if (!send_chunk(fd, line)) {
            broken.store(true, std::memory_order_relaxed);
          }
        },
        Session::Options{options_.max_body_bytes});
    session.handle_command(std::move(parsed_command));
    if (broken.load() || stopping_.load()) session.cancel_all();
    session.drain();
    // The zero-length chunk delimits the stream; the next request may
    // follow on the same socket.
    if (broken.load() || !send_all(fd, "0\r\n\r\n")) break;
  }
  {
    // Queued before the close, so a client that reconnects once it sees
    // EOF finds this handler already reapable.
    std::lock_guard lock(conn_m_);
    live_fds_.erase(fd);
    finished_.push_back(id);
  }
  ::close(fd);
}

}  // namespace cspls::serve
