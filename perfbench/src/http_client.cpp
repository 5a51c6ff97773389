#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <stdexcept>

namespace perfbench {

HttpClient::HttpClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    throw std::runtime_error("connect() to the benchmark server failed");
  }
}

HttpClient::~HttpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool HttpClient::fill() {
  if (pos_ > 0 && pos_ == buffer_.size()) {
    buffer_.clear();
    pos_ = 0;
  }
  char chunk[16384];
  const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
  if (n <= 0) return false;
  buffer_.append(chunk, static_cast<std::size_t>(n));
  return true;
}

bool HttpClient::read_line(std::string& line, Response& response) {
  for (;;) {
    const auto eol = buffer_.find("\r\n", pos_);
    if (eol != std::string::npos) {
      line.assign(buffer_, pos_, eol - pos_);
      response.bytes += eol + 2 - pos_;
      pos_ = eol + 2;
      return true;
    }
    if (!fill()) return false;
  }
}

bool HttpClient::read_exact(std::size_t n, std::string& out,
                            Response& response) {
  while (buffer_.size() - pos_ < n) {
    if (!fill()) return false;
  }
  out.assign(buffer_, pos_, n);
  pos_ += n;
  response.bytes += n;
  return true;
}

bool HttpClient::exchange(std::string_view method, std::string_view path,
                          std::string_view body, Response& response) {
  try {
    return exchange_unchecked(method, path, body, response);
  } catch (const std::exception&) {  // unparsable status line or chunk size
    return false;
  }
}

bool HttpClient::exchange_unchecked(std::string_view method,
                                    std::string_view path,
                                    std::string_view body, Response& response) {
  std::string wire;
  wire.reserve(128 + body.size());
  wire.append(method).append(" ").append(path).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\n");
  if (!body.empty()) {
    wire.append("Content-Type: application/json\r\nContent-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n");
  }
  wire.append("\r\n").append(body);
  for (std::size_t off = 0; off < wire.size();) {
    const ssize_t n =
        ::send(fd_, wire.data() + off, wire.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  response.write_done_ms = now_ms();

  std::string line;
  if (!read_line(line, response) || line.size() < 12) return false;
  response.status = std::stoi(line.substr(9, 3));
  bool chunked = false;
  std::size_t content_length = 0;
  for (;;) {
    if (!read_line(line, response)) return false;
    if (line.empty()) break;
    std::string lower = line;
    for (char& c : lower) c = static_cast<char>(std::tolower(c));
    if (lower.rfind("transfer-encoding:", 0) == 0 &&
        lower.find("chunked") != std::string::npos) {
      chunked = true;
    } else if (lower.rfind("content-length:", 0) == 0) {
      content_length = std::stoul(lower.substr(15));
    }
  }
  if (!chunked) {
    if (!read_exact(content_length, response.body, response)) return false;
    response.end_ms = now_ms();
    return true;
  }
  for (;;) {
    if (!read_line(line, response)) return false;
    const std::size_t size = std::stoul(line, nullptr, 16);
    std::string payload;
    if (!read_exact(size + 2, payload, response)) return false;
    const double t = now_ms();
    if (size == 0) {
      response.end_ms = t;
      return true;
    }
    payload.resize(size);
    if (!payload.empty() && payload.back() == '\n') payload.pop_back();
    response.chunks.push_back(Event{t, std::move(payload)});
  }
}

}  // namespace perfbench
