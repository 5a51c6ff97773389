// HttpServer front door: persistent connections — two (and three) requests
// share one socket, a chunked solve stream is delimited by its zero-length
// terminator so the next request can follow it, Connection: close and
// HTTP/1.0 defaults are honored, protocol errors answer 400, and closed
// connections give their handler threads back.
#include "serve/http_server.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "core/params.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"

namespace cspls::serve {
namespace {

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  return fd;
}

void send_text(int fd, std::string_view text) {
  while (!text.empty()) {
    const ssize_t sent = ::send(fd, text.data(), text.size(), MSG_NOSIGNAL);
    ASSERT_GT(sent, 0);
    text.remove_prefix(static_cast<std::size_t>(sent));
  }
}

/// Block until `buffer` contains `marker`; returns everything through the
/// marker and erases it from the buffer (later bytes stay for the caller's
/// next read — the client-side mirror of request pipelining).
std::string recv_through(int fd, std::string& buffer,
                         const std::string& marker) {
  char io[4096];
  std::size_t at = buffer.find(marker);
  while (at == std::string::npos) {
    const ssize_t got = ::recv(fd, io, sizeof io, 0);
    if (got <= 0) {
      ADD_FAILURE() << "connection closed while waiting for " << marker;
      return {};
    }
    buffer.append(io, static_cast<std::size_t>(got));
    at = buffer.find(marker);
  }
  std::string through = buffer.substr(0, at + marker.size());
  buffer.erase(0, at + marker.size());
  return through;
}

/// One Content-Length response: returns headers, leaves the buffer at the
/// next response, and appends the body to `body`.
std::string recv_simple_response(int fd, std::string& buffer,
                                 std::string& body) {
  const std::string head = recv_through(fd, buffer, "\r\n\r\n");
  const std::size_t at = head.find("Content-Length: ");
  EXPECT_NE(at, std::string::npos) << head;
  const std::size_t length = std::stoul(head.substr(at + 16));
  char io[4096];
  while (buffer.size() < length) {
    const ssize_t got = ::recv(fd, io, sizeof io, 0);
    if (got <= 0) {
      ADD_FAILURE() << "connection closed mid-body";
      return head;
    }
    buffer.append(io, static_cast<std::size_t>(got));
  }
  body = buffer.substr(0, length);
  buffer.erase(0, length);
  return head;
}

std::string stats_request(std::string_view extra_headers = {}) {
  std::string request = "GET /stats HTTP/1.1\r\nHost: t\r\n";
  request.append(extra_headers);
  request += "\r\n";
  return request;
}

std::string solve_post() {
  api::SolveRequest solve;
  solve.problem = "costas:7";
  solve.walkers = 1;
  solve.seed = 3;
  solve.scheduling = parallel::Scheduling::kSequential;
  util::Json envelope = util::Json::object();
  envelope.set("op", "solve").set("request", solve.to_json());
  const std::string body = envelope.dump(0);
  return "POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

TEST(ServeHttp, TwoRequestsShareOneSocket) {
  Scheduler scheduler;
  HttpServer server(scheduler);
  server.start();

  const int fd = connect_to(server.port());
  std::string buffer;

  // Request 1: /stats answers and keeps the socket open.
  send_text(fd, stats_request());
  std::string body;
  std::string head = recv_simple_response(fd, buffer, body);
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_NE(head.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(body.find("\"event\":\"stats\""), std::string::npos);

  // Request 2, same socket: a full chunked solve stream, ended by the
  // zero-length chunk.
  send_text(fd, solve_post());
  head = recv_through(fd, buffer, "\r\n\r\n");
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_NE(head.find("Transfer-Encoding: chunked"), std::string::npos);
  EXPECT_NE(head.find("Connection: keep-alive"), std::string::npos);
  const std::string stream = recv_through(fd, buffer, "0\r\n\r\n");
  EXPECT_NE(stream.find("\"event\":\"accepted\""), std::string::npos);
  EXPECT_NE(stream.find("\"event\":\"report\""), std::string::npos);
  EXPECT_NE(stream.find("\"status\":\"done\""), std::string::npos);

  // Request 3, still the same socket: the stream terminator resynchronized
  // the connection.
  send_text(fd, stats_request());
  head = recv_simple_response(fd, buffer, body);
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("\"event\":\"stats\""), std::string::npos);

  ::close(fd);
  server.stop();
  scheduler.shutdown();
}

TEST(ServeHttp, ConnectionCloseIsHonored) {
  Scheduler scheduler;
  HttpServer server(scheduler);
  server.start();

  const int fd = connect_to(server.port());
  std::string buffer;
  send_text(fd, stats_request("Connection: close\r\n"));
  std::string body;
  const std::string head = recv_simple_response(fd, buffer, body);
  EXPECT_NE(head.find("Connection: close"), std::string::npos);
  // The server hangs up after the response: EOF, not a timeout.
  char io[16];
  EXPECT_EQ(::recv(fd, io, sizeof io, 0), 0);

  ::close(fd);
  server.stop();
  scheduler.shutdown();
}

/// This process's virtual size in KiB (VmSize of /proc/self/status).
std::size_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoul(line.substr(7));
  }
  ADD_FAILURE() << "no VmSize in /proc/self/status";
  return 0;
}

TEST(ServeHttp, ClosedConnectionsDoNotKeepTheirHandlerStacks) {
  Scheduler scheduler;
  HttpServer server(scheduler);
  server.start();

  // Each connection's handler runs on its own thread; once the connection
  // closes, that thread's stack must be given back rather than kept until
  // stop().  A few hundred sequential Connection: close requests would map
  // one default-sized stack each if finished handlers were never joined.
  const auto one_request = [&] {
    const int fd = connect_to(server.port());
    send_text(fd, stats_request("Connection: close\r\n"));
    std::string buffer;
    std::string body;
    const std::string head = recv_simple_response(fd, buffer, body);
    EXPECT_NE(head.find("200 OK"), std::string::npos);
    char io[256];
    while (::recv(fd, io, sizeof io, 0) > 0) {
    }
    ::close(fd);
  };
  for (int i = 0; i < 8; ++i) one_request();  // warm allocator and caches
  const std::size_t before_kib = vm_size_kib();
  constexpr int kRequests = 300;
  for (int i = 0; i < kRequests; ++i) one_request();
  const std::size_t after_kib = vm_size_kib();

  pthread_attr_t attr;
  ASSERT_EQ(pthread_attr_init(&attr), 0);
  std::size_t stack_bytes = 0;
  ASSERT_EQ(pthread_attr_getstacksize(&attr, &stack_bytes), 0);
  pthread_attr_destroy(&attr);
  const std::size_t stack_kib = stack_bytes / 1024;
  ASSERT_GT(stack_kib, 0u);
  const std::size_t growth_kib =
      after_kib > before_kib ? after_kib - before_kib : 0;
  EXPECT_LT(growth_kib, kRequests / 10 * stack_kib)
      << "VmSize grew by " << growth_kib << " KiB over " << kRequests
      << " closed connections (" << stack_kib << " KiB per thread stack)";
  server.stop();
}

TEST(ServeHttp, Http10DefaultsToCloseUnlessOptedIn) {
  Scheduler scheduler;
  HttpServer server(scheduler);
  server.start();

  {
    const int fd = connect_to(server.port());
    std::string buffer;
    send_text(fd, "GET /stats HTTP/1.0\r\nHost: t\r\n\r\n");
    std::string body;
    const std::string head = recv_simple_response(fd, buffer, body);
    EXPECT_NE(head.find("Connection: close"), std::string::npos);
    char io[16];
    EXPECT_EQ(::recv(fd, io, sizeof io, 0), 0);
    ::close(fd);
  }
  {
    const int fd = connect_to(server.port());
    std::string buffer;
    send_text(fd,
              "GET /stats HTTP/1.0\r\nHost: t\r\n"
              "Connection: keep-alive\r\n\r\n");
    std::string body;
    std::string head = recv_simple_response(fd, buffer, body);
    EXPECT_NE(head.find("Connection: keep-alive"), std::string::npos);
    // And the socket really is still usable.
    send_text(fd, stats_request());
    head = recv_simple_response(fd, buffer, body);
    EXPECT_NE(head.find("200 OK"), std::string::npos);
    ::close(fd);
  }
  server.stop();
  scheduler.shutdown();
}

TEST(ServeHttp, ProtocolErrorsAnswer400AndKeepTheSocketWhenFramed) {
  Scheduler scheduler;
  HttpServer server(scheduler);
  server.start();

  const int fd = connect_to(server.port());
  std::string buffer;
  // A well-framed POST whose body is not valid JSON: 400, but the HTTP
  // framing is intact, so the connection persists.
  const std::string bad = "this is not json";
  send_text(fd, "POST /api HTTP/1.1\r\nHost: t\r\nContent-Length: " +
                    std::to_string(bad.size()) + "\r\n\r\n" + bad);
  std::string body;
  std::string head = recv_simple_response(fd, buffer, body);
  EXPECT_NE(head.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(head.find("Connection: keep-alive"), std::string::npos);
  EXPECT_NE(body.find("\"event\":\"error\""), std::string::npos);

  send_text(fd, stats_request());
  head = recv_simple_response(fd, buffer, body);
  EXPECT_NE(head.find("200 OK"), std::string::npos);

  ::close(fd);
  server.stop();
  scheduler.shutdown();
}

TEST(ServeHttp, PipelinedRequestsAreNotDropped) {
  Scheduler scheduler;
  HttpServer server(scheduler);
  server.start();

  const int fd = connect_to(server.port());
  std::string buffer;
  // Both requests hit the socket before the first response: the carried
  // read buffer must hand the second one to the next loop iteration.
  send_text(fd, stats_request() + stats_request());
  for (int i = 0; i < 2; ++i) {
    std::string body;
    const std::string head = recv_simple_response(fd, buffer, body);
    EXPECT_NE(head.find("200 OK"), std::string::npos) << "response " << i;
    EXPECT_NE(body.find("\"event\":\"stats\""), std::string::npos);
  }

  ::close(fd);
  server.stop();
  scheduler.shutdown();
}

TEST(ServeHttp, AFullLaneAnswers429BeforeTheStreamHeader) {
  SchedulerOptions options;
  options.service.thread_budget = 1;
  options.service.max_lane_depth = 1;
  Scheduler scheduler(options);
  HttpServer server(scheduler);
  server.start();

  // Saturate the normal lane out-of-band: one running blocker plus one
  // queued job (unsolvable with an hours-long budget, so only cancellation
  // ends them).
  SolveCommand endless;
  endless.request.problem = "langford:5";
  endless.request.walkers = 1;
  endless.request.scheduling = parallel::Scheduling::kSequential;
  endless.request.termination = parallel::Termination::kBestAfterBudget;
  core::Params params;
  params.restart_limit = 1'000'000'000'000;
  params.max_restarts = 0;
  endless.request.params = params;
  const std::uint64_t blocker = scheduler.submit(endless, JobEvents{});
  for (int i = 0; i < 30'000 && scheduler.stats().inflight == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(scheduler.stats().inflight, 1u);
  const std::uint64_t queued = scheduler.submit(endless, JobEvents{});

  // The admission pre-check answers before any chunked header: a plain 429
  // with the stable `overloaded` code, and the connection persists.
  const int fd = connect_to(server.port());
  std::string buffer;
  send_text(fd, solve_post());
  std::string body;
  std::string head = recv_simple_response(fd, buffer, body);
  EXPECT_NE(head.find("429 Too Many Requests"), std::string::npos);
  EXPECT_NE(body.find("\"code\":\"overloaded\""), std::string::npos);
  EXPECT_EQ(body.find("\"event\":\"accepted\""), std::string::npos);

  // Same socket still serves; the rejection is visible in the stats.
  send_text(fd, stats_request());
  head = recv_simple_response(fd, buffer, body);
  EXPECT_NE(head.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("\"rejected_overload\":1"), std::string::npos);

  (void)scheduler.cancel(queued);
  (void)scheduler.cancel(blocker);
  ::close(fd);
  server.stop();
  scheduler.shutdown();
}

}  // namespace
}  // namespace cspls::serve
