// cspls_serve — the serving-tier front door.
//
// Default mode is stdio JSON-lines: requests on stdin, events on stdout,
// exit at EOF once every job reported.  --http additionally opens the
// HTTP/1.1 listener (see http_server.hpp); with it, stdin EOF does not
// end the process — the listener keeps serving until SIGINT/SIGTERM, so
// `cspls_serve --http &` works as a daemon even where background jobs
// get /dev/null stdin.  Every job runs on one engine (api::SolverService):
// three priority lanes feeding --threads resident workers under one
// walker-thread budget, with running preemption.  Run `cspls_serve --help`
// for the knobs; with no arguments it serves stdio with production
// defaults, so
//
//   printf '%s\n' '{"op":"solve","request":{"problem":"costas:8"}}' \
//     | cspls_serve
//
// prints `accepted` and `report` lines and exits.
#include <csignal>
#include <iostream>
#include <string>

#include "serve/http_server.hpp"
#include "serve/scheduler.hpp"
#include "serve/stdio_server.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace cspls;

  util::ArgParser args("cspls_serve",
                       "JSON-lines solve server (stdio, optional HTTP)");
  args.add_uint64("threads", 0,
                  "walker-thread budget shared by every job, and the "
                  "number of resident workers (0 = hardware concurrency)");
  args.add_uint64("sample-period", 256,
                  "default sample period (iterations) for streaming jobs");
  args.add_uint64("max-line-bytes", 1 << 20, "request line/body size limit");
  args.add_flag("http", "also serve HTTP/1.1 on --port");
  args.add_uint64("port", 0, "HTTP port (0 = ephemeral, printed on stderr)");
  args.add_flag("cancel-on-eof",
                "cancel outstanding jobs at stdin EOF instead of finishing "
                "them");
  if (!args.parse(argc, argv)) {
    return args.help_requested() ? 0 : 2;
  }

  // In HTTP mode the listener outlives stdin, ended by SIGINT/SIGTERM via
  // sigwait.  Block the signals before any thread exists so every thread
  // inherits the mask and no default handler fires elsewhere.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  if (args.flag("http")) {
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);
  }

  serve::SchedulerOptions options;
  options.default_sample_period = args.get_uint64("sample-period");
  options.service.thread_budget =
      static_cast<std::size_t>(args.get_uint64("threads"));
  serve::Scheduler scheduler(options);

  serve::Session::Options session_options;
  session_options.max_line_bytes =
      static_cast<std::size_t>(args.get_uint64("max-line-bytes"));

  serve::HttpServer http(
      scheduler, serve::HttpServer::Options{
                     static_cast<std::uint16_t>(args.get_uint64("port")),
                     session_options.max_line_bytes});
  if (args.flag("http")) {
    http.start();
    std::cerr << "cspls_serve: http on 127.0.0.1:" << http.port() << "\n";
  }

  serve::StdioServer stdio(scheduler, std::cin, std::cout, session_options);
  stdio.run(args.flag("cancel-on-eof"));

  if (args.flag("http")) {
    std::cerr << "cspls_serve: stdin closed, http serving until "
                 "SIGINT/SIGTERM\n";
    int signal_number = 0;
    sigwait(&stop_signals, &signal_number);
  }

  // Order matters: shutting the scheduler down first resolves any jobs
  // still streaming over HTTP (their sessions drain), so stop() can join
  // connection threads without waiting out a long solve.
  scheduler.shutdown();
  http.stop();
  return 0;
}
