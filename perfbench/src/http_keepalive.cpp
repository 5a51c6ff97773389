// http-keepalive: waiting clients send one request at a time per socket,
// so HTTP framing and chunked writes dominate and warm batches stay small.
// The same Session and Scheduler code as lanes-open, used another way,
// with reads (GET /stats) beside writes (solves).
#include <algorithm>
#include <thread>

#include "http_client.hpp"
#include "serve/http_server.hpp"
#include "serving.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kStreamShare = 0.20;  // of solves; half normal, half low
constexpr int kStatsEvery = 16;        // every 16th request on a connection
// A sub-phase ends after kSubPhaseMs or, per connection, kSubPhaseRequests
// requests, whichever comes first: the raw responses held between decodes
// stay bounded however fast the server answers.
constexpr double kSubPhaseMs = 2000.0;
constexpr std::size_t kSubPhaseRequests = 1000;
// Sequential solves re-solved through api::Solver::solve: a seeded pick of
// up to kSolverSample, each taken with this probability.
constexpr std::size_t kSolverSample = 24;
constexpr double kSolverSampleShare = 0.05;

std::size_t connections() {
  return std::max(1u, std::thread::hardware_concurrency());
}

struct Request {
  ServeRecord record;
  bool stats = false;
  int status = 0;
  bool transport_ok = false;
  std::string body;
};

/// The server under test and its open connections.
struct HttpRig {
  serve::Scheduler scheduler{serve::SchedulerOptions{}};
  serve::HttpServer server{scheduler};
  std::vector<std::unique_ptr<HttpClient>> clients;

  HttpRig() {
    server.start();
    for (std::size_t i = 0; i < connections(); ++i) {
      clients.push_back(std::make_unique<HttpClient>(server.port()));
    }
  }
  ~HttpRig() {
    clients.clear();
    server.stop();
  }
  HttpRig(const HttpRig&) = delete;
  HttpRig& operator=(const HttpRig&) = delete;
};

bool fetch_stats(HttpClient& client, Request& r) {
  HttpClient::Response response;
  r.stats = true;
  r.record.send_ms = now_ms();
  r.transport_ok = client.exchange("GET", "/stats", "", response);
  r.record.sent_ms = response.write_done_ms;
  r.record.end_ms = response.end_ms;
  r.record.sent = true;
  r.status = response.status;
  r.body = std::move(response.body);
  return r.transport_ok;
}

/// One connection's client: its generator and request count persist
/// across sub-phases.
struct Connection {
  HttpClient* client = nullptr;
  Rng rng;
  RequestFactory factory;
  int sent = 0;
  std::vector<Request> requests;  ///< this sub-phase's, raw
};

/// One connection's closed loop until `deadline_ms` or its request cap.
void connection_loop(Connection& c, double deadline_ms) {
  while (now_ms() < deadline_ms && c.requests.size() < kSubPhaseRequests) {
    const int k = c.sent++;
    Request r;
    if (k % kStatsEvery == kStatsEvery - 1) {
      const bool keep_going = fetch_stats(*c.client, r);
      c.requests.push_back(std::move(r));
      if (!keep_going) return;
      continue;
    }
    if (c.rng.uniform() < kStreamShare) {
      r.record.req =
          c.factory.streaming(c.rng, c.rng.uniform() < 0.5 ? kNormal : kLow);
    } else {
      r.record.req = c.factory.tiny(c.rng);
    }
    RequestFactory::encode(r.record.req, tag_of('h', static_cast<std::size_t>(k)));
    HttpClient::Response response;
    r.record.send_ms = now_ms();
    r.record.due_ms = r.record.send_ms;
    r.transport_ok =
        c.client->exchange("POST", "/api", r.record.req.line, response);
    r.record.sent_ms = response.write_done_ms;
    r.record.end_ms = response.end_ms;
    r.record.sent = true;
    r.record.events = std::move(response.chunks);
    r.record.bytes = response.bytes;
    r.record.chunks = r.record.events.size();
    r.status = response.status;
    r.body = std::move(response.body);
    const bool keep_going = r.transport_ok;
    c.requests.push_back(std::move(r));
    if (!keep_going) return;
  }
}

}  // namespace

WorkloadRun run_http_keepalive(const RunConfig& config) {
  WorkloadRun run;
  Outcome& out = run.outcome;
  Rng rng(config.seed);
  RequestFactory factory;
  Checker checker;

  // Set-up: start the server, open the connections, get the first /stats.
  std::vector<double> setups;
  std::unique_ptr<HttpRig> rig;
  for (int s = 0; s < config.setups; ++s) {
    rig.reset();
    const double t0 = now_ms();
    rig = std::make_unique<HttpRig>();
    Request first;
    const bool ok = fetch_stats(*rig->clients.front(), first);
    setups.push_back((now_ms() - t0) / 1e3);
    if (!ok || first.status != 200) out.fail("set-up /stats failed");
  }

  // The timed loop runs in sub-phases; between them the connections rest
  // while the raw responses are decoded, checked and dropped, so the
  // harness neither decodes on the clients' critical path nor holds every
  // response of a long run.
  const std::size_t n = rig->clients.size();
  std::vector<Connection> connections;
  for (std::size_t c = 0; c < n; ++c) {
    connections.push_back(Connection{rig->clients[c].get(), rng.fork(c),
                                     factory, 0, {}});
  }
  std::array<std::vector<double>, 3> lane_latency;
  std::vector<double> all, tts, stats_ms, first_event_ms;
  std::vector<double> bytes, chunks;
  std::vector<ServeRecord> solver_sample;  // sequential solves to re-solve
  std::vector<Checked> solver_sample_checks;
  std::uint64_t ok = 0;
  Rng sample_rng = rng.fork(n + 1);
  double elapsed_ms = 0.0;
  while (elapsed_ms < config.seconds * 1e3) {
    const double start = now_ms();
    const double deadline =
        start + std::min(kSubPhaseMs, config.seconds * 1e3 - elapsed_ms);
    {
      std::vector<std::thread> threads;
      for (auto& c : connections) {
        threads.emplace_back(connection_loop, std::ref(c), deadline);
      }
      for (auto& t : threads) t.join();
    }
    elapsed_ms += now_ms() - start;
    for (auto& c : connections) {
      for (Request& r : c.requests) {
        ++out.attempted;
        if (r.stats) {
          const auto json = util::Json::parse(r.body);
          const bool good = r.transport_ok && r.status == 200 && json &&
                            json->is_object() && json->contains("scheduler");
          if (!good) {
            out.fail("GET /stats failed (status " + std::to_string(r.status) +
                     ")");
          }
          stats_ms.push_back(good ? r.record.end_ms - r.record.send_ms : kMiss);
          continue;
        }
        const double t0 = now_ms();
        Checked checked = check_record(r.record, checker);
        const double t1 = now_ms();
        if (!r.transport_ok || r.status != 200) {
          checked.ok = false;
          checked.why = "POST /api answered " + std::to_string(r.status) +
                        (r.transport_ok ? "" : " (transport error)");
        }
        const int lane = r.record.req.lane;
        if (!checked.ok) {
          out.fail(checked.why);
          lane_latency[lane].push_back(kMiss);
          all.push_back(kMiss);
        } else {
          ++ok;
          const double latency = r.record.end_ms - r.record.send_ms;
          lane_latency[lane].push_back(latency);
          all.push_back(latency);
          tts.push_back(checked.report->time_to_solution_seconds * 1e3);
          first_event_ms.push_back(checked.accepted_ms - r.record.send_ms);
          bytes.push_back(static_cast<double>(r.record.bytes));
          chunks.push_back(static_cast<double>(r.record.chunks));
        }
        if (config.tracer != nullptr) {
          trace_record(*config.tracer, "http-keepalive", r.record, checked,
                       t0, t1, r.record.send_ms, "http.write");
        }
        if (solver_sample.size() < kSolverSample && checked.ok &&
            r.record.req.request.scheduling ==
                parallel::Scheduling::kSequential &&
            sample_rng.uniform() < kSolverSampleShare) {
          solver_sample.push_back(std::move(r.record));
          solver_sample_checks.push_back(std::move(checked));
        }
      }
      c.requests.clear();
    }
  }
  const double elapsed_s = elapsed_ms / 1e3;

  check_against_solver(solver_sample, solver_sample_checks, kSolverSample,
                       sample_rng, out);
  rig.reset();

  const double solves_per_s = static_cast<double>(ok) / elapsed_s;
  out.set("setup_s", median(setups), "s");
  out.set("peak_rss_mb", peak_rss_mb(), "MiB");
  out.set("ok_share",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
          "ratio");
  out.set("solves_per_s", solves_per_s, "1/s");
  out.set("tts_p50_ms", percentile(tts, 0.5), "ms");
  out.set("tts_p90_ms", block_tail(tts, 0.90).value, "ms");
  out.set("latency_p50_ms", percentile(all, 0.5), "ms");
  out.set("latency_p99_ms", block_tail(all, 0.99).value, "ms");
  // Lanes are the priorities the solves were sent with: plain solves high,
  // streaming solves normal or low.
  out.set("high_p50_ms", percentile(lane_latency[kHigh], 0.5), "ms");
  out.set("high_p99_ms", block_tail(lane_latency[kHigh], 0.99).value, "ms");
  out.set("normal_p50_ms", percentile(lane_latency[kNormal], 0.5), "ms");
  out.set("normal_p99_ms", block_tail(lane_latency[kNormal], 0.99).value, "ms");
  out.set("low_p50_ms", percentile(lane_latency[kLow], 0.5), "ms");
  // A closed loop's offered rate is the rate it completes.
  out.set("max_rate_at_slo", solves_per_s, "req/s");
  out.notes.push_back("http-keepalive: " + std::to_string(all.size()) +
                      " solves and " + std::to_string(stats_ms.size()) +
                      " /stats over " + std::to_string(n) + " connections in " +
                      std::to_string(elapsed_s) + " s");
  run.main_metric = percentile(all, 0.5);

  auto& layer = run.layer;
  layer["http.first_event_ms"] = {median(first_event_ms), "ms"};
  layer["http.bytes_per_solve"] = {mean(bytes), "bytes"};
  layer["http.chunks_per_solve"] = {mean(chunks), "count"};
  layer["http.stats_ms_p99"] = {tail(stats_ms, 0.99).value, "ms"};
  return run;
}

}  // namespace perfbench
