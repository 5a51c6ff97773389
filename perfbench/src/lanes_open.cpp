// lanes-open: independent clients build a queue.  One generator thread
// feeds command lines into serve::Session::handle_line on a Poisson
// schedule, so per-request parsing, admission, claiming, fusion, dispatch
// and encoding dominate and solve time is a small share.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdio>
#include <mutex>
#include <queue>
#include <thread>

#include "api/solve.hpp"
#include "serve/protocol.hpp"
#include "serve/session.hpp"
#include "serving.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kHighShare = 0.70;
constexpr double kNormalShare = 0.29;  // the low lane takes the rest
constexpr double kCancelShare = 0.10;  // of low-lane requests
constexpr double kCancelDelayMs = 2.0;
constexpr double kFixedRate = 800.0;  // req/s of the scored phase
constexpr double kFixedShare = 0.50;  // of the run's seconds
// Rungs 4% apart, finer than max_rate_at_slo's bound.
const RateLadder kLadder{800.0, 1.04, 50};
constexpr double kStepSeconds = 2.0;
// A step whose requests take longer than this to drain after its last
// arrival, or whose backlog passes the cap, has a growing backlog.
constexpr double kDrainLimitMs = 200.0;
constexpr std::size_t kBacklogCap = 1000;
// The generator's own lateness (past both the due time and the return of
// the previous handle_line call) above which a phase is invalid.
constexpr double kLagLimitMs = 10.0;
constexpr double kDrainTimeoutMs = 60'000.0;

thread_local std::string* t_capture_accepted = nullptr;
/// Keeps timed codec results observable so the calls are not elided.
volatile std::size_t g_sink = 0;

bool starts_with(std::string_view line, std::string_view prefix) {
  return line.substr(0, prefix.size()) == prefix;
}

/// The Session's byte sink: timestamps and stores raw lines; decoding
/// waits until the phase is over.  Report lines are counted (a prefix
/// test) so the generator can watch the backlog.
struct LineLog {
  std::mutex m;
  std::vector<Event> lines;
  std::atomic<std::uint64_t> reports{0};

  void write(std::string_view line) {
    const double t = now_ms();
    if (t_capture_accepted != nullptr &&
        starts_with(line, R"({"event":"accepted")")) {
      t_capture_accepted->assign(line);
    }
    const bool report = starts_with(line, R"({"event":"report")");
    {
      std::lock_guard lock(m);
      lines.push_back(Event{t, std::string(line)});
    }
    if (report) reports.fetch_add(1, std::memory_order_release);
  }
};

std::uint64_t id_of(std::string_view accepted_line) {
  const auto at = accepted_line.find(R"("id":)");
  if (at == std::string_view::npos) return 0;
  std::uint64_t id = 0;
  for (std::size_t i = at + 5; i < accepted_line.size(); ++i) {
    const char c = accepted_line[i];
    if (c < '0' || c > '9') break;
    id = id * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return id;
}

struct Phase {
  std::vector<ServeRecord> records;
  std::vector<Checked> checked;
  std::vector<double> decode_ms;  ///< per record: [start, end) pairs
  double window_s = 0.0;          ///< arrival window
  double drain_ms = 0.0;          ///< last arrival to last report
  std::int64_t backlog_end = 0;
  bool aborted = false;  ///< stopped early: backlog over its cap
  serve::SchedulerStats delta;
};

/// A scheduler configured as `cspls_serve` ships, one Session on it, and
/// the line log behind the session's sink.
class LanesClient {
 public:
  LanesClient()
      : session_(scheduler_, [this](std::string_view line) {
          log_.write(line);
        }) {}
  ~LanesClient() { session_.drain(); }

  LanesClient(const LanesClient&) = delete;
  LanesClient& operator=(const LanesClient&) = delete;

  /// Send one line and return the `accepted` line it produced.
  std::string send_capturing(const std::string& line) {
    std::string accepted;
    t_capture_accepted = &accepted;
    session_.handle_line(line);
    t_capture_accepted = nullptr;
    return accepted;
  }

  void wait_reports(std::uint64_t count) {
    const double give_up = now_ms() + kDrainTimeoutMs;
    while (log_.reports.load(std::memory_order_acquire) < count &&
           now_ms() < give_up) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void reset_log() {
    std::lock_guard lock(log_.m);
    log_.lines.clear();
    log_.reports.store(0);
  }

  /// Drive `records` (due times set) open-loop, then drain and decode.
  Phase run(std::vector<ServeRecord> records, bool watch_backlog,
            Checker& checker);

 private:
  LineLog log_;
  serve::Scheduler scheduler_{serve::SchedulerOptions{}};
  serve::Session session_;
};

Phase LanesClient::run(std::vector<ServeRecord> records, bool watch_backlog,
                       Checker& checker) {
  Phase phase;
  reset_log();
  const serve::SchedulerStats before = scheduler_.stats();
  using Cancel = std::pair<double, std::uint64_t>;
  std::priority_queue<Cancel, std::vector<Cancel>, std::greater<>> cancels;
  auto fire_cancels_until = [&](double t_ms) {
    while (!cancels.empty() && cancels.top().first <= t_ms) {
      sleep_until_ms(cancels.top().first);
      session_.handle_line(R"({"op":"cancel","id":)" +
                           std::to_string(cancels.top().second) + "}");
      cancels.pop();
    }
  };
  std::uint64_t sent = 0;
  auto backlog = [&] {
    return static_cast<std::int64_t>(sent) -
           static_cast<std::int64_t>(log_.reports.load(std::memory_order_acquire));
  };
  for (std::size_t i = 0; i < records.size(); ++i) {
    ServeRecord& r = records[i];
    fire_cancels_until(r.due_ms);
    sleep_until_ms(r.due_ms);
    std::string accepted;
    t_capture_accepted = r.req.cancel ? &accepted : nullptr;
    r.send_ms = now_ms();
    session_.handle_line(r.req.line);
    r.sent_ms = now_ms();
    t_capture_accepted = nullptr;
    r.sent = true;
    ++sent;
    if (!accepted.empty()) {
      cancels.emplace(r.sent_ms + kCancelDelayMs, id_of(accepted));
    }
    if (watch_backlog && backlog() > static_cast<std::int64_t>(kBacklogCap)) {
      phase.aborted = true;
      break;
    }
  }
  phase.backlog_end = backlog();
  fire_cancels_until(kMiss);
  if (!records.empty()) {
    phase.window_s = (records.back().due_ms - records.front().due_ms) / 1e3;
  }
  const double last_send = now_ms();
  wait_reports(sent);
  phase.drain_ms = now_ms() - last_send;
  phase.delta = stats_delta(before, scheduler_.stats());

  // Decode: route every event line to its request by id (the `accepted`
  // line carries the tag that names the request).
  std::vector<Event> lines;
  {
    std::lock_guard lock(log_.m);
    lines.swap(log_.lines);
  }
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (Event& event : lines) {
    const auto json = util::Json::parse(event.line);
    if (!json || !json->is_object() || !json->contains("id")) continue;
    const std::string& kind = json->at("event").as_string();
    if (kind == "cancel") continue;  // the ack of a cancel op, not the job's
    const std::uint64_t id = json->at("id").as_uint64();
    if (kind == "accepted") {
      // Tags are tag_of('r', index of the request in this phase).
      const std::string& tag = json->at("tag").as_string();
      std::size_t index = records.size();
      std::from_chars(tag.data() + 1, tag.data() + tag.size(), index);
      by_id[id] = index;
    }
    const auto it = by_id.find(id);
    if (it != by_id.end() && it->second < records.size()) {
      records[it->second].events.push_back(std::move(event));
    }
  }
  phase.checked.reserve(records.size());
  for (ServeRecord& r : records) {
    const double t0 = now_ms();
    phase.checked.push_back(check_record(r, checker));
    r.end_ms = phase.checked.back().report_ms;
    phase.decode_ms.push_back(t0);
    phase.decode_ms.push_back(now_ms());
  }
  phase.records = std::move(records);
  return phase;
}

/// Poisson arrivals at `rate` from `start_ms`, `count` of them.
std::vector<ServeRecord> arrivals(Rng& rng, RequestFactory& factory,
                                  double rate, std::size_t count,
                                  double start_ms) {
  std::vector<ServeRecord> out(count);
  double t = start_ms;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.exponential(rate) * 1e3;
    const double u = rng.uniform();
    ServeRecord& r = out[i];
    if (u < kHighShare) {
      r.req = factory.tiny(rng);
    } else if (u < kHighShare + kNormalShare) {
      r.req = factory.normal(rng);
    } else {
      r.req = factory.low(rng, rng.uniform() < kCancelShare);
    }
    RequestFactory::encode(r.req, tag_of('r', i));
    r.due_ms = t;
  }
  return out;
}

struct LaneStats {
  std::array<std::vector<double>, 3> latency;   // due -> report, ms
  std::array<std::vector<double>, 3> overhead;  // latency - solve wall, ms
  std::vector<double> all;  // solves: high and normal lanes
  std::vector<double> tts;
  std::vector<double> lag;     // send - due, ms
  std::vector<double> own_lag;  // send - max(due, previous call's return)
  std::vector<double> handle;  // handle_line call, us
  std::uint64_t ok = 0;        // solves with the expected outcome
};

LaneStats lane_stats(const Phase& phase, Outcome& out) {
  LaneStats s;
  double free_at = 0.0;
  for (std::size_t i = 0; i < phase.records.size(); ++i) {
    const ServeRecord& r = phase.records[i];
    const Checked& c = phase.checked[i];
    if (!r.sent) continue;
    ++out.attempted;
    s.lag.push_back(r.send_ms - r.due_ms);
    s.own_lag.push_back(r.send_ms - std::max(r.due_ms, free_at));
    free_at = r.sent_ms;
    s.handle.push_back((r.sent_ms - r.send_ms) * 1e3);
    if (!c.ok) {
      out.fail(c.why);
      s.latency[r.req.lane].push_back(kMiss);
      if (r.req.lane != kLow) s.all.push_back(kMiss);
      continue;
    }
    if (c.cancelled) continue;
    const double latency = c.report_ms - r.due_ms;
    s.latency[r.req.lane].push_back(latency);
    s.overhead[r.req.lane].push_back(latency - c.report->wall_seconds * 1e3);
    if (r.req.lane == kLow) continue;  // fixed-budget runs are not solves
    ++s.ok;
    s.all.push_back(latency);
    s.tts.push_back(c.report->time_to_solution_seconds * 1e3);
  }
  return s;
}

StepOutcome score(const Phase& phase, const LaneStats& s) {
  StepOutcome o;
  o.high_p99_ms = block_tail(s.latency[kHigh], 0.99).value;
  o.backlog_grew = phase.aborted || phase.drain_ms > kDrainLimitMs;
  o.generator_behind = tail(s.own_lag, 0.99).value > kLagLimitMs;
  return o;
}

std::string describe(const std::string& what, double rate, const Phase& phase,
                     const LaneStats& s, const StepOutcome& o) {
  char text[512];
  std::snprintf(
      text, sizeof text,
      "lanes-open %s at %.1f/s: %zu sent, high p99 %.3f ms, drain %.1f ms, "
      "backlog %lld at the last arrival%s, lag p99 %.3f ms (own %.3f), "
      "handle_line p99 %.1f us%s: %s",
      what.c_str(), rate, s.lag.size(), o.high_p99_ms, phase.drain_ms,
      static_cast<long long>(phase.backlog_end),
      phase.aborted ? " (over cap)" : "", tail(s.lag, 0.99).value,
      tail(s.own_lag, 0.99).value, tail(s.handle, 0.99).value,
      o.generator_behind ? ", generator behind (invalid)" : "",
      meets_slo(o, kHighP99LimitMs) ? "meets the SLO" : "misses the SLO");
  return text;
}

void trace_phase(Tracer* tracer, const Phase& phase) {
  if (tracer == nullptr) return;
  for (std::size_t i = 0; i < phase.records.size(); ++i) {
    const ServeRecord& r = phase.records[i];
    if (!r.sent) continue;
    trace_record(*tracer, "lanes-open", r, phase.checked[i],
                 phase.decode_ms[2 * i],
                 phase.decode_ms[2 * i + 1], r.due_ms, "serve.handle_line");
  }
}

/// Codec costs on the phase's own lines and reports.
void codec_metrics(const Phase& phase, std::map<std::string, Metric>& layer) {
  std::vector<std::string> requests;
  std::vector<const api::SolveReport*> reports;
  for (std::size_t i = 0; i < phase.records.size() && requests.size() < 500;
       ++i) {
    requests.push_back(phase.records[i].req.request.to_json_string());
    if (phase.checked[i].report) reports.push_back(&*phase.checked[i].report);
  }
  auto per_call_us = [](std::size_t n, auto&& body) {
    const double t0 = now_ms();
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
    return (now_ms() - t0) * 1e3 / static_cast<double>(3 * std::max<std::size_t>(n, 1));
  };
  std::size_t sink = 0;
  layer["api.request_decode_us"] = {
      per_call_us(requests.size(),
                  [&](std::size_t i) {
                    sink += api::SolveRequest::from_json_string(requests[i])
                                .walkers;
                  }),
      "us"};
  double bytes = 0.0;
  layer["api.report_encode_us"] = {
      per_call_us(reports.size(),
                  [&](std::size_t i) {
                    const auto text = reports[i]->to_json_string();
                    bytes += static_cast<double>(text.size());
                  }),
      "us"};
  layer["api.report_bytes"] = {
      bytes / static_cast<double>(3 * std::max<std::size_t>(reports.size(), 1)),
      "bytes"};
  layer["serve.parse_us"] = {
      per_call_us(std::min<std::size_t>(phase.records.size(), 500),
                  [&](std::size_t i) {
                    sink += serve::parse_command(phase.records[i].req.line,
                                                 1 << 20)
                                .index();
                  }),
      "us"};
  layer["serve.encode_us"] = {
      per_call_us(reports.size(),
                  [&](std::size_t i) {
                    sink += serve::encode_report(i, "r", "done", *reports[i], "")
                                .size();
                  }),
      "us"};
  g_sink = sink;
}

}  // namespace

WorkloadRun run_lanes_open(const RunConfig& config) {
  WorkloadRun run;
  Outcome& out = run.outcome;
  Rng rng(config.seed);
  RequestFactory factory;
  Checker checker;

  // Set-up: build the scheduler and session and get the first `accepted`.
  std::vector<double> setups;
  std::unique_ptr<LanesClient> client;
  for (int s = 0; s < config.setups; ++s) {
    client.reset();
    ServeRequest first = factory.tiny(rng);
    RequestFactory::encode(first, "setup");
    const double t0 = now_ms();
    client = std::make_unique<LanesClient>();
    const std::string accepted = client->send_capturing(first.line);
    setups.push_back((now_ms() - t0) / 1e3);
    if (accepted.empty()) out.fail("set-up request was not accepted");
    client->wait_reports(1);
  }

  // The scored phase: a fixed offered rate.
  const double seconds =
      config.rate_search ? config.seconds * kFixedShare : config.seconds;
  const double phase_start = now_ms();
  Phase fixed = client->run(
      arrivals(rng, factory, kFixedRate,
               static_cast<std::size_t>(kFixedRate * seconds), now_ms() + 20.0),
      false, checker);
  const LaneStats s = lane_stats(fixed, out);
  Rng sample_rng = rng.fork(1);
  check_against_solver(fixed.records, fixed.checked, 24, sample_rng, out);
  trace_phase(config.tracer, fixed);
  // Peak memory of the scored phase; the ladder's steps only add the
  // harness's own line buffers.
  const double rss_mb = peak_rss_mb();
  const StepOutcome fixed_outcome = score(fixed, s);
  out.notes.push_back(describe("fixed phase", kFixedRate, fixed, s, fixed_outcome));
  if (fixed_outcome.generator_behind) {
    out.invalid = true;
    out.notes.push_back("lanes-open fixed phase invalid: the generator fell behind");
  }

  // The rate ladder: the highest rung whose high-lane p99 stays within the
  // limit while the backlog does not grow.
  double max_rate = kLadder.rate(0) / kLadder.ratio;
  if (config.rate_search) {
    const double deadline = phase_start + config.seconds * 1e3;
    auto budget_left = [&] {
      return now_ms() + (kStepSeconds + kDrainLimitMs / 1e3) * 1e3 < deadline;
    };
    auto passes = [&](int rung) {
      const double rate = kLadder.rate(rung);
      const Phase step = client->run(
          arrivals(rng, factory, rate,
                   static_cast<std::size_t>(rate * kStepSeconds), now_ms() + 20.0),
          true, checker);
      const LaneStats st = lane_stats(step, out);
      const StepOutcome o = score(step, st);
      out.notes.push_back(describe("step", rate, step, st, o));
      return meets_slo(o, kHighP99LimitMs);
    };
    const bool fixed_passes = meets_slo(fixed_outcome, kHighP99LimitMs);
    const int best = search_max_rung(
        kLadder.rungs,
        fixed_passes ? kLadder.rung_at_or_below(kFixedRate) : -1, passes,
        budget_left);
    if (best >= 0) max_rate = kLadder.rate(best);
  }

  const double high_p50 = percentile(s.latency[kHigh], 0.5);
  out.set("setup_s", median(setups), "s");
  out.set("peak_rss_mb", rss_mb, "MiB");
  out.set("ok_share",
          1.0 - static_cast<double>(out.failed) /
                    static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
          "ratio");
  out.set("solves_per_s", static_cast<double>(s.ok) / fixed.window_s, "1/s");
  out.set("tts_p50_ms", percentile(s.tts, 0.5), "ms");
  out.set("tts_p90_ms", block_tail(s.tts, 0.90).value, "ms");
  out.set("latency_p50_ms", percentile(s.all, 0.5), "ms");
  out.set("latency_p99_ms", block_tail(s.all, 0.99).value, "ms");
  out.set("high_p50_ms", high_p50, "ms");
  out.set("high_p99_ms", block_tail(s.latency[kHigh], 0.99).value, "ms");
  out.set("normal_p50_ms", percentile(s.latency[kNormal], 0.5), "ms");
  out.set("normal_p99_ms", block_tail(s.latency[kNormal], 0.99).value, "ms");
  out.set("low_p50_ms", percentile(s.latency[kLow], 0.5), "ms");
  out.set("max_rate_at_slo", max_rate, "req/s");
  run.main_metric = high_p50;

  auto& layer = run.layer;
  layer["serve.handle_line_us_p50"] = {percentile(s.handle, 0.5), "us"};
  layer["serve.handle_line_us_p99"] = {tail(s.handle, 0.99).value, "us"};
  for (int lane = 0; lane < 3; ++lane) {
    layer["serve." + std::string(kLaneNames[lane]) + ".overhead_ms"] = {
        median(s.overhead[lane]), "ms"};
  }
  const serve::SchedulerStats& d = fixed.delta;
  const double batched = static_cast<double>(std::max<std::uint64_t>(d.batched_jobs, 1));
  layer["serve.batch_mean"] = {
      batched / static_cast<double>(std::max<std::uint64_t>(d.batches, 1)),
      "jobs"};
  layer["serve.fused_share"] = {static_cast<double>(d.fused_jobs) / batched,
                                "ratio"};
  layer["serve.giveback_ratio"] = {static_cast<double>(d.givebacks) / batched,
                                   "ratio"};
  layer["serve.preempted_queued"] = {static_cast<double>(d.preempted_queued),
                                     "count"};
  layer["serve.preempted_running"] = {static_cast<double>(d.preempted_running),
                                      "count"};
  layer["serve.resumed"] = {static_cast<double>(d.resumed), "count"};
  layer["serve.rejected_overload"] = {static_cast<double>(d.rejected_overload),
                                      "count"};
  layer["serve.gen_lag_ms_p99"] = {tail(s.lag, 0.99).value, "ms"};
  codec_metrics(fixed, layer);
  return run;
}

}  // namespace perfbench
