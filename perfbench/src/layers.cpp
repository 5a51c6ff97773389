// The traced run's layer ladder.  Every layer's public entry point is
// driven on its own, from the outside, with seeded samples of the
// workloads' requests; the cost a layer adds is its rung minus the rung
// below.  The k=1 pass of the paper's speedup analysis runs here too.
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <thread>

#include "api/service.hpp"
#include "api/solver.hpp"
#include "core/adaptive_search.hpp"
#include "http_client.hpp"
#include "parallel/fused.hpp"
#include "parallel/walker_pool.hpp"
#include "problems/spec.hpp"
#include "serve/http_server.hpp"
#include "serve/session.hpp"
#include "serving.hpp"
#include "sim/order_stats.hpp"
#include "sim/speedup.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Metrics = std::map<std::string, Metric>;

constexpr double kKernelBudgetMs = 25.0;  // per model and kernel
constexpr double kEngineBudgetMs = 30.0;  // per model
constexpr std::size_t kSpeedupSeeds = 20;   // races per model, k=1 and k=4
constexpr std::size_t kRungSamples = 40;
constexpr std::size_t kNormalRungSamples = 40;
// Kernel calls are timed on configurations a search visits: the best of
// kWalkIterations-iteration seeded walks, kBatch calls per configuration.
constexpr std::uint64_t kWalkIterations = 200;
constexpr std::size_t kConfigurations = 8;
constexpr std::size_t kBatch = 64;

volatile std::uint64_t g_sink = 0;

std::unique_ptr<csp::Problem> instance(const std::string& spec) {
  return problems::instantiate(problems::parse_spec(spec));
}

/// Call `body` until `budget_ms` has elapsed; mean nanoseconds per call.
template <typename Body>
double ns_per_call(double budget_ms, std::uint64_t calls_per_body,
                   Body&& body) {
  std::uint64_t calls = 0;
  const double t0 = now_ms();
  double t1 = t0;
  while (t1 - t0 < budget_ms) {
    body();
    calls += calls_per_body;
    t1 = now_ms();
  }
  return (t1 - t0) * 1e6 / static_cast<double>(calls);
}

/// Configurations a seeded search actually visits: the best reached by
/// short walks from random starts.
std::vector<std::vector<int>> search_configurations(const csp::Problem& proto,
                                                    const std::string& spec,
                                                    std::uint64_t seed) {
  core::Params params = solvable_params(spec);
  params.target_cost = -1;
  params.restart_limit = kWalkIterations;
  params.max_restarts = 0;
  std::vector<std::vector<int>> configurations;
  for (std::size_t c = 0; c < kConfigurations; ++c) {
    auto walker = proto.clone();
    util::Xoshiro256 rng(seed + c);
    configurations.push_back(
        core::AdaptiveSearch(params).solve(*walker, rng).solution);
  }
  return configurations;
}

void kernel_metrics(std::uint64_t seed, Metrics& m,
                    std::map<std::string, double>& kernel_ns) {
  for (const auto& model : race_models()) {
    auto problem = instance(model.spec);
    const auto configurations =
        search_configurations(*problem, model.spec, seed);
    util::Xoshiro256 rng(seed);
    const std::size_t n = problem->num_variables();
    std::vector<csp::Cost> errors(n);
    std::size_t c = 0;
    std::size_t x = 0;
    // Each batch first assigns the next configuration; the assign cost is
    // measured on its own and taken back out.
    const double assign_ns = ns_per_call(5.0, 1, [&] {
      g_sink = g_sink + static_cast<std::uint64_t>(
                            problem->assign(configurations[c++ % kConfigurations]));
    });
    const double probe_ns = ns_per_call(kKernelBudgetMs, kBatch, [&] {
      problem->assign(configurations[c++ % kConfigurations]);
      for (std::size_t i = 0; i < kBatch; ++i) {
        std::size_t best_j = 0;
        csp::Cost best_cost = 0;
        std::size_t ties = 0;
        g_sink = g_sink + problem->best_swap_for(x, rng, best_j, best_cost, ties);
        x = (x + 7) % n;
      }
    });
    const double errors_ns = ns_per_call(kKernelBudgetMs, kBatch, [&] {
      problem->assign(configurations[c++ % kConfigurations]);
      for (std::size_t i = 0; i < kBatch; ++i) {
        problem->cost_on_all_variables(errors);
        g_sink = g_sink + static_cast<std::uint64_t>(errors[i % n]);
      }
    });
    const double batch_share = assign_ns / static_cast<double>(kBatch);
    const double probe = std::max(0.0, probe_ns - batch_share);
    const double errs = std::max(0.0, errors_ns - batch_share);
    m["problems." + model.name + ".probe_ns"] = {probe, "ns"};
    m["problems." + model.name + ".errors_ns"] = {errs, "ns"};
    kernel_ns[model.name] = probe + errs;
  }
  // The high-lane instances: instantiate + clone + randomize.
  util::Xoshiro256 rng(seed);
  const double per_round_ns = ns_per_call(20.0, kTinySpecs.size(), [&] {
    for (const auto& spec : kTinySpecs) {
      auto proto = instance(spec);
      auto copy = proto->clone();
      g_sink = g_sink + static_cast<std::uint64_t>(copy->randomize(rng));
    }
  });
  m["problems.instantiate_us"] = {per_round_ns / 1e3, "us"};
}

void engine_metrics(std::uint64_t seed, Metrics& m,
                    std::map<std::string, double>& iter_ns) {
  for (const auto& model : race_models()) {
    auto proto = instance(model.spec);
    core::Params params = solvable_params(model.spec);
    params.target_cost = -1;  // unreachable: the walk runs its whole budget
    params.max_restarts = 0;
    auto timed = [&](std::uint64_t budget) {
      params.restart_limit = budget;
      auto walker = proto->clone();
      util::Xoshiro256 rng(seed);
      const double t0 = now_ms();
      const core::Result result =
          core::AdaptiveSearch(params).solve(*walker, rng);
      const double t1 = now_ms();
      return std::pair{t1 - t0, result.stats.iterations};
    };
    const auto [probe_ms, probe_iters] = timed(2000);
    const auto budget = static_cast<std::uint64_t>(
        std::max(2000.0, 2000.0 * kEngineBudgetMs / std::max(probe_ms, 1e-3)));
    const auto [ms, iters] = timed(budget);
    iter_ns[model.name] = ms * 1e6 / static_cast<double>(std::max<std::uint64_t>(iters, 1));
    m["core." + model.name + ".iter_ns"] = {iter_ns[model.name], "ns"};
  }
}

/// The race-suite seeds at k=4 and k=1, the counts of the k=4 reports, and
/// the paper's analysis: measured speedup beside the prediction from walker
/// 0's runtime law.
void race_metrics(std::uint64_t seed, Metrics& m, Outcome& checks,
                  const std::map<std::string, double>& kernel_ns,
                  const std::map<std::string, double>& iter_ns) {
  Rng rng(seed);
  Checker checker;
  std::uint64_t iterations = 0, swaps = 0, resets = 0, solves = 0;
  std::vector<double> stop_us;
  std::vector<double> errors;
  double weighted_share = 0.0, weight = 0.0;
  sim::PlatformModel host;
  host.name = "this host";
  host.cores_per_node = std::max(1u, std::thread::hardware_concurrency());
  host.max_cores = 4;
  for (const auto& model : race_models()) {
    double tts4 = 0.0, tts1 = 0.0;
    std::vector<double> law;  // walker 0's runtime law, seconds
    std::uint64_t model_iters = 0;
    for (std::size_t s = 0; s < kSpeedupSeeds; ++s) {
      const std::uint64_t master = rng.next();
      for (const std::size_t k : {std::size_t{4}, std::size_t{1}}) {
        const api::SolveReport report =
            api::Solver::solve(race_request(model, k, master));
        ++checks.attempted;
        if (auto why = checker.verify_solved(model.spec, report); !why.empty()) {
          checks.fail("ladder k=" + std::to_string(k) + " " + why);
          continue;
        }
        if (k == 1) {
          tts1 += report.time_to_solution_seconds;
          law.push_back(report.time_to_solution_seconds);
          continue;
        }
        tts4 += report.time_to_solution_seconds;
        stop_us.push_back(
            (report.wall_seconds - report.time_to_solution_seconds) * 1e6);
        ++solves;
        model_iters += report.total_iterations;
        for (const auto& w : report.walkers) {
          iterations += w.iterations;
          swaps += w.swaps;
          resets += w.resets;
        }
      }
    }
    const double measured = tts4 > 0.0 ? tts1 / tts4 : 0.0;
    double predicted = 0.0;
    if (law.size() >= 2) {
      const auto fit =
          sim::fit_shifted_exponential(sim::EmpiricalDistribution(law));
      predicted = sim::compute_fit_speedup_curve(fit, host, {1, 4}, model.name)
                      .at(4)
                      .speedup;
    }
    m["parallel." + model.name + ".speedup_k4"] = {measured, "x"};
    m["sim." + model.name + ".predicted_speedup_k4"] = {predicted, "x"};
    if (predicted > 0.0) errors.push_back(std::abs(measured / predicted - 1.0));
    // Suite iterations of this model per pass weight its kernel share.
    const double w = static_cast<double>(model_iters) /
                     static_cast<double>(kSpeedupSeeds) * model.per_pass;
    weighted_share += w * kernel_ns.at(model.name) / iter_ns.at(model.name);
    weight += w;
  }
  const double it = static_cast<double>(std::max<std::uint64_t>(iterations, 1));
  m["core.iters_per_solve"] = {
      static_cast<double>(iterations) /
          static_cast<double>(std::max<std::uint64_t>(solves, 1)),
      "iterations"};
  m["core.swap_ratio"] = {static_cast<double>(swaps) / it, "ratio"};
  m["core.resets_per_kiter"] = {static_cast<double>(resets) * 1e3 / it,
                                "count"};
  m["core.kernel_share"] = {weight > 0.0 ? weighted_share / weight : 0.0,
                            "ratio"};
  m["parallel.stop_us"] = {median(stop_us), "us"};
  m["sim.speedup_error_median"] = {median(errors), "ratio"};
}

/// Launch cost of a 4-thread pool whose walkers each run one iteration.
void launch_metrics(Metrics& m) {
  auto proto = instance("costas:8");
  parallel::WalkerPoolOptions options;
  options.num_walkers = 4;
  options.scheduling = parallel::Scheduling::kThreads;
  core::Params params;
  params.target_cost = -1;
  params.restart_limit = 1;
  params.max_restarts = 0;
  options.params = params;
  std::vector<double> us;
  for (int i = 0; i < 200; ++i) {
    const double t0 = now_ms();
    const auto report = parallel::WalkerPool(options).run(*proto);
    us.push_back((now_ms() - t0) * 1e3);
    g_sink = g_sink + report.total_iterations();
  }
  m["parallel.launch_us"] = {median(us), "us"};
}

/// FusedRun of 8 tiny jobs against 8 separate WalkerPool::run calls.
void fused_metrics(std::uint64_t seed, Metrics& m) {
  Rng rng(seed);
  RequestFactory factory;
  std::map<std::string, std::unique_ptr<csp::Problem>> protos;
  for (const auto& spec : kTinySpecs) protos[spec] = instance(spec);
  std::vector<double> fused_us, solo_us;
  for (int batch = 0; batch < 60; ++batch) {
    std::vector<parallel::FusedJob> jobs;
    for (int j = 0; j < 8; ++j) {
      const ServeRequest r = factory.tiny(rng);
      jobs.push_back(parallel::FusedJob{protos.at(r.request.problem).get(),
                                        r.request.to_pool_options(), {}});
    }
    double t0 = now_ms();
    parallel::FusedRun(parallel::FusedOptions{1, nullptr})
        .run(jobs, [](std::size_t, parallel::MultiWalkReport report) {
          g_sink = g_sink + report.total_iterations();
        });
    fused_us.push_back((now_ms() - t0) * 1e3 / 8.0);
    t0 = now_ms();
    for (const auto& job : jobs) {
      g_sink = g_sink +
               parallel::WalkerPool(job.options).run(*job.prototype).total_iterations();
    }
    solo_us.push_back((now_ms() - t0) * 1e3 / 8.0);
  }
  m["parallel.fused_us_per_job"] = {median(fused_us), "us"};
  m["parallel.solo_us_per_job"] = {median(solo_us), "us"};
}

/// Preempt a low-lane run to a PoolCheckpoint, round-trip the checkpoint
/// through JSON, and resume it to the end of its budget.
void checkpoint_metrics(std::uint64_t seed, Metrics& m, Outcome& checks) {
  Rng rng(seed);
  RequestFactory factory;
  auto proto = instance(std::string(kLowSpec));
  std::vector<double> capture_ms, resume_ms, encode_us, decode_us, bytes;
  for (int rep = 0; rep < 8; ++rep) {
    const ServeRequest r = factory.low(rng, false);
    ++checks.attempted;
    std::atomic<bool> preempt{false};
    std::optional<parallel::PoolCheckpoint> checkpoint;
    parallel::WalkerPoolOptions options = r.request.to_pool_options();
    options.preempt = &preempt;
    options.checkpoint_out = &checkpoint;
    parallel::MultiWalkReport first;
    std::thread runner([&] { first = parallel::WalkerPool(options).run(*proto); });
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double flip = now_ms();
    preempt.store(true);
    runner.join();
    capture_ms.push_back(now_ms() - flip);
    if (!checkpoint) {
      checks.fail("low-lane run was not captured to a checkpoint");
      continue;
    }
    double t0 = now_ms();
    const std::string text = checkpoint->to_json().dump();
    encode_us.push_back((now_ms() - t0) * 1e3);
    bytes.push_back(static_cast<double>(text.size()));
    t0 = now_ms();
    const auto decoded =
        parallel::PoolCheckpoint::from_json(*util::Json::parse(text));
    decode_us.push_back((now_ms() - t0) * 1e3);
    if (!(decoded == *checkpoint)) {
      checks.fail("checkpoint JSON round trip changed the checkpoint");
      continue;
    }
    std::atomic<std::uint64_t> heartbeat{0};
    parallel::WalkerPoolOptions resumed = r.request.to_pool_options();
    resumed.resume = decoded;
    resumed.heartbeat = &heartbeat;
    parallel::MultiWalkReport second;
    t0 = now_ms();
    std::thread again([&] { second = parallel::WalkerPool(resumed).run(*proto); });
    while (heartbeat.load(std::memory_order_relaxed) == 0 && now_ms() - t0 < 5e3) {
    }
    resume_ms.push_back(now_ms() - t0);
    again.join();
    if (second.total_iterations() != budgeted_iterations(r.request)) {
      checks.fail("resumed low-lane run reported " +
                  std::to_string(second.total_iterations()) +
                  " iterations, budget " +
                  std::to_string(budgeted_iterations(r.request)));
    }
  }
  m["parallel.capture_ms"] = {median(capture_ms), "ms"};
  m["parallel.resume_ms"] = {median(resume_ms), "ms"};
  m["api.checkpoint_encode_us"] = {median(encode_us), "us"};
  m["api.checkpoint_decode_us"] = {median(decode_us), "us"};
  m["api.checkpoint_bytes"] = {median(bytes), "bytes"};
}

/// Waits for one job's report through a Scheduler's event sinks.
struct ReportWait {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;

  void notify() {
    {
      std::lock_guard lock(mu);
      done = true;
    }
    cv.notify_all();
  }
  void wait() {
    std::unique_lock lock(mu);
    cv.wait(lock, [&] { return done; });
    done = false;
  }
};

/// One request class driven idle, one request at a time, through each
/// rung from the engine up to HTTP.  Returns the median microseconds per
/// rung, in ladder order.
std::vector<std::pair<std::string, double>> rungs(
    const std::vector<ServeRequest>& sample, Tracer& tracer,
    const std::string& cls, bool up_to_http) {
  std::map<std::string, std::unique_ptr<csp::Problem>> protos;
  for (const auto& r : sample) {
    auto& p = protos[r.request.problem];
    if (!p) p = instance(r.request.problem);
  }
  std::vector<std::pair<std::string, double>> out;
  auto rung = [&](const std::string& name, auto&& call) {
    std::vector<double> us;
    const std::uint64_t rid = tracer.next_request();
    const double r0 = now_ms();
    std::vector<std::pair<double, double>> spans;
    for (const ServeRequest& r : sample) {
      const double t0 = now_ms();
      call(r);
      const double t1 = now_ms();
      us.push_back((t1 - t0) * 1e3);
      spans.emplace_back(t0, t1);
    }
    const std::uint64_t root =
        tracer.add("ladder." + cls + "." + name, rid, 0, r0, now_ms());
    for (const auto& [a, b] : spans) tracer.add("rung." + name, rid, root, a, b);
    out.emplace_back(name, median(us));
  };

  if (sample.front().request.walkers == 1) {
    rung("core.AdaptiveSearch::solve", [&](const ServeRequest& r) {
      auto walker = protos.at(r.request.problem)->clone();
      util::Xoshiro256 rng = util::RngStreamFactory(r.request.seed).stream(0);
      g_sink = g_sink +
               core::AdaptiveSearch(*r.request.params).solve(*walker, rng).stats.iterations;
    });
  }
  rung("parallel.WalkerPool::run", [&](const ServeRequest& r) {
    g_sink = g_sink + parallel::WalkerPool(r.request.to_pool_options())
                          .run(*protos.at(r.request.problem))
                          .total_iterations();
  });
  rung("api.Solver::solve", [&](const ServeRequest& r) {
    g_sink = g_sink + api::Solver::solve(r.request).total_iterations;
  });
  rung("api.json_round_trip", [&](const ServeRequest& r) {
    const auto request = api::SolveRequest::from_json_string(
        r.request.to_json_string());
    const auto report = api::Solver::solve(request);
    g_sink = g_sink + report.to_json_string().size();
  });
  {
    api::SolverService service;
    rung("api.SolverService", [&](const ServeRequest& r) {
      g_sink = g_sink + service.submit(r.request).wait().total_iterations;
    });
  }
  {
    // The waits outlive the scheduler and session whose callbacks use them.
    ReportWait wait;
    ReportWait line_wait;
    serve::Scheduler scheduler{serve::SchedulerOptions{}};
    rung("serve.Scheduler::submit", [&](const ServeRequest& r) {
      serve::SolveCommand command;
      command.request = r.request;
      command.priority = static_cast<serve::Priority>(r.lane);
      serve::JobEvents events;
      events.on_report = [&](std::uint64_t, std::string_view,
                             const api::SolveReport&, std::string_view) {
        wait.notify();
      };
      (void)scheduler.submit(std::move(command), std::move(events));
      wait.wait();
    });
    serve::Session session(scheduler, [&](std::string_view line) {
      if (line.substr(0, 17) == R"({"event":"report")") line_wait.notify();
    });
    rung("serve.Session::handle_line", [&](const ServeRequest& r) {
      session.handle_line(r.line);
      line_wait.wait();
    });
    session.drain();
  }
  if (up_to_http) {
    serve::Scheduler scheduler{serve::SchedulerOptions{}};
    serve::HttpServer server(scheduler);
    server.start();
    {
      HttpClient client(server.port());
      rung("http.POST /api", [&](const ServeRequest& r) {
        HttpClient::Response response;
        if (client.exchange("POST", "/api", r.line, response)) {
          g_sink = g_sink + response.bytes;
        }
      });
    }
    server.stop();
  }
  return out;
}

double rung_us(const std::vector<std::pair<std::string, double>>& ladder,
               const std::string& name) {
  for (const auto& [n, us] : ladder) {
    if (n == name) return us;
  }
  return 0.0;
}

void print_ladder(const std::string& cls,
                  const std::vector<std::pair<std::string, double>>& ladder) {
  std::printf("ladder %s:\n", cls.c_str());
  double below = 0.0;
  for (const auto& [name, us] : ladder) {
    std::printf("  %-28s %12.2f us   adds %12.2f us\n", name.c_str(), us,
                us - below);
    below = us;
  }
}

}  // namespace

Metrics run_layer_ladder(std::uint64_t seed, Tracer& tracer, Outcome& checks) {
  Metrics m;
  Rng rng(seed);
  std::map<std::string, double> kernel_ns, iter_ns;
  kernel_metrics(rng.next(), m, kernel_ns);
  engine_metrics(rng.next(), m, iter_ns);
  race_metrics(rng.next(), m, checks, kernel_ns, iter_ns);
  launch_metrics(m);
  fused_metrics(rng.next(), m);
  checkpoint_metrics(rng.next(), m, checks);

  RequestFactory factory;
  std::vector<ServeRequest> tiny, normal;
  for (std::size_t i = 0; i < kRungSamples; ++i) {
    tiny.push_back(factory.tiny(rng));
    RequestFactory::encode(tiny.back(), tag_of('t', i));
  }
  for (std::size_t i = 0; i < kNormalRungSamples; ++i) {
    normal.push_back(factory.normal(rng));
    RequestFactory::encode(normal.back(), tag_of('n', i));
  }
  const auto tiny_ladder = rungs(tiny, tracer, "tiny", true);
  const auto normal_ladder = rungs(normal, tracer, "normal", false);
  print_ladder("tiny (high lane)", tiny_ladder);
  print_ladder("normal lane", normal_ladder);

  m["api.solver_overhead_us"] = {
      rung_us(tiny_ladder, "api.Solver::solve") -
          rung_us(tiny_ladder, "parallel.WalkerPool::run"),
      "us"};
  m["api.service_overhead_ms"] = {
      (rung_us(normal_ladder, "api.SolverService") -
       rung_us(normal_ladder, "api.Solver::solve")) /
          1e3,
      "ms"};
  m["serve.scheduler_us"] = {rung_us(tiny_ladder, "serve.Scheduler::submit"),
                             "us"};
  m["serve.session_us"] = {rung_us(tiny_ladder, "serve.Session::handle_line"),
                           "us"};
  m["http.request_us"] = {rung_us(tiny_ladder, "http.POST /api"), "us"};
  m["http.overhead_us"] = {rung_us(tiny_ladder, "http.POST /api") -
                               rung_us(tiny_ladder, "serve.Session::handle_line"),
                           "us"};
  return m;
}

}  // namespace perfbench
