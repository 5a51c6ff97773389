// perfbench: the repository benchmark.
//
//   perfbench --workload <race-suite|lanes-open|http-keepalive>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out-dir <dir>]
//
// --trace 0 measures the workload untraced and prints its end-to-end
// metrics.  --trace 1 is a separate run: the workload untraced and traced
// (for trace.overhead_share and its spans), short traced probes of the
// other serving workloads, and the layer ladder; it prints the per-layer
// metrics and a span summary and writes every span to --out-dir.  The
// last line of stdout is always the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "util/json.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <race-suite|lanes-open|"
               "http-keepalive> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>] [--out-dir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--out-dir") {
        args.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (args.workload != "race-suite" && args.workload != "lanes-open" &&
      args.workload != "http-keepalive") {
    usage("unknown workload '" + args.workload + "'");
  }
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

WorkloadRun run_workload(const std::string& name, const RunConfig& config) {
  if (name == "race-suite") return run_race_suite(config);
  if (name == "lanes-open") return run_lanes_open(config);
  return run_http_keepalive(config);
}

util::Json metadata(const Args& args) {
  util::Json meta = util::Json::object();
  meta.set("workload", args.workload)
      .set("seed", args.seed)
      .set("seconds", args.seconds)
      .set("trace", args.trace)
      .set("commit", args.commit)
      .set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .set("simd_tier", util::simd::tier_name())
      .set("compiler", PERFBENCH_COMPILER)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("cspls_options", PERFBENCH_CSPLS_OPTIONS);
  return meta;
}

void merge(Outcome& into, const Outcome& from) {
  into.attempted += from.attempted;
  for (const auto& why : from.failures) {
    if (into.failures.size() < 8) into.failures.push_back(why);
  }
  into.failed += from.failed;
  into.invalid = into.invalid || from.invalid;
  into.notes.insert(into.notes.end(), from.notes.begin(), from.notes.end());
}

void print_span_summary(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  struct Agg {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
    std::vector<double> durations;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Agg& a = by_name[spans[i].name];
    ++a.count;
    const double d = spans[i].end_ms - spans[i].start_ms;
    a.total += d;
    a.self += self[i];
    a.durations.push_back(d);
  }
  std::printf("spans (%zu): name, count, p50 ms, total ms, self ms\n",
              spans.size());
  for (auto& [name, a] : by_name) {
    std::printf("  %-40s %8zu %12.4f %14.3f %14.3f\n", name.c_str(), a.count,
                median(a.durations), a.total, a.self);
  }
}

void write_spans(const std::vector<Span>& spans, const Args& args) {
  const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".jsonl";
  std::ofstream file(path);
  for (const Span& s : spans) {
    util::Json j = util::Json::object();
    j.set("name", s.name)
        .set("id", s.id)
        .set("parent", s.parent)
        .set("request", s.request)
        .set("start_ms", s.start_ms)
        .set("end_ms", s.end_ms);
    file << j.dump() << '\n';
  }
  std::printf("spans written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
#if defined(PERFBENCH_SANITIZED) || \
    (defined(CSPLS_FAULT_INJECTION) && CSPLS_FAULT_INJECTION)
  std::cerr << "perfbench: refusing a sanitizer or fault-injection build; "
               "it measures a different program\n";
  return 2;
#endif
  std::printf("%s\n", util::Json::object().set("meta", metadata(args)).dump().c_str());
  std::fflush(stdout);

  Outcome total;
  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    RunConfig config;
    config.seed = args.seed;
    config.seconds = args.seconds;
    WorkloadRun run = run_workload(args.workload, config);
    merge(total, run.outcome);
    metrics = run.outcome.metrics;
  } else {
    Tracer on;
    RunConfig config;
    config.seed = args.seed;
    config.seconds = args.seconds / 3.0;
    config.rate_search = false;
    config.setups = 1;
    const WorkloadRun untraced = run_workload(args.workload, config);
    config.tracer = &on;
    const WorkloadRun traced = run_workload(args.workload, config);
    merge(total, untraced.outcome);
    merge(total, traced.outcome);
    metrics = traced.layer;
    // The serving workloads' traffic metrics not covered by this one come
    // from short traced probes of the others.
    for (const std::string other : {"lanes-open", "http-keepalive"}) {
      if (other == args.workload) continue;
      RunConfig probe = config;
      probe.seconds = std::min(3.0, args.seconds);
      const WorkloadRun p = run_workload(other, probe);
      merge(total, p.outcome);
      metrics.insert(p.layer.begin(), p.layer.end());
    }
    Outcome checks;
    const auto ladder = run_layer_ladder(args.seed, on, checks);
    merge(total, checks);
    metrics.insert(ladder.begin(), ladder.end());
    metrics["trace.overhead_share"] = {
        (traced.main_metric - untraced.main_metric) / untraced.main_metric,
        "ratio"};
    const auto spans = on.spans();
    print_span_summary(spans);
    write_spans(spans, args);
  }

  for (const auto& note : total.notes) std::printf("note: %s\n", note.c_str());
  for (const auto& why : total.failures) std::printf("FAILED: %s\n", why.c_str());
  for (const auto& [name, metric] : metrics) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
  bool finite = true;
  util::Json out_metrics = util::Json::object();
  for (const auto& [name, metric] : metrics) {
    if (!std::isfinite(metric.value)) finite = false;
    out_metrics.set(name, util::Json::object()
                              .set("value", std::isfinite(metric.value)
                                                ? metric.value
                                                : -1.0)
                              .set("unit", metric.unit));
  }
  const bool correct = total.failed == 0 && !total.invalid && finite;
  util::Json result = util::Json::object();
  result.set("correct", correct)
      .set("attempted", std::max<std::uint64_t>(total.attempted, 1))
      .set("failed", total.failed)
      .set("metrics", out_metrics);
  std::printf("%s\n", result.dump().c_str());
  return 0;
}
