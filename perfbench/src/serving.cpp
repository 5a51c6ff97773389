#include "serving.hpp"

#include <algorithm>
#include <exception>

#include "api/solver.hpp"
#include "util/json.hpp"

namespace perfbench {

RequestFactory::RequestFactory() {
  for (const auto& spec : kTinySpecs) {
    params_.emplace_back(spec, solvable_params(spec));
  }
  for (const auto& spec : kNormalSpecs) {
    params_.emplace_back(spec, solvable_params(spec));
  }
}

ServeRequest RequestFactory::solvable(const std::string& spec,
                                      std::size_t walkers,
                                      parallel::Scheduling scheduling,
                                      Rng& rng, int lane) {
  ServeRequest out;
  out.lane = lane;
  out.request = make_request(spec, walkers, scheduling, rng.next());
  for (const auto& [name, params] : params_) {
    if (name == spec) out.request.params = params;
  }
  return out;
}

ServeRequest RequestFactory::tiny(Rng& rng) {
  return solvable(kTinySpecs[rng.below(kTinySpecs.size())], 1,
                  parallel::Scheduling::kSequential, rng, kHigh);
}

ServeRequest RequestFactory::normal(Rng& rng) {
  return solvable(kNormalSpecs[rng.below(kNormalSpecs.size())], 2,
                  parallel::Scheduling::kThreads, rng, kNormal);
}

ServeRequest RequestFactory::low(Rng& rng, bool cancel) {
  ServeRequest out;
  out.lane = kLow;
  out.request = make_request(std::string(kLowSpec), 2,
                             parallel::Scheduling::kThreads, rng.next());
  core::Params params;
  params.restart_limit = kLowRestartLimit;
  params.max_restarts = 0;
  out.request.params = params;
  out.stream = true;
  out.sample_period = 4096;
  out.cancel = cancel;
  return out;
}

ServeRequest RequestFactory::streaming(Rng& rng, int lane) {
  ServeRequest out = solvable("all-interval:12", 1,
                              parallel::Scheduling::kSequential, rng, lane);
  out.stream = true;
  out.sample_period = 4;
  return out;
}

void RequestFactory::encode(ServeRequest& request, std::string tag) {
  request.tag = std::move(tag);
  util::Json envelope = util::Json::object();
  envelope.set("op", "solve")
      .set("request", request.request.to_json())
      .set("priority", std::string(kLaneNames[request.lane]));
  if (request.stream) {
    envelope.set("stream", true).set("sample_period", request.sample_period);
  }
  envelope.set("tag", request.tag);
  request.line = envelope.dump();
}

Checked check_record(const ServeRecord& record, Checker& checker) {
  Checked out;
  if (!record.sent) {
    out.why = "never sent";
    return out;
  }
  bool accepted = false;
  bool reported = false;
  std::optional<std::int64_t> last_sample;
  std::string status;
  try {
    for (const Event& event : record.events) {
      const auto json = util::Json::parse(event.line);
      if (!json || !json->is_object() || json->find("event") == nullptr) {
        out.why = "undecodable event line";
        return out;
      }
      const std::string& kind = json->at("event").as_string();
      if (reported) {
        out.why = kind + " event after the report";
        return out;
      }
      if (kind == "accepted") {
        if (accepted) {
          out.why = "second accepted event";
          return out;
        }
        accepted = true;
        out.accepted_ms = event.t_ms;
      } else if (!accepted) {
        out.why = kind + " event before accepted: " + event.line.substr(0, 160);
        return out;
      } else if (kind == "sample") {
        const std::int64_t cost = json->at("best_cost").as_int64();
        if (last_sample && cost >= *last_sample) {
          out.why = "samples not strictly decreasing";
          return out;
        }
        last_sample = cost;
      } else if (kind == "report") {
        reported = true;
        out.report_ms = event.t_ms;
        status = json->at("status").as_string();
        out.report = api::SolveReport::from_json(json->at("report"));
      } else if (kind != "preempted") {
        out.why = "unexpected event: " + event.line.substr(0, 160);
        return out;
      }
    }
  } catch (const std::exception& error) {
    out.why = std::string("malformed event: ") + error.what();
    return out;
  }
  if (!reported) {
    out.why = "no report";
    return out;
  }
  const ServeRequest& req = record.req;
  if (req.cancel && status == "cancelled") {
    out.cancelled = true;
    out.ok = true;
    return out;
  }
  if (status != "done") {
    out.why = req.request.problem + ": status " + status;
    return out;
  }
  if (req.lane == kLow && req.request.problem == kLowSpec) {
    const std::uint64_t budget = budgeted_iterations(req.request);
    if (out.report->solved) {
      out.why = "fixed-budget run claims to solve an unsolvable instance";
    } else if (out.report->total_iterations != budget) {
      out.why = "fixed-budget run reported " +
                std::to_string(out.report->total_iterations) +
                " iterations, budget " + std::to_string(budget);
    }
  } else {
    out.why = checker.verify_solved(req.request.problem, *out.report);
  }
  out.ok = out.why.empty();
  return out;
}

void check_against_solver(const std::vector<ServeRecord>& records,
                                 const std::vector<Checked>& checked,
                                 std::size_t sample, Rng& rng,
                                 Outcome& outcome) {
  std::vector<std::size_t> candidates;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (checked[i].ok && !checked[i].cancelled &&
        records[i].req.request.scheduling == parallel::Scheduling::kSequential) {
      candidates.push_back(i);
    }
  }
  std::shuffle(candidates.begin(), candidates.end(),
               std::mt19937_64(rng.next()));
  candidates.resize(std::min(candidates.size(), sample));
  for (const std::size_t i : candidates) {
    const api::SolveReport direct = api::Solver::solve(records[i].req.request);
    if (without_timing(direct) != without_timing(*checked[i].report)) {
      outcome.fail(records[i].req.request.problem +
                   ": served report differs from Solver::solve");
    }
  }
}

void trace_record(Tracer& tracer, std::string_view workload,
                  const ServeRecord& record, const Checked& checked,
                  double decode_start_ms, double decode_end_ms,
                  double origin_ms, std::string_view send_span) {
  const std::string prefix = std::string(workload) + "/";
  const std::uint64_t rid = tracer.next_request();
  const std::uint64_t root =
      tracer.add(prefix + "request." + std::string(kLaneNames[record.req.lane]),
                 rid, 0, origin_ms, record.end_ms);
  if (record.send_ms > origin_ms) {
    tracer.add(prefix + "client.generator_lag", rid, root, origin_ms,
               record.send_ms);
  }
  tracer.add(prefix + std::string(send_span), rid, root, record.send_ms,
             record.sent_ms);
  double previous = record.send_ms;
  for (const Event& event : record.events) {
    // Every event line starts {"event":"<kind>".
    const auto start = event.line.find(":\"") + 2;
    const auto kind =
        event.line.substr(start, event.line.find('"', start) - start);
    tracer.add(prefix + "wait." + kind, rid, root, previous, event.t_ms);
    previous = event.t_ms;
  }
  if (record.end_ms > previous) {
    tracer.add(prefix + "wait.end", rid, root, previous, record.end_ms);
  }
  tracer.add(prefix + "client.decode", rid, root, decode_start_ms,
             decode_end_ms);
  if (checked.report) {
    tracer.add(prefix + "program.solve", rid, root,
               checked.report_ms - checked.report->wall_seconds * 1e3,
               checked.report_ms);
  }
}

serve::SchedulerStats stats_delta(const serve::SchedulerStats& before,
                                  const serve::SchedulerStats& after) {
  serve::SchedulerStats d = after;
  d.submitted -= before.submitted;
  d.completed -= before.completed;
  d.cancelled -= before.cancelled;
  d.failed -= before.failed;
  d.preempted_queued -= before.preempted_queued;
  d.preempted_running -= before.preempted_running;
  d.resumed -= before.resumed;
  d.rejected_overload -= before.rejected_overload;
  d.givebacks -= before.givebacks;
  d.batches -= before.batches;
  d.batched_jobs -= before.batched_jobs;
  d.fused_batches -= before.fused_batches;
  d.fused_jobs -= before.fused_jobs;
  return d;
}

}  // namespace perfbench
