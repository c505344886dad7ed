// End-to-end benchmark program: runs one workload for a wall-time budget and
// prints its metrics as one JSON object on the last line of stdout.
//
//   bench_e2e --workload=NAME --seed=N --seconds=S [--trace] [--smoke]
//             [--trace-out=PATH]
//
// Untraced (the default): repeats the workload until S seconds have passed
// (at least 3 repetitions, 1 with --smoke) and reports the end-to-end
// metrics — the best repetition's for timings.  --trace runs the
// per-layer pass instead: untraced and traced repetitions in pairs, plus a
// threads:1 rerun of the sharded workloads and a client-free rerun of
// client_reads, and reports the per-layer metrics; --trace-out writes the
// phase spans as Chrome trace-event JSON.
//
// Every repetition's outputs are checked (see workloads.cpp), and every
// repetition of a seed must produce the same digest, traced or not and at
// any thread count.  The exit code is 0 only when every check held; the
// JSON line is printed either way, with "correct" saying which.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/flags.h"
#include "workloads.h"

namespace {

using namespace broadway;
using namespace broadway::e2e;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  /// Deterministic given the seed (a modelled output or a count), so two
  /// runs of one seed must agree exactly; timings are not.
  bool exact = false;
};

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // ru_maxrss is KiB
}

const char* modelled_unit(const std::string& name) {
  return name == "origin_polls" ? "count" : "ratio";
}

// Timings are the best repetition's: the host's speed drifts by tens of
// percent over minutes (other tenants), and that noise only ever adds
// time, so the fastest repetition of a run is the steadiest estimate of
// the code's own cost.  `setups` holds every repetition's set-up time plus
// the set-up-only samples; `rss_bytes` is the peak RSS after the first.
std::vector<Metric> end_to_end_metrics(const std::vector<RunResult>& reps,
                                       const std::vector<double>& setups,
                                       double rss_bytes) {
  double run = std::numeric_limits<double>::infinity();
  double ops_rate = 0.0;
  for (const RunResult& rep : reps) {
    run = std::min(run, rep.build_s + rep.start_s + rep.simulate_s +
                            rep.eval_s());
    ops_rate = std::max(ops_rate,
                        static_cast<double>(rep.ops()) / rep.simulate_s);
  }
  std::vector<Metric> metrics = {
      {"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
      {"run_s", run, "s"},
      {"ops_per_s", ops_rate, "ops/s"},
      {"peak_rss_mb", rss_bytes / (1024.0 * 1024.0), "MB"},
  };
  for (const auto& [name, value] : reps.front().modelled) {
    metrics.push_back({name, value, modelled_unit(name), true});
  }
  return metrics;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// The per-layer metrics of one (untraced, traced) repetition pair.  Counts
// and ratios of counts come from the untraced run (the traced one has the
// same), timings of decorated calls from the traced one, other timings
// from the untraced one.  `threads1_simulate_s` (sharded workloads) and
// `no_clients_simulate_s` (client workloads) come from the extra reruns;
// `rss_bytes` is the peak RSS after the first repetition.
std::vector<Metric> layer_metrics(const Workload& workload,
                                  const RunResult& plain,
                                  const RunResult& traced,
                                  double threads1_simulate_s,
                                  double no_clients_simulate_s,
                                  double rss_bytes) {
  std::vector<Metric> m;
  const auto count = [&m](const char* name, double value) {
    m.push_back({name, value, "count", true});
  };
  const auto exact_ratio = [&m](const char* name, double value) {
    m.push_back({name, value, "ratio", true});
  };
  const auto measured = [&m](const char* name, double value,
                             const char* unit) {
    m.push_back({name, value, unit, false});
  };
  const auto as_double = [](std::uint64_t value) {
    return static_cast<double>(value);
  };

  const double ops = as_double(plain.ops());
  if (plain.sim_events) {
    const double events = as_double(*plain.sim_events);
    count("sim.events", events);
    measured("sim.ns_per_event", plain.simulate_s * 1e9 / events, "ns");
    exact_ratio("sim.events_per_op", events / ops);
  }
  const double slice_p50 = median(traced.slice_s);
  const double slice_max =
      *std::max_element(traced.slice_s.begin(), traced.slice_s.end());
  measured("sim.slice_p50_ms", slice_p50 * 1e3, "ms");
  measured("sim.slice_max_ms", slice_max * 1e3, "ms");
  measured("sim.slice_imbalance", slice_max / slice_p50, "ratio");

  count("proxy.origin_requests", as_double(plain.origin_requests));
  count("proxy.polls", as_double(plain.origin_polls));
  count("proxy.triggered_polls", as_double(plain.triggered_polls));
  count("proxy.failed_polls", as_double(plain.failed_polls));
  count("proxy.demand_fills", as_double(plain.demand_fills));
  exact_ratio("proxy.useful_poll_ratio",
              ratio(as_double(plain.useful_polls),
                    as_double(plain.origin_polls)));
  count("proxy.log_records", as_double(plain.log_records));

  // Shares are of the worker-thread time available to the simulate phase.
  const double thread_ns =
      traced.simulate_s * 1e9 * static_cast<double>(traced.threads);
  count("consistency.policy_calls", as_double(traced.policy.calls));
  measured("consistency.policy_ns_per_call",
           ratio(as_double(traced.policy.ns), as_double(traced.policy.calls)),
           "ns");
  measured("consistency.policy_share", as_double(traced.policy.ns) / thread_ns,
           "ratio");
  if (traced.coordinator.calls > 0) {
    count("consistency.coordinator_calls", as_double(traced.coordinator.calls));
    measured("consistency.coordinator_self_ns_per_call",
             as_double(traced.coordinator.ns) /
                 as_double(traced.coordinator.calls),
             "ns");
    measured("consistency.coordinator_share",
             as_double(traced.coordinator.ns) / thread_ns, "ratio");
  }

  count("fleet.relays_sent", as_double(plain.relays_sent));
  if (plain.relays_delivered > 0) {
    exact_ratio("fleet.relay_apply_ratio",
                as_double(plain.relays_applied) /
                    as_double(plain.relays_delivered));
  }
  count("fleet.relays_lost", as_double(plain.relays_lost));
  count("fleet.relays_retried", as_double(plain.relays_retried));
  count("fleet.relays_dropped_dark", as_double(plain.relays_dropped_dark));
  if (workload.sharded()) {
    count("fleet.shards", static_cast<double>(plain.shards));
    measured("fleet.speedup_4t", threads1_simulate_s / plain.simulate_s,
             "ratio");
  }

  if (workload.has_clients()) {
    const double requests = as_double(plain.client_requests);
    count("client.requests", requests);
    exact_ratio("client.hit_ratio", as_double(plain.client_hits) / requests);
    count("client.fills", as_double(plain.client_fills));
    count("client.dark_reads", as_double(plain.client_dark_reads));
    measured("client.marginal_ns_per_request",
             (plain.simulate_s - no_clients_simulate_s) * 1e9 / requests,
             "ns");
  }

  measured("eval.fidelity_s", plain.fidelity_s, "s");
  if (plain.merge_s > 0.0) measured("eval.merge_s", plain.merge_s, "s");
  if (plain.transactions_s > 0.0) {
    measured("eval.transactions_s", plain.transactions_s, "s");
  }
  measured("setup.build_s", plain.build_s, "s");
  measured("setup.start_s", plain.start_s, "s");
  measured("mem.bytes_per_record", rss_bytes / as_double(plain.log_records),
           "B");
  measured("trace.overhead", traced.simulate_s / plain.simulate_s, "ratio");
  return m;
}

// Per-name median over the repetition pairs (every pair yields the same
// names in the same order).
std::vector<Metric> median_metrics(
    const std::vector<std::vector<Metric>>& per_pair) {
  std::vector<Metric> out = per_pair.front();
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<double> values;
    for (const std::vector<Metric>& pair : per_pair) {
      values.push_back(pair[i].value);
    }
    out[i].value = median(values);
  }
  return out;
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  long long seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  Flags flags;
  flags.add_string("workload", &workload_name,
                   "paper_mutual | fleet_relay | sharded_faults | "
                   "client_reads");
  flags.add_int("seed", &seed, "seed every input trace derives from");
  flags.add_double("seconds", &seconds, "wall-time budget of the run");
  flags.add_bool("trace", &trace, "per-layer pass instead of end-to-end");
  flags.add_bool("smoke", &smoke, "shrink every horizon (bit-rot check)");
  flags.add_string("trace-out", &trace_out,
                   "with --trace: write Chrome trace-event JSON here");
  if (!flags.parse(argc, argv)) return 2;
  if (seed < 0 || seconds <= 0.0) {
    std::cerr << "--seed must be >= 0 and --seconds > 0\n";
    return 2;
  }

  try {
    const Clock::time_point begin = Clock::now();
    const std::unique_ptr<Workload> workload = make_workload(
        workload_name, static_cast<std::uint64_t>(seed), smoke);
    if (workload == nullptr) {
      std::cerr << "unknown --workload '" << workload_name << "'\n";
      return 2;
    }
    const auto elapsed = [&] { return seconds_between(begin, Clock::now()); };

    // Digests of every run that must reproduce this seed's outputs.
    std::vector<std::uint64_t> digests;
    std::vector<Metric> metrics;
    std::uint64_t ops = 0;  // of one repetition
    std::uint64_t attempted = 0;
    std::size_t reps = 0;
    // Peak RSS once the first repetition is over: what one run of the
    // workload needs.  Later repetitions only add allocator fragmentation,
    // which depends on how worker threads happened to reuse malloc arenas.
    double rss_bytes = 0.0;
    bool correct = true;
    std::vector<std::string> failures;
    const auto checked = [&](RunResult run, const char* label) {
      for (const Check& check : run.checks) {
        if (check.ok) continue;
        correct = false;
        failures.push_back(check.name + label + ": " + check.detail);
      }
      return run;
    };
    const auto record = [&](RunResult run) {
      if (digests.empty()) rss_bytes = peak_rss_bytes();
      ops = run.ops();
      attempted += run.ops();
      digests.push_back(run.digest);
      return checked(std::move(run), "");
    };

    if (!trace) {
      const std::size_t min_reps = smoke ? 1 : 3;
      std::vector<RunResult> plain;
      // Set-up is short next to a repetition: each repetition is followed
      // by a set-up-only sample, so set-up is sampled twice as often.
      std::vector<double> setups;
      RunOptions setup_only;
      setup_only.setup_only = true;
      do {
        plain.push_back(record(workload->run({}, nullptr)));
        setups.push_back(plain.back().build_s + plain.back().start_s);
        const RunResult sample = workload->run(setup_only, nullptr);
        setups.push_back(sample.build_s + sample.start_s);
      } while (plain.size() < min_reps || elapsed() < seconds);
      reps = plain.size();
      metrics = end_to_end_metrics(plain, setups, rss_bytes);
    } else {
      std::vector<SpanLog> spans;
      std::vector<std::pair<RunResult, RunResult>> pairs;
      do {
        RunResult plain = record(workload->run({}, nullptr));
        spans.emplace_back(begin, static_cast<int>(spans.size()));
        RunOptions traced;
        traced.traced = true;
        pairs.emplace_back(std::move(plain),
                           record(workload->run(traced, &spans.back())));
      } while (elapsed() < seconds);
      reps = pairs.size();
      double threads1 = -1.0;
      if (workload->sharded()) {
        RunOptions options;
        options.threads = 1;
        threads1 = record(workload->run(options, nullptr)).simulate_s;
      }
      double no_clients = -1.0;
      if (workload->has_clients()) {
        RunOptions options;
        options.clients = false;
        no_clients =
            checked(workload->run(options, nullptr), " (no clients)")
                .simulate_s;
      }
      std::vector<std::vector<Metric>> per_pair;
      for (const auto& [plain, traced] : pairs) {
        per_pair.push_back(layer_metrics(*workload, plain, traced, threads1,
                                         no_clients, rss_bytes));
      }
      metrics = median_metrics(per_pair);
      if (!trace_out.empty()) {
        std::ofstream out(trace_out);
        out << "{\"traceEvents\":[\n";
        bool first = true;
        for (const SpanLog& log : spans) {
          log.write_events(out, first);
          first = false;
        }
        out << "\n],\"displayTimeUnit\":\"ms\"}\n";
        if (!out) {
          std::cerr << "cannot write " << trace_out << "\n";
          return 1;
        }
      }
    }

    const std::uint64_t digest = digests.front();
    for (const std::uint64_t other : digests) {
      if (other != digest) {
        correct = false;
        failures.push_back("digest: " + hex(other) + " differs from " +
                           hex(digest));
        break;
      }
    }
    for (const Metric& metric : metrics) {
      if (!std::isfinite(metric.value)) {
        correct = false;
        failures.push_back("metric " + metric.name + " is not finite");
      }
    }
    for (const std::string& failure : failures) {
      std::cerr << "CHECK FAILED " << failure << "\n";
    }

    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"workload\":" << json_string(workload_name)
        << ",\"seed\":" << seed << ",\"trace\":" << (trace ? 1 : 0)
        << ",\"smoke\":" << (smoke ? 1 : 0) << ",\"reps\":" << reps
        << ",\"runs\":" << digests.size() << ",\"ops\":" << ops
        << ",\"attempted\":" << attempted
        << ",\"failed\":" << (correct ? 0 : attempted)
        << ",\"correct\":" << (correct ? "true" : "false")
        << ",\"digest\":\"" << hex(digest) << "\",\"failures\":[";
    for (std::size_t i = 0; i < failures.size(); ++i) {
      out << (i == 0 ? "" : ",") << json_string(failures[i]);
    }
    out << "],\"metrics\":{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& metric = metrics[i];
      out << (i == 0 ? "" : ",") << json_string(metric.name)
          << ":{\"value\":"
          << (std::isfinite(metric.value) ? metric.value : 0.0)
          << ",\"unit\":" << json_string(metric.unit)
          << ",\"exact\":" << (metric.exact ? "true" : "false") << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: " << error.what() << "\n";
    return 1;
  }
}
