// The end-to-end benchmark's workloads.
//
// Each workload generates its inputs (update and value traces) from the
// seed once, untimed, and then runs any number of repetitions over them.
// A repetition composes the layers itself through their public APIs —
// Simulator, OriginServer, PollingEngine, ProxyFleet or ShardedFleet, and
// the client/ and metrics/ evaluators — and times every phase from the
// outside.  It never calls the harness/ runners.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tracing.h"

namespace broadway::e2e {

/// How one repetition runs.
struct RunOptions {
  /// Decorate policies and coordinators with timers and split the simulate
  /// phase into equal simulated-time slices (the per-layer pass).
  bool traced = false;
  /// Worker threads of the sharded workloads; 0 = the workload's own.
  std::size_t threads = 0;
  /// Drive client traffic (client_reads only); false is the zero-rate
  /// rerun that prices one client request.
  bool clients = true;
  /// Stop after start(): a set-up sample only, with no outputs or checks.
  bool setup_only = false;
};

/// One output check of a repetition.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one repetition measured and produced.
struct RunResult {
  // Wall time of each phase, seconds.
  double build_s = 0.0;
  double start_s = 0.0;
  double simulate_s = 0.0;
  double merge_s = 0.0;
  double fidelity_s = 0.0;
  double transactions_s = 0.0;
  /// Traced runs only: wall time of each simulated-time slice.
  std::vector<double> slice_s;

  /// Modelled end-to-end outputs (deterministic given the seed), by name.
  std::vector<std::pair<std::string, double>> modelled;

  // Layer counters, all read from public accessors.
  std::uint64_t origin_requests = 0;
  std::uint64_t origin_polls = 0;
  std::uint64_t triggered_polls = 0;
  std::uint64_t failed_polls = 0;
  std::uint64_t demand_fills = 0;
  std::uint64_t useful_polls = 0;  ///< non-initial origin polls answered 200
  std::uint64_t log_records = 0;
  std::uint64_t relays_sent = 0;
  std::uint64_t relays_delivered = 0;
  std::uint64_t relays_applied = 0;
  std::uint64_t relays_lost = 0;
  std::uint64_t relays_retried = 0;
  std::uint64_t relays_dropped_dark = 0;
  std::uint64_t client_requests = 0;
  std::uint64_t client_hits = 0;
  std::uint64_t client_fills = 0;
  std::uint64_t client_dark_reads = 0;
  /// Events executed; only single-simulator workloads expose it.
  std::optional<std::uint64_t> sim_events;
  std::size_t shards = 0;   ///< 0 = not sharded
  std::size_t threads = 1;  ///< threads the simulate phase ran on
  CallStats policy;         ///< traced runs only
  CallStats coordinator;    ///< traced runs only (self time)

  std::vector<Check> checks;
  /// FNV-1a over the merged poll records, client metrics, ledgers and
  /// modelled outputs, bit-exact.
  std::uint64_t digest = 0;

  /// Work done: origin requests served + relays sent + client requests.
  std::uint64_t ops() const {
    return origin_requests + relays_sent + client_requests;
  }
  double eval_s() const { return merge_s + fidelity_s + transactions_s; }
};

/// A workload with its generated inputs.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Run one repetition.  `spans` (traced runs) receives the phase spans.
  virtual RunResult run(const RunOptions& options, SpanLog* spans) const = 0;

  /// True for the ShardedFleet workloads (thread count matters).
  virtual bool sharded() const { return false; }
  /// True when the workload drives client traffic.
  virtual bool has_clients() const { return false; }
};

/// The workload names, in the benchmark's order.
const std::vector<std::string>& workload_names();

/// Generate `name`'s inputs from `seed`; `smoke` shrinks the horizon.
/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke);

}  // namespace broadway::e2e
