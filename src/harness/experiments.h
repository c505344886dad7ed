// Experiment runners: one call = one simulated proxy run + ground-truth
// evaluation.  The bench binaries (one per paper table/figure), the
// integration tests and the examples all drive these, so every consumer
// measures the same way.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "client/client_metrics.h"
#include "client/client_traffic.h"
#include "client/read_transactions.h"
#include "consistency/types.h"
#include "fleet/sharded_fleet.h"
#include "metrics/accounting.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "metrics/value_fidelity.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"

namespace broadway {

// ---------- shared scenario knobs ----------

/// Knobs every run_* scenario shares.  The per-approach configs below
/// derive from this instead of each repeating the fields; configs that
/// embed a TemporalRunConfig (`base`) carry their scenario knobs there.
struct ScenarioBase {
  /// Simulated horizon; 0 = derive from the trace(s) — the per-runner
  /// default documented on each runner.
  Duration duration = 0.0;
  /// Experiment-level seed for stochastic layers above the engine (client
  /// traffic, transaction sampling).  The engine's loss-injection stream
  /// keeps its own EngineConfig::seed.
  std::uint64_t seed = 42;
  /// Per-object poll-log retention window (0 = unlimited).  Bounds
  /// memory on long horizons; counters stay exact, record series shorten.
  std::size_t poll_log_retention = 0;
  /// Engine failure/latency model.
  EngineConfig engine;
};

// ---------- individual temporal (paper §6.2.1, Fig. 3 / Fig. 4) ----------

/// Configuration of one Δt run.
struct TemporalRunConfig : ScenarioBase {
  /// Δt tolerance.
  Duration delta = 600.0;
  /// TTR upper bound (TTR_min is Δ, as in the paper).
  Duration ttr_max = 3600.0;
  /// LIMD parameters (§6.2.1 defaults).
  double linear_increase = 0.2;
  double epsilon = 0.02;
  bool adaptive_m = true;
  double multiplicative_decrease = 0.5;
  /// Violation inference strategy + whether the origin serves the
  /// modification-history extension (the A1 ablation toggles these).
  ViolationDetection detection = ViolationDetection::kExactHistory;
  bool origin_history = true;
  /// Closed-loop demand feedback (LimdPolicy::Config::read_boost): when
  /// > 0, each object's TTR is additionally shrunk by the client reads it
  /// served since its previous poll, so client-hot objects poll harder.
  /// 0 keeps the paper's open-loop LIMD bit-for-bit.
  double read_boost = 0.0;
};

/// Result of one Δt run.
struct TemporalRunResult {
  /// Refreshes performed (excluding the initial fetch) — the paper's
  /// "number of polls".
  std::size_t polls = 0;
  /// Ground-truth fidelity (both Eq. 13 and Eq. 14 views).
  TemporalFidelityReport fidelity;
  /// TTR after each poll (Fig. 4(b)).
  std::vector<std::pair<TimePoint, Duration>> ttr_series;
};

/// Run LIMD over the trace.
TemporalRunResult run_limd_individual(const UpdateTrace& trace,
                                      const TemporalRunConfig& config);

/// Run the baseline (poll every Δ) over the trace.
TemporalRunResult run_baseline_individual(const UpdateTrace& trace,
                                          Duration delta,
                                          EngineConfig engine = EngineConfig{});

// ---------- mutual temporal (paper §6.2.2, Fig. 5 / Fig. 6) ----------

/// The three §3.2 approaches compared in Fig. 5.
enum class MutualApproach {
  kBaseline,   ///< LIMD only, no mutual support
  kTriggered,  ///< update triggers polls of all related objects
  kHeuristic,  ///< update triggers polls of similar-or-faster objects only
};

struct MutualTemporalRunConfig {
  /// Individual Δ (the paper fixes Δ = 10 min for Fig. 5).
  TemporalRunConfig base;
  /// Mutual tolerance δ.
  Duration delta_mutual = 600.0;
  MutualApproach approach = MutualApproach::kBaseline;
  /// Heuristic similarity factor (rate(member) >= similarity·rate(updated)).
  double similarity = 0.8;
};

struct MutualTemporalRunResult {
  /// All refreshes across both objects (excl. initial fetches).
  std::size_t polls = 0;
  /// Of which coordinator-triggered.
  std::size_t triggered = 0;
  /// Pairwise Mt fidelity.
  MutualTemporalReport mutual;
  /// Per-object Δt fidelity (the mechanisms compose, §2).
  TemporalFidelityReport individual_a;
  TemporalFidelityReport individual_b;
  /// Full poll log (Fig. 6(b) buckets triggered polls over time).
  std::vector<PollRecord> poll_log;
};

MutualTemporalRunResult run_mutual_temporal(
    const UpdateTrace& trace_a, const UpdateTrace& trace_b,
    const MutualTemporalRunConfig& config);

// ---------- individual value (paper §4.1) ----------

struct ValueRunConfig : ScenarioBase {
  /// Δv tolerance (value units).
  double delta = 1.0;
  /// TTR bounds (seconds).  Stock traces tick every few seconds; TTR_min
  /// must sit *below* the tick interval or the floor masks the policies'
  /// behaviour (in particular the partitioned approach's tight-tolerance
  /// polling of the fast object, Fig. 7).
  TtrBounds bounds{1.0, 300.0};
  /// Eq. 10 parameters.
  double smoothing_w = 0.5;
  double alpha = 0.7;
};

struct ValueRunResult {
  std::size_t polls = 0;
  ValueFidelityReport fidelity;
};

ValueRunResult run_value_individual(const ValueTrace& trace,
                                    const ValueRunConfig& config);

// ---------- mutual value (paper §6.2.3, Fig. 7 / Fig. 8) ----------

/// The two §4.2 approaches compared in Fig. 7.
enum class MutualValueApproach {
  kAdaptive,     ///< f as a virtual object (Eqs. 11–12)
  kPartitioned,  ///< δ split across objects (linear f)
};

struct MutualValueRunConfig : ScenarioBase {
  /// Mv tolerance δ on f (the paper sweeps $0.25–$5 with f = difference).
  double delta = 1.0;
  TtrBounds bounds{1.0, 300.0};
  double smoothing_w = 0.5;
  double alpha = 0.7;
  MutualValueApproach approach = MutualValueApproach::kPartitioned;
  /// Collect the Fig. 8 (time, f_server, f_proxy) series.
  bool collect_series = false;
};

struct MutualValueRunResult {
  std::size_t polls = 0;
  MutualValueReport mutual;
  std::vector<MutualValueSample> series;
};

/// Runs with f = difference (the paper's Fig. 7/8 configuration).
MutualValueRunResult run_mutual_value(const ValueTrace& trace_a,
                                      const ValueTrace& trace_b,
                                      const MutualValueRunConfig& config);

// ---------- proxy fleet (multi-proxy, §5.1 outlook) ----------

/// One fleet run: N proxies on one origin, every proxy tracking every
/// trace's object with a LIMD policy built from `base`.
struct FleetRunConfig {
  /// Number of proxies sharing the origin.
  std::size_t proxies = 2;
  /// Relay successful polls to siblings (off = independent polling).
  bool cooperative_push = true;
  /// Proxy–proxy delivery latency.
  Duration relay_latency = 0.0;
  /// Fault injection (crash/recovery windows, relay loss, jitter, retry
  /// — fleet/faults.h).  Default-constructed = no faults.
  FaultSchedule faults;
  /// Per-object Δt policy parameters, shared by every proxy.
  TemporalRunConfig base;
};

struct FleetRunResult {
  /// Messages the origin served (initial fetches + polls, fleet-wide).
  std::size_t origin_requests = 0;
  /// Successful non-initial origin polls, fleet-wide.
  std::size_t origin_polls = 0;
  /// Mean origin polls per second over the longest trace horizon.
  double origin_polls_per_second = 0.0;
  /// The proxy–proxy relay channel's ledger.  Lost, retried and
  /// dropped-dark stay zero in a fault-free run.
  RelayLedger relays;
  /// Scheduled outage time summed over the fleet, clamped to the run
  /// horizon (0 without crash windows).
  Duration dark_time = 0.0;
  /// Eq. 14 fidelity over every (proxy, object) pair.
  double mean_fidelity_time = 0.0;
  double min_fidelity_time = 1.0;
  /// Eq. 13 fidelity over every (proxy, object) pair.
  double mean_fidelity_violations = 0.0;
};

/// Run a fleet over the traces; each object is evaluated per proxy against
/// its own trace horizon.
FleetRunResult run_fleet_temporal(const std::vector<UpdateTrace>& traces,
                                  const FleetRunConfig& config);

// ---------- fleet + client traffic (§6.1.1 request streams) ----------

/// One fleet run with client request streams layered on top: every proxy
/// serves a Poisson stream of simulated-client reads (client/
/// client_traffic.h), and an offline pass samples k-object read
/// transactions against the δ-group bound (client/read_transactions.h).
struct ClientFleetRunConfig {
  /// The fleet under test.  Scenario knobs (duration, seed, retention)
  /// live in fleet.base; the client and transaction seeds derive from
  /// fleet.base.seed so one seed pins the whole run.
  FleetRunConfig fleet;
  /// Client traffic shape (rate, Zipf exponent, diurnal profile,
  /// clients_per_proxy, record_requests).  `seed` is overridden with
  /// fleet.base.seed; `popularity` empty = Zipf over the hosted objects.
  ClientTrafficConfig client;
  /// Read-transaction sampling (rate 0 = skip the transaction pass).
  /// `seed` is overridden with fleet.base.seed + 1.  Requires
  /// fleet.base.poll_log_retention == 0 (full serve series).
  ReadTransactionConfig transactions;
  /// Worker threads: 1 = single-simulator ProxyFleet; > 1 = ShardedFleet
  /// with this many workers.  Results are byte-identical either way.
  std::size_t threads = 1;
  /// Sharded-driver shard count (ignored at threads <= 1): 0 = one shard
  /// per δ-closure of whole proxies; > 0 = an object-partitioned,
  /// LPT-balanced layout with exactly this many shards (may exceed the
  /// proxy count).  Never changes results.
  std::size_t shards = 0;
};

struct ClientFleetRunResult {
  /// The usual fleet-side accounting and proxy fidelity.
  FleetRunResult fleet;
  /// Fleet-wide client-observed metrics (hits, age, staleness, demand
  /// fills), merged in ascending global proxy id order.
  ClientMetrics clients;
  /// Per-proxy client metrics, indexed by global proxy id.
  std::vector<ClientMetrics> per_proxy_clients;
  /// Aggregate origin load, including the demand-fill split.  The pinned
  /// accounting invariant is
  ///   origin_load.origin_polls ==
  ///       origin_load.policy_polls() + origin_load.demand_fills.
  FleetOriginLoad origin_load;
  /// Fleet-wide successful-poll counts by cause, summed over every
  /// proxy's full record stream — the cross-check against the O(1)
  /// counters behind origin_load (causes.client_miss must equal
  /// origin_load.demand_fills).
  PollCauseCounts causes;
  /// Mutual-consistency evaluation of sampled read transactions
  /// (zero-initialised when transactions.rate == 0).
  TransactionStats transactions;
};

/// Run a fleet with client traffic over the traces.  The horizon is
/// fleet.base.duration when set, else the longest trace horizon.
ClientFleetRunResult run_fleet_client_temporal(
    const std::vector<UpdateTrace>& traces, const ClientFleetRunConfig& config);

}  // namespace broadway
