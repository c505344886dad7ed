#include "harness/experiments.h"

#include <algorithm>
#include <memory>

#include "consistency/fixed_poll.h"
#include "consistency/heuristic.h"
#include "consistency/limd.h"
#include "consistency/triggered.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace broadway {

namespace {

LimdPolicy::Config make_limd_config(const TemporalRunConfig& config) {
  LimdPolicy::Config out = LimdPolicy::Config::paper_defaults(
      config.delta, config.ttr_max);
  out.linear_increase = config.linear_increase;
  out.epsilon = config.epsilon;
  out.adaptive_m = config.adaptive_m;
  out.multiplicative_decrease = config.multiplicative_decrease;
  out.detection = config.detection;
  out.read_boost = config.read_boost;
  return out;
}

OriginServer::Config make_origin_config(bool history_enabled) {
  OriginServer::Config config;
  config.history_enabled = history_enabled;
  // "A modification history of arbitrary length" (§5.1): unlimited —
  // the proxy polls often enough that entries stay small.
  config.history_limit = 0;
  return config;
}

/// Horizon of a run: the explicit duration when set, else the longest
/// trace.  Fidelity over one trace is always evaluated up to
/// min(trace horizon, run horizon) — never past the ground truth.
Duration scenario_horizon(const ScenarioBase& scenario,
                          const std::vector<UpdateTrace>& traces) {
  if (scenario.duration > 0.0) return scenario.duration;
  Duration horizon = 0.0;
  for (const UpdateTrace& trace : traces) {
    horizon = std::max(horizon, trace.duration());
  }
  return horizon;
}

TemporalRunResult run_temporal(const UpdateTrace& trace,
                               std::unique_ptr<RefreshPolicy> policy,
                               Duration delta,
                               const ScenarioBase& scenario,
                               bool origin_history) {
  Simulator sim;
  OriginServer origin(sim, make_origin_config(origin_history));
  PollingEngine engine(sim, origin, scenario.engine);
  engine.set_poll_log_retention(scenario.poll_log_retention);

  origin.attach_update_trace(trace.name(), trace);
  engine.add_temporal_object(trace.name(), std::move(policy));
  engine.start();
  const Duration horizon =
      scenario.duration > 0.0 ? scenario.duration : trace.duration();
  sim.run_until(horizon);

  const ObjectId object = origin.object_id(trace.name());
  TemporalRunResult result;
  result.polls = engine.poll_log().polls_performed(object);
  result.fidelity = evaluate_temporal_fidelity(
      trace, successful_polls(engine.poll_log(), trace.name()), delta,
      std::min(trace.duration(), horizon));
  result.ttr_series = engine.ttr_series(object);
  return result;
}

}  // namespace

TemporalRunResult run_limd_individual(const UpdateTrace& trace,
                                      const TemporalRunConfig& config) {
  return run_temporal(trace,
                      std::make_unique<LimdPolicy>(make_limd_config(config)),
                      config.delta, config, config.origin_history);
}

TemporalRunResult run_baseline_individual(const UpdateTrace& trace,
                                          Duration delta,
                                          EngineConfig engine) {
  ScenarioBase scenario;
  scenario.engine = engine;
  return run_temporal(trace, std::make_unique<FixedPollPolicy>(delta), delta,
                      scenario, /*origin_history=*/true);
}

MutualTemporalRunResult run_mutual_temporal(
    const UpdateTrace& trace_a, const UpdateTrace& trace_b,
    const MutualTemporalRunConfig& config) {
  Simulator sim;
  OriginServer origin(sim, make_origin_config(config.base.origin_history));
  PollingEngine engine(sim, origin, config.base.engine);
  engine.set_poll_log_retention(config.base.poll_log_retention);

  origin.attach_update_trace(trace_a.name(), trace_a);
  origin.attach_update_trace(trace_b.name(), trace_b);
  engine.add_temporal_object(
      trace_a.name(),
      std::make_unique<LimdPolicy>(make_limd_config(config.base)));
  engine.add_temporal_object(
      trace_b.name(),
      std::make_unique<LimdPolicy>(make_limd_config(config.base)));

  const std::vector<std::string> members = {trace_a.name(), trace_b.name()};
  switch (config.approach) {
    case MutualApproach::kBaseline:
      engine.add_coordinator(std::make_unique<NullCoordinator>());
      break;
    case MutualApproach::kTriggered:
      engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
          members, config.delta_mutual));
      break;
    case MutualApproach::kHeuristic: {
      RateHeuristicCoordinator::Config heuristic;
      heuristic.delta_mutual = config.delta_mutual;
      heuristic.similarity = config.similarity;
      engine.add_coordinator(std::make_unique<RateHeuristicCoordinator>(
          members, heuristic));
      break;
    }
  }

  // Evaluate the pair over the window both traces cover (or the explicit
  // scenario duration, capped at that window for ground-truth fidelity).
  const Duration covered = std::min(trace_a.duration(), trace_b.duration());
  const Duration run_horizon =
      config.base.duration > 0.0 ? config.base.duration : covered;
  const Duration horizon = std::min(covered, run_horizon);
  engine.start();
  sim.run_until(run_horizon);

  MutualTemporalRunResult result;
  result.polls = engine.polls_performed();
  result.triggered = engine.triggered_polls();
  const auto polls_a = successful_polls(engine.poll_log(), trace_a.name());
  const auto polls_b = successful_polls(engine.poll_log(), trace_b.name());
  result.mutual = evaluate_mutual_temporal(
      trace_a, polls_a, trace_b, polls_b, config.delta_mutual, horizon);
  result.individual_a = evaluate_temporal_fidelity(trace_a, polls_a,
                                                   config.base.delta, horizon);
  result.individual_b = evaluate_temporal_fidelity(trace_b, polls_b,
                                                   config.base.delta, horizon);
  result.poll_log = engine.poll_log().records();
  result.object_a = engine.uri_table().find(trace_a.name());
  result.object_b = engine.uri_table().find(trace_b.name());
  return result;
}

ValueRunResult run_value_individual(const ValueTrace& trace,
                                    const ValueRunConfig& config) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin, config.engine);
  engine.set_poll_log_retention(config.poll_log_retention);

  origin.attach_value_trace(trace.name(), trace);
  AdaptiveValueTtrPolicy::Config policy;
  policy.delta = config.delta;
  policy.bounds = config.bounds;
  policy.smoothing_w = config.smoothing_w;
  policy.alpha = config.alpha;
  engine.add_value_object(trace.name(), policy);
  engine.start();
  const Duration horizon =
      config.duration > 0.0 ? std::min(config.duration, trace.duration())
                            : trace.duration();
  sim.run_until(horizon);

  ValueRunResult result;
  result.polls =
      engine.poll_log().polls_performed(origin.object_id(trace.name()));
  result.fidelity = evaluate_value_fidelity(
      trace, successful_polls(engine.poll_log(), trace.name()),
      config.delta, horizon);
  return result;
}

MutualValueRunResult run_mutual_value(const ValueTrace& trace_a,
                                      const ValueTrace& trace_b,
                                      const MutualValueRunConfig& config) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin, config.engine);
  engine.set_poll_log_retention(config.poll_log_retention);

  origin.attach_value_trace(trace_a.name(), trace_a);
  origin.attach_value_trace(trace_b.name(), trace_b);
  const std::vector<std::string> members = {trace_a.name(), trace_b.name()};

  switch (config.approach) {
    case MutualValueApproach::kAdaptive: {
      VirtualObjectPolicy::Config policy =
          VirtualObjectPolicy::Config::paper_defaults(config.delta,
                                                      config.bounds);
      policy.smoothing_w = config.smoothing_w;
      policy.alpha = config.alpha;
      engine.add_virtual_group(
          members, std::make_unique<VirtualObjectPolicy>(
                       std::make_unique<DifferenceFunction>(), policy));
      break;
    }
    case MutualValueApproach::kPartitioned: {
      PartitionedTolerancePolicy::Config policy =
          PartitionedTolerancePolicy::Config::paper_defaults(config.delta,
                                                             config.bounds);
      policy.smoothing_w = config.smoothing_w;
      policy.alpha = config.alpha;
      engine.add_partitioned_group(
          members, std::make_unique<PartitionedTolerancePolicy>(
                       std::make_unique<DifferenceFunction>(), policy));
      break;
    }
  }

  const Duration covered = std::min(trace_a.duration(), trace_b.duration());
  const Duration horizon =
      config.duration > 0.0 ? std::min(config.duration, covered) : covered;
  engine.start();
  sim.run_until(horizon);

  MutualValueRunResult result;
  result.polls = engine.polls_performed();
  const auto polls_a = successful_polls(engine.poll_log(), trace_a.name());
  const auto polls_b = successful_polls(engine.poll_log(), trace_b.name());
  const DifferenceFunction difference;
  result.mutual = evaluate_mutual_value(trace_a, polls_a, trace_b, polls_b,
                                        difference, config.delta, horizon);
  if (config.collect_series) {
    result.series = mutual_value_series(trace_a, polls_a, trace_b, polls_b,
                                        difference, horizon);
  }
  return result;
}

namespace {

FleetConfig make_fleet_config(const FleetRunConfig& config) {
  FleetConfig fleet_config;
  fleet_config.proxies = config.proxies;
  fleet_config.cooperative_push = config.cooperative_push;
  fleet_config.relay_latency = config.relay_latency;
  fleet_config.engine = config.base.engine;
  fleet_config.poll_log_retention = config.base.poll_log_retention;
  fleet_config.faults = config.faults;
  return fleet_config;
}

/// Shared fleet-side accounting + fidelity evaluation; works on both
/// ProxyFleet and ShardedFleet (identical accessor surface).
template <typename Fleet>
FleetRunResult summarize_fleet(Fleet& fleet, std::size_t origin_requests,
                               const std::vector<UpdateTrace>& traces,
                               const FleetRunConfig& config,
                               Duration horizon) {
  FleetRunResult result;
  result.origin_requests = origin_requests;
  result.origin_polls = fleet.origin_polls();
  result.origin_polls_per_second =
      fleet.origin_load().polls_per_second(horizon);
  result.relays = fleet.relays();
  result.dark_time = config.faults.total_dark_time(horizon);

  double sum_time = 0.0, sum_violations = 0.0;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    for (const UpdateTrace& trace : traces) {
      const auto polls =
          successful_polls(fleet.proxy(p).poll_log(), trace.name());
      const TemporalFidelityReport report = evaluate_temporal_fidelity(
          trace, polls, config.base.delta,
          std::min(trace.duration(), horizon));
      sum_time += report.fidelity_time();
      sum_violations += report.fidelity_violations();
      result.min_fidelity_time =
          std::min(result.min_fidelity_time, report.fidelity_time());
    }
  }
  const double pairs =
      static_cast<double>(fleet.size()) * static_cast<double>(traces.size());
  result.mean_fidelity_time = sum_time / pairs;
  result.mean_fidelity_violations = sum_violations / pairs;
  return result;
}

}  // namespace

FleetRunResult run_fleet_temporal(const std::vector<UpdateTrace>& traces,
                                  const FleetRunConfig& config) {
  BROADWAY_CHECK_MSG(!traces.empty(), "fleet run needs >= 1 trace");
  Simulator sim;
  OriginServer origin(sim, make_origin_config(config.base.origin_history));
  ProxyFleet fleet(sim, origin, make_fleet_config(config));

  for (const UpdateTrace& trace : traces) {
    origin.attach_update_trace(trace.name(), trace);
    fleet.add_temporal_object_everywhere(trace.name(), [&config] {
      return std::make_unique<LimdPolicy>(make_limd_config(config.base));
    });
  }
  const Duration horizon = scenario_horizon(config.base, traces);
  fleet.start();
  sim.run_until(horizon);

  return summarize_fleet(fleet, origin.requests_served(), traces, config,
                         horizon);
}

ClientFleetRunResult run_fleet_client_temporal(
    const std::vector<UpdateTrace>& traces,
    const ClientFleetRunConfig& config) {
  BROADWAY_CHECK_MSG(!traces.empty(), "fleet run needs >= 1 trace");
  const Duration horizon = scenario_horizon(config.fleet.base, traces);

  // One seed pins the run: the engine keeps EngineConfig::seed, while the
  // stochastic layers above it derive from the scenario seed.
  FleetConfig fleet_config = make_fleet_config(config.fleet);
  ClientTrafficConfig client = config.client;
  client.seed = config.fleet.base.seed;
  fleet_config.client_traffic = client;
  ReadTransactionConfig transactions = config.transactions;
  transactions.seed = config.fleet.base.seed + 1;
  if (transactions.rate > 0.0) {
    BROADWAY_CHECK_MSG(config.fleet.base.poll_log_retention == 0,
                       "read transactions need full poll logs");
  }

  const auto add_objects = [&traces, &config](auto& fleet) {
    for (const UpdateTrace& trace : traces) {
      fleet.add_temporal_object_everywhere(trace.name(), [&config] {
        return std::make_unique<LimdPolicy>(
            make_limd_config(config.fleet.base));
      });
    }
  };
  const auto evaluate_transactions = [&](auto& fleet) {
    TransactionStats stats;
    if (transactions.rate <= 0.0) return stats;
    std::vector<const PollLog*> logs;
    logs.reserve(fleet.size());
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      logs.push_back(&fleet.proxy(p).poll_log());
    }
    return evaluate_read_transactions(logs, transactions, horizon);
  };

  ClientFleetRunResult result;
  // Origin load (O(1) counters) plus the per-record cause breakdown; the
  // two must agree on the demand-fill split — callers pin
  //   origin_load.origin_polls == policy_polls() + demand_fills
  // against causes computed from the full record streams.  Client traffic
  // pins every proxy to a single slice, so per-proxy log access is safe
  // in the sharded branch too.
  const auto summarize_load = [&result](auto& fleet) {
    result.origin_load = fleet.origin_load();
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      result.causes.merge(count_by_cause(fleet.proxy(p).poll_log()));
    }
  };
  if (config.threads <= 1) {
    Simulator sim;
    OriginServer origin(sim,
                        make_origin_config(config.fleet.base.origin_history));
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
    }
    ProxyFleet fleet(sim, origin, fleet_config);
    add_objects(fleet);
    fleet.start();
    sim.run_until(horizon);

    result.fleet = summarize_fleet(fleet, origin.requests_served(), traces,
                                   config.fleet, horizon);
    result.clients = fleet.merged_client_metrics();
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      result.per_proxy_clients.push_back(fleet.client_traffic().metrics(p));
    }
    summarize_load(fleet);
    result.transactions = evaluate_transactions(fleet);
  } else {
    ShardedFleetConfig sharded;
    sharded.fleet = fleet_config;
    sharded.threads = config.threads;
    sharded.shards = config.shards;
    sharded.origin = make_origin_config(config.fleet.base.origin_history);
    sharded.origin_setup = [&traces](OriginServer& origin) {
      for (const UpdateTrace& trace : traces) {
        origin.attach_update_trace(trace.name(), trace);
      }
    };
    ShardedFleet fleet(std::move(sharded));
    add_objects(fleet);
    fleet.start();
    fleet.run_until(horizon);

    result.fleet = summarize_fleet(fleet, fleet.origin_requests(), traces,
                                   config.fleet, horizon);
    result.clients = fleet.merged_client_metrics();
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      result.per_proxy_clients.push_back(fleet.client_metrics(p));
    }
    summarize_load(fleet);
    result.transactions = evaluate_transactions(fleet);
  }
  return result;
}

}  // namespace broadway
