#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <unordered_map>

#include "client/read_transactions.h"
#include "consistency/function.h"
#include "consistency/heuristic.h"
#include "consistency/limd.h"
#include "consistency/partitioned.h"
#include "consistency/triggered.h"
#include "consistency/virtual_object.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "metrics/accounting.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/paper_workloads.h"
#include "util/rng.h"

namespace broadway::e2e {

namespace {

// Paper §6 settings shared by every workload.
constexpr Duration kDelta = minutes(10.0);      // Δt of every LIMD object
constexpr Duration kTtrMax = hours(1.0);
constexpr Duration kDeltaMutual = minutes(5.0);  // δ of every δ-group
constexpr Duration kRelayLatency = 5.0;
// Traced runs split the simulate phase into this many equal slices of
// simulated time, so the trace shows where in the run wall time goes.
constexpr int kSlices = 48;

// splitmix64 finaliser: independent sub-seeds from the one --seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Poisson update streams whose mean gaps are log-uniform between 2 min and
// 2 h.  The gaps are stratified: object i gets quantile slot[i] of the
// law, with the slots shuffled by the seed.  Every seed then offers the
// same total update rate, and seeds differ only in which object gets which
// rate and in the Poisson draws — a steadier load across seeds than
// independent draws of the rates.
std::vector<UpdateTrace> make_update_traces(std::uint64_t seed,
                                            const std::vector<std::string>& uris,
                                            Duration horizon) {
  const std::size_t n = uris.size();
  std::vector<std::size_t> slot(n);
  std::iota(slot.begin(), slot.end(), 0);
  Rng shuffle(mix(seed, 0));
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        shuffle.uniform_int(0, static_cast<std::int64_t>(i - 1)));
    std::swap(slot[i - 1], slot[j]);
  }
  const double log_lo = std::log(minutes(2.0));
  const double log_hi = std::log(hours(2.0));
  std::vector<UpdateTrace> traces;
  traces.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Rng rng(mix(seed, i + 1));
    const double quantile =
        (static_cast<double>(slot[i]) + 0.5) / static_cast<double>(n);
    const double mean_gap = std::exp(log_lo + quantile * (log_hi - log_lo));
    traces.emplace_back(uris[i], generate_poisson(rng, 1.0 / mean_gap, horizon),
                        horizon);
  }
  return traces;
}

std::vector<std::string> numbered(const std::string& prefix, std::size_t n) {
  std::vector<std::string> names;
  names.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    names.push_back(prefix + std::to_string(i));
  }
  return names;
}

OriginServer::Config origin_config() {
  OriginServer::Config config;
  config.history_limit = 0;      // the paper's unbounded history (§5.1)
  config.render_bodies = false;  // nothing reads payloads
  return config;
}

// LIMD policies with the paper's parameters; timer-wrapped when `stats`
// is set (traced runs).
ProxyFleet::PolicyFactory limd_factory(CallStatsPool* stats) {
  const LimdPolicy::Config config =
      LimdPolicy::Config::paper_defaults(kDelta, kTtrMax);
  return [config, stats]() -> std::unique_ptr<RefreshPolicy> {
    auto policy = std::make_unique<LimdPolicy>(config);
    if (stats == nullptr) return policy;
    return std::make_unique<TimedPolicy>(std::move(policy), stats->add());
  };
}

// Times phases and, in traced runs, records them as spans.
class PhaseClock {
 public:
  explicit PhaseClock(SpanLog* spans) : spans_(spans) {}

  template <typename Body>
  double time(const std::string& name, Body&& body) {
    const Clock::time_point begin = Clock::now();
    body();
    const Clock::time_point end = Clock::now();
    if (spans_ != nullptr) spans_->add(name, begin, end);
    return seconds_between(begin, end);
  }

 private:
  SpanLog* spans_;
};

// The simulate phase: one run_until(horizon) call, or kSlices calls over
// equal simulated-time slices in traced runs.
template <typename RunUntil>
void simulate(PhaseClock& clock, const RunOptions& options, Duration horizon,
              RunResult& result, RunUntil&& run_until) {
  result.simulate_s = clock.time("simulate", [&] {
    if (!options.traced) {
      run_until(horizon);
      return;
    }
    for (int k = 1; k <= kSlices; ++k) {
      const TimePoint edge = k == kSlices ? horizon : horizon * k / kSlices;
      result.slice_s.push_back(
          clock.time("simulate.slice", [&] { run_until(edge); }));
    }
  });
}

// FNV-1a over the bit patterns of the values fed to it.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char byte : bytes) {
      hash_ = (hash_ ^ byte) * 0x100000001b3ULL;
    }
  }
  void add(const OnlineStats& stats) {
    add(static_cast<std::uint64_t>(stats.count()));
    add(stats.mean());
    add(stats.variance());
    add(stats.min());
    add(stats.max());
    add(stats.sum());
  }
  void add(const ClientMetrics& m) {
    for (std::uint64_t counter :
         {m.requests, m.hits, m.misses, m.fresh, m.stale, m.demand_fills,
          m.dark_reads, m.dark_stale, m.dark_misses}) {
      add(counter);
    }
    add(m.age);
    add(m.staleness);
    add(m.fill_latency);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void expect(RunResult& result, std::string name, bool ok,
            const std::string& detail) {
  result.checks.push_back({std::move(name), ok, detail});
}

template <typename... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

// One pass over a (merged) record stream: digest every record bit-exactly,
// count records, 200-answered origin polls and triggered polls, and return
// the per-cause recount the ledger checks compare against the counters.
PollCauseCounts account_records(const std::vector<PollRecord>& records,
                                RunResult& result, Digest& digest) {
  for (const PollRecord& record : records) {
    digest.add(record.snapshot_time);
    digest.add(record.complete_time);
    digest.add(record.object);
    digest.add(static_cast<int>(record.cause));
    digest.add(record.modified);
    digest.add(record.failed);
    const bool origin_poll = record.cause != PollCause::kInitial &&
                             record.cause != PollCause::kRelay;
    if (!record.failed && origin_poll && record.modified) {
      ++result.useful_polls;
    }
  }
  const PollCauseCounts causes = count_by_cause(records);
  result.log_records = records.size();
  result.triggered_polls = causes.triggered;
  return causes;
}

// Counters and ledger checks shared by the fleet workloads (ProxyFleet
// and ShardedFleet expose the same accounting surface).
template <typename Fleet>
void account_fleet(const Fleet& fleet, std::size_t origin_requests,
                   const PollCauseCounts& causes, RunResult& result,
                   Digest& digest) {
  const FleetOriginLoad load = fleet.origin_load();
  result.origin_requests = origin_requests;
  result.origin_polls = fleet.origin_polls();
  result.failed_polls = load.failed;
  result.demand_fills = load.demand_fills;
  result.relays_sent = fleet.relays_sent();
  result.relays_delivered = fleet.relays_delivered();
  result.relays_applied = fleet.relays_applied();
  result.relays_lost = fleet.relays_lost();
  result.relays_retried = fleet.relays_retried();
  result.relays_dropped_dark = fleet.relays_dropped_dark();
  const std::size_t in_flight = fleet.relays_in_flight();
  for (std::uint64_t counter :
       {result.origin_requests, result.origin_polls, result.failed_polls,
        result.demand_fills, result.relays_sent, result.relays_delivered,
        result.relays_applied, result.relays_lost, result.relays_retried,
        result.relays_dropped_dark, static_cast<std::uint64_t>(in_flight)}) {
    digest.add(counter);
  }

  expect(result, "relay_ledger",
         result.relays_sent ==
             result.relays_delivered + in_flight + result.relays_lost,
         describe("sent ", result.relays_sent, ", delivered ",
                  result.relays_delivered, ", in flight ", in_flight,
                  ", lost ", result.relays_lost));
  expect(result, "origin_poll_ledger",
         result.origin_polls == causes.policy_polls() + causes.client_miss &&
             causes.client_miss == load.demand_fills,
         describe("origin polls ", result.origin_polls,
                  ", policy polls (recounted) ", causes.policy_polls(),
                  ", demand fills (recounted) ", causes.client_miss,
                  ", demand fills (counter) ", load.demand_fills));
  expect(result, "origin_requests",
         origin_requests == load.origin_messages,
         describe("served ", origin_requests, ", successful polls ",
                  load.origin_messages));
}

// Mean Eq. 14 fidelity of every trace at every proxy log.
double mean_fidelity(const std::vector<const PollLog*>& logs,
                     const std::vector<UpdateTrace>& traces,
                     Duration horizon) {
  double sum = 0.0;
  for (const PollLog* log : logs) {
    for (const UpdateTrace& trace : traces) {
      sum += evaluate_temporal_fidelity(
                 trace, successful_polls(*log, trace.name()), kDelta, horizon)
                 .fidelity_time();
    }
  }
  return sum / static_cast<double>(logs.size() * traces.size());
}

void add_modelled(RunResult& result, Digest& digest, const char* name,
                  double value) {
  result.modelled.emplace_back(name, value);
  digest.add(value);
}

// Members of cross-proxy δ-group g: four shared objects 4g..4g+3 on the
// distinct proxies g, g+2, g+4, g+6 (mod proxies).
std::vector<FleetMember> fleet_group(std::size_t g, std::size_t proxies,
                                     const std::vector<UpdateTrace>& shared) {
  std::vector<FleetMember> members;
  for (std::size_t k = 0; k < 4; ++k) {
    members.push_back({(g + 2 * k) % proxies, shared[4 * g + k].name()});
  }
  return members;
}

// ---- paper_mutual ---------------------------------------------------------

// The paper's own setting: one proxy, LIMD objects in δ-groups under the
// triggered and rate-heuristic coordinators, and value-domain pairs under
// the partitioned and virtual-object approaches.
class PaperMutual final : public Workload {
 public:
  PaperMutual(std::uint64_t seed, bool smoke)
      : horizon_(smoke ? hours(2.0) : hours(12.0)),
        traces_(make_update_traces(mix(seed, 1), numbered("/obj/", 8192),
                                   horizon_)) {
    for (std::size_t i = 0; i < 64; ++i) {
      att_.push_back(make_att_stock_trace(mix(seed, 2 * i + 2)));
      yahoo_.push_back(make_yahoo_stock_trace(mix(seed, 2 * i + 3)));
    }
  }

  RunResult run(const RunOptions& options, SpanLog* spans) const override {
    RunResult result;
    PhaseClock clock(spans);
    CallStatsPool policy_stats;
    CallStatsPool coordinator_stats;
    CallStatsPool* policies = options.traced ? &policy_stats : nullptr;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<OriginServer> origin;
    std::unique_ptr<PollingEngine> engine;

    result.build_s = clock.time("setup.build", [&] {
      sim = std::make_unique<Simulator>();
      origin = std::make_unique<OriginServer>(*sim, origin_config());
      for (const UpdateTrace& trace : traces_) {
        origin->attach_update_trace(trace.name(), trace);
      }
      for (std::size_t i = 0; i < att_.size(); ++i) {
        origin->attach_value_trace(att_uri(i), att_[i]);
        origin->attach_value_trace(yahoo_uri(i), yahoo_[i]);
      }
      engine = std::make_unique<PollingEngine>(*sim, *origin);
      const ProxyFleet::PolicyFactory make_policy = limd_factory(policies);
      for (const UpdateTrace& trace : traces_) {
        engine->add_temporal_object(trace.name(), make_policy());
      }
      for (std::size_t g = 0; g < groups(); ++g) {
        std::vector<std::string> members;
        for (std::size_t k = 0; k < kGroupSize; ++k) {
          members.push_back(traces_[kGroupSize * g + k].name());
        }
        std::unique_ptr<MutualCoordinator> coordinator;
        if (g % 2 == 0) {
          coordinator = std::make_unique<TriggeredPollCoordinator>(
              std::move(members), kDeltaMutual);
        } else {
          RateHeuristicCoordinator::Config config;
          config.delta_mutual = kDeltaMutual;
          coordinator = std::make_unique<RateHeuristicCoordinator>(
              std::move(members), config);
        }
        if (options.traced) {
          coordinator = std::make_unique<TimedCoordinator>(
              std::move(coordinator), coordinator_stats.add());
        }
        engine->add_coordinator(std::move(coordinator));
      }
      const TtrBounds value_bounds{30.0, 600.0};
      for (std::size_t i = 0; i < att_.size(); ++i) {
        std::vector<std::string> pair = {att_uri(i), yahoo_uri(i)};
        if (i % 2 == 0) {
          engine->add_partitioned_group(
              std::move(pair),
              std::make_unique<PartitionedTolerancePolicy>(
                  std::make_unique<DifferenceFunction>(),
                  PartitionedTolerancePolicy::Config::paper_defaults(
                      kValueDelta, value_bounds)));
        } else {
          engine->add_virtual_group(
              std::move(pair),
              std::make_unique<VirtualObjectPolicy>(
                  std::make_unique<DifferenceFunction>(),
                  VirtualObjectPolicy::Config::paper_defaults(kValueDelta,
                                                              value_bounds)));
        }
      }
    });
    result.start_s = clock.time("setup.start", [&] { engine->start(); });
    if (options.setup_only) return result;
    simulate(clock, options, horizon_, result,
             [&](TimePoint t) { sim->run_until(t); });

    double fidelity = 0.0;
    double mutual = 0.0;
    result.fidelity_s = clock.time("eval.fidelity", [&] {
      const PollLog& log = engine->poll_log();
      std::vector<std::vector<PollInstant>> polls;
      polls.reserve(traces_.size());
      for (const UpdateTrace& trace : traces_) {
        polls.push_back(successful_polls(log, trace.name()));
        fidelity += evaluate_temporal_fidelity(trace, polls.back(), kDelta,
                                               horizon_)
                        .fidelity_time();
      }
      fidelity /= static_cast<double>(traces_.size());
      // Mt fidelity of each group's adjacent member pairs.
      for (std::size_t g = 0; g < groups(); ++g) {
        for (std::size_t k = 0; k + 1 < kGroupSize; ++k) {
          const std::size_t a = kGroupSize * g + k;
          mutual += evaluate_mutual_temporal(traces_[a], polls[a],
                                             traces_[a + 1], polls[a + 1],
                                             kDeltaMutual, horizon_)
                        .fidelity_time();
        }
      }
      mutual /= static_cast<double>(groups() * (kGroupSize - 1));
    });

    Digest digest;
    const PollLog& log = engine->poll_log();
    const PollCauseCounts causes = account_records(log.records(), result, digest);
    result.origin_requests = origin->requests_served();
    result.origin_polls = engine->polls_performed();
    result.failed_polls = engine->failed_polls();
    result.demand_fills = engine->demand_fills();
    result.sim_events = sim->executed();
    result.policy = policy_stats.total();
    result.coordinator = coordinator_stats.total();
    digest.add(result.origin_requests);
    digest.add(result.origin_polls);
    add_modelled(result, digest, "fidelity", fidelity);
    add_modelled(result, digest, "mutual_fidelity", mutual);
    add_modelled(result, digest, "origin_polls",
                 static_cast<double>(result.origin_polls));
    result.digest = digest.value();

    expect(result, "origin_poll_ledger",
           result.origin_polls == causes.total_refreshes() &&
               causes.client_miss == result.demand_fills,
           describe("origin polls ", result.origin_polls,
                    ", recounted ", causes.total_refreshes()));
    expect(result, "origin_requests",
           result.origin_requests == log.initial_polls() + result.origin_polls,
           describe("served ", result.origin_requests, ", successful polls ",
                    log.initial_polls() + result.origin_polls));
    expect(result, "fidelity_range",
           fidelity > 0.0 && fidelity <= 1.0 && mutual > 0.0 && mutual <= 1.0,
           describe("fidelity ", fidelity, ", mutual ", mutual));
    return result;
  }

 private:
  static constexpr std::size_t kGroupSize = 8;
  static constexpr double kValueDelta = 1.0;  // Δv = $1

  std::size_t groups() const { return traces_.size() / kGroupSize; }
  static std::string att_uri(std::size_t i) {
    return "/value/att/" + std::to_string(i);
  }
  static std::string yahoo_uri(std::size_t i) {
    return "/value/yahoo/" + std::to_string(i);
  }

  Duration horizon_;
  std::vector<UpdateTrace> traces_;
  std::vector<ValueTrace> att_;
  std::vector<ValueTrace> yahoo_;
};

// ---- fleet_relay ----------------------------------------------------------

// A single-simulator cooperative fleet where every poll fans out delayed
// relays to every sibling: write-heavy on one event queue.
class FleetRelay final : public Workload {
 public:
  FleetRelay(std::uint64_t seed, bool smoke)
      : horizon_(smoke ? hours(1.0) : hours(4.0)),
        traces_(make_update_traces(mix(seed, 1), numbered("/shared/", 512),
                                   horizon_)) {}

  RunResult run(const RunOptions& options, SpanLog* spans) const override {
    RunResult result;
    PhaseClock clock(spans);
    CallStatsPool policy_stats;
    std::unique_ptr<Simulator> sim;
    std::unique_ptr<OriginServer> origin;
    std::unique_ptr<ProxyFleet> fleet;

    result.build_s = clock.time("setup.build", [&] {
      sim = std::make_unique<Simulator>();
      origin = std::make_unique<OriginServer>(*sim, origin_config());
      for (const UpdateTrace& trace : traces_) {
        origin->attach_update_trace(trace.name(), trace);
      }
      FleetConfig config;
      config.proxies = kProxies;
      config.cooperative_push = true;
      config.relay_latency = kRelayLatency;
      fleet = std::make_unique<ProxyFleet>(*sim, *origin, config);
      const ProxyFleet::PolicyFactory make_policy =
          limd_factory(options.traced ? &policy_stats : nullptr);
      for (const UpdateTrace& trace : traces_) {
        fleet->add_temporal_object_everywhere(trace.name(), make_policy);
      }
      for (std::size_t g = 0; g < 32; ++g) {
        fleet->add_delta_group(fleet_group(g, kProxies, traces_),
                               kDeltaMutual);
      }
    });
    result.start_s = clock.time("setup.start", [&] { fleet->start(); });
    if (options.setup_only) return result;
    simulate(clock, options, horizon_, result,
             [&](TimePoint t) { sim->run_until(t); });

    std::vector<const PollLog*> logs;
    for (std::size_t p = 0; p < kProxies; ++p) {
      logs.push_back(&fleet->proxy(p).poll_log());
    }
    std::vector<PollRecord> merged;
    result.merge_s = clock.time("eval.merge", [&] {
      std::vector<ProxyPollRecords> parts;
      for (std::size_t p = 0; p < kProxies; ++p) {
        parts.push_back({p, &logs[p]->records()});
      }
      merged = merge_poll_records(std::move(parts));
    });
    double fidelity = 0.0;
    result.fidelity_s = clock.time("eval.fidelity", [&] {
      fidelity = mean_fidelity(logs, traces_, horizon_);
    });

    Digest digest;
    const PollCauseCounts causes = account_records(merged, result, digest);
    account_fleet(*fleet, origin->requests_served(), causes, result, digest);
    result.sim_events = sim->executed();
    result.policy = policy_stats.total();
    add_modelled(result, digest, "fidelity", fidelity);
    add_modelled(result, digest, "origin_polls",
                 static_cast<double>(result.origin_polls));
    result.digest = digest.value();
    expect(result, "fidelity_range", fidelity > 0.0 && fidelity <= 1.0,
           describe("fidelity ", fidelity));
    return result;
  }

 private:
  static constexpr std::size_t kProxies = 8;
  Duration horizon_;
  std::vector<UpdateTrace> traces_;
};

// ---- sharded_faults -------------------------------------------------------

// The parallel sharded fleet on the object-partitioned layout, with proxy
// crashes, lossy jittered relays and retries.  Most polls are of private
// objects, so it sends little relay traffic per poll.
class ShardedFaults final : public Workload {
 public:
  ShardedFaults(std::uint64_t seed, bool smoke)
      : seed_(seed),
        horizon_(smoke ? hours(2.0) : hours(6.0)),
        private_(make_update_traces(mix(seed, 1), private_uris(), horizon_)),
        shared_(make_update_traces(mix(seed, 2), numbered("/shared/", 128),
                                   horizon_)) {}

  bool sharded() const override { return true; }

  RunResult run(const RunOptions& options, SpanLog* spans) const override {
    RunResult result;
    PhaseClock clock(spans);
    CallStatsPool policy_stats;
    std::unique_ptr<ShardedFleet> fleet;

    result.build_s = clock.time("setup.build", [&] {
      ShardedFleetConfig config;
      config.fleet.proxies = kProxies;
      config.fleet.cooperative_push = true;
      config.fleet.relay_latency = kRelayLatency;
      config.fleet.faults = faults();
      config.threads = options.threads == 0 ? 4 : options.threads;
      config.shards = 16;
      config.origin = origin_config();
      config.origin_setup = [this](OriginServer& origin) {
        for (const UpdateTrace& trace : private_) {
          origin.attach_update_trace(trace.name(), trace);
        }
        for (const UpdateTrace& trace : shared_) {
          origin.attach_update_trace(trace.name(), trace);
        }
      };
      fleet = std::make_unique<ShardedFleet>(std::move(config));
      const ProxyFleet::PolicyFactory make_policy =
          limd_factory(options.traced ? &policy_stats : nullptr);
      for (std::size_t i = 0; i < private_.size(); ++i) {
        fleet->add_temporal_object(i / kPrivatePerProxy, private_[i].name(),
                                   make_policy);
      }
      for (const UpdateTrace& trace : shared_) {
        fleet->add_temporal_object_everywhere(trace.name(), make_policy);
      }
      for (std::size_t g = 0; g < 32; ++g) {
        fleet->add_delta_group(fleet_group(g, kProxies, shared_),
                               kDeltaMutual);
      }
    });
    result.start_s = clock.time("setup.start", [&] { fleet->start(); });
    if (options.setup_only) return result;
    simulate(clock, options, horizon_, result,
             [&](TimePoint t) { fleet->run_until(t); });

    std::vector<PollRecord> merged;
    result.merge_s = clock.time("eval.merge", [&] {
      merged = fleet->merged_poll_records();
    });
    // A split proxy's records carry no proxy id, so shared objects (tracked
    // on every proxy) cannot be told apart in the merged stream: fidelity
    // covers the private objects, whose uris name their one proxy.
    double fidelity = 0.0;
    result.fidelity_s = clock.time("eval.fidelity", [&] {
      std::unordered_map<std::string, std::size_t> private_index;
      for (std::size_t i = 0; i < private_.size(); ++i) {
        private_index.emplace(private_[i].name(), i);
      }
      constexpr std::size_t kUnknown = static_cast<std::size_t>(-1);
      constexpr std::size_t kShared = kUnknown - 1;
      std::vector<std::size_t> trace_of_object;
      std::vector<std::vector<PollInstant>> polls(private_.size());
      for (const PollRecord& record : merged) {
        if (record.failed) continue;
        if (record.object >= trace_of_object.size()) {
          trace_of_object.resize(record.object + 1, kUnknown);
        }
        std::size_t& trace = trace_of_object[record.object];
        if (trace == kUnknown) {
          const auto it = private_index.find(record.uri);
          trace = it == private_index.end() ? kShared : it->second;
        }
        if (trace == kShared) continue;
        polls[trace].push_back({record.snapshot_time, record.complete_time});
      }
      for (std::size_t i = 0; i < private_.size(); ++i) {
        fidelity += evaluate_temporal_fidelity(private_[i], polls[i], kDelta,
                                               horizon_)
                        .fidelity_time();
      }
      fidelity /= static_cast<double>(private_.size());
    });

    Digest digest;
    const PollCauseCounts causes = account_records(merged, result, digest);
    account_fleet(*fleet, fleet->origin_requests(), causes, result, digest);
    result.shards = fleet->shard_count();
    result.threads = fleet->thread_count();
    result.policy = policy_stats.total();
    add_modelled(result, digest, "fidelity", fidelity);
    add_modelled(result, digest, "origin_polls",
                 static_cast<double>(result.origin_polls));
    result.digest = digest.value();
    expect(result, "fidelity_range", fidelity > 0.0 && fidelity <= 1.0,
           describe("fidelity ", fidelity));
    expect(result, "faults_fire",
           result.relays_lost > 0 && result.relays_retried > 0 &&
               result.relays_dropped_dark > 0,
           describe("lost ", result.relays_lost, ", retried ",
                    result.relays_retried, ", dropped dark ",
                    result.relays_dropped_dark));
    return result;
  }

 private:
  static constexpr std::size_t kProxies = 8;
  static constexpr std::size_t kPrivatePerProxy = 1024;

  static std::vector<std::string> private_uris() {
    std::vector<std::string> uris;
    for (std::size_t p = 0; p < kProxies; ++p) {
      for (const std::string& name :
           numbered("/p" + std::to_string(p) + "/", kPrivatePerProxy)) {
        uris.push_back(name);
      }
    }
    return uris;
  }

  FaultSchedule faults() const {
    FaultSchedule faults;
    const Duration outage = std::min(hours(1.0), horizon_ / 4.0);
    faults.crashes.push_back({1, {{0.3 * horizon_, 0.3 * horizon_ + outage}}});
    faults.crashes.push_back({5, {{0.6 * horizon_, 0.6 * horizon_ + outage}}});
    faults.relay_loss = 0.1;
    faults.relay_jitter_max = 0.5;
    faults.retry_backoff_base = 1.0;
    faults.retry_backoff_cap = 8.0;
    faults.relay_retry_limit = 4;
    faults.seed = mix(seed_, 3);
    return faults;
  }

  std::uint64_t seed_;
  Duration horizon_;
  std::vector<UpdateTrace> private_;
  std::vector<UpdateTrace> shared_;
};

// ---- client_reads ---------------------------------------------------------

// Read-dominated: open-loop Poisson clients (Zipf popularity, newsroom
// diurnal shape, session locality) on whole-proxy shards, with demand fill
// and lossy polls, plus offline cross-proxy read transactions.
class ClientReads final : public Workload {
 public:
  ClientReads(std::uint64_t seed, bool smoke)
      : seed_(seed),
        horizon_(smoke ? hours(1.0) : hours(4.0)),
        traces_(make_update_traces(mix(seed, 1), numbered("/obj/", 512),
                                   horizon_)) {}

  bool sharded() const override { return true; }
  bool has_clients() const override { return true; }

  RunResult run(const RunOptions& options, SpanLog* spans) const override {
    RunResult result;
    PhaseClock clock(spans);
    CallStatsPool policy_stats;
    std::unique_ptr<ShardedFleet> fleet;

    result.build_s = clock.time("setup.build", [&] {
      ShardedFleetConfig config;
      config.fleet.proxies = kProxies;
      config.fleet.cooperative_push = true;
      config.fleet.relay_latency = kRelayLatency;
      config.fleet.engine.loss_probability = 0.05;
      config.fleet.engine.demand_fill = true;
      config.fleet.engine.seed = mix(seed_, 2);
      if (options.clients) {
        ClientTrafficConfig clients;
        clients.request_rate = 100.0;
        clients.zipf_exponent = 0.9;
        clients.profile = DiurnalProfile::newsroom();
        clients.start_hour = 8.0;  // the morning ramp into the day peak
        clients.session_locality = 0.3;
        clients.session_objects = 4;
        clients.seed = mix(seed_, 3);
        config.fleet.client_traffic = clients;
      }
      config.threads = options.threads == 0 ? 4 : options.threads;
      config.origin = origin_config();
      config.origin_setup = [this](OriginServer& origin) {
        for (const UpdateTrace& trace : traces_) {
          origin.attach_update_trace(trace.name(), trace);
        }
      };
      fleet = std::make_unique<ShardedFleet>(std::move(config));
      const ProxyFleet::PolicyFactory make_policy =
          limd_factory(options.traced ? &policy_stats : nullptr);
      for (const UpdateTrace& trace : traces_) {
        fleet->add_temporal_object_everywhere(trace.name(), make_policy);
      }
    });
    result.start_s = clock.time("setup.start", [&] { fleet->start(); });
    if (options.setup_only) return result;
    simulate(clock, options, horizon_, result,
             [&](TimePoint t) { fleet->run_until(t); });

    std::vector<PollRecord> merged;
    ClientMetrics clients;
    result.merge_s = clock.time("eval.merge", [&] {
      merged = fleet->merged_poll_records();
      if (options.clients) clients = fleet->merged_client_metrics();
    });
    // Whole-proxy shards: every proxy is one engine, so per-proxy logs
    // are available for fidelity and transaction replay.
    std::vector<const PollLog*> logs;
    for (std::size_t p = 0; p < kProxies; ++p) {
      logs.push_back(&fleet->proxy(p).poll_log());
    }
    double fidelity = 0.0;
    result.fidelity_s = clock.time("eval.fidelity", [&] {
      fidelity = mean_fidelity(logs, traces_, horizon_);
    });
    TransactionStats transactions;
    result.transactions_s = clock.time("eval.transactions", [&] {
      ReadTransactionConfig config;
      config.rate = 0.05;
      config.objects = 3;
      // Every proxy polls at most ttr_max apart (rtt is 0) and relays
      // arrive within the relay latency: the δ at which a complete
      // transaction should never see a spread violation.
      config.delta = kTtrMax + kRelayLatency + 60.0;
      config.seed = mix(seed_, 4);
      transactions = evaluate_read_transactions(logs, config, horizon_);
    });

    Digest digest;
    const PollCauseCounts causes = account_records(merged, result, digest);
    account_fleet(*fleet, fleet->origin_requests(), causes, result, digest);
    digest.add(clients);
    for (std::size_t counter :
         {transactions.transactions, transactions.complete,
          transactions.incomplete, transactions.violations}) {
      digest.add(static_cast<std::uint64_t>(counter));
    }
    digest.add(transactions.spread);
    result.shards = fleet->shard_count();
    result.threads = fleet->thread_count();
    result.policy = policy_stats.total();
    result.client_requests = clients.requests;
    result.client_hits = clients.hits;
    result.client_fills = clients.demand_fills;
    result.client_dark_reads = clients.dark_reads;
    add_modelled(result, digest, "fidelity", fidelity);
    add_modelled(result, digest, "origin_polls",
                 static_cast<double>(result.origin_polls));
    if (options.clients) {
      add_modelled(result, digest, "stale_read_ratio",
                   static_cast<double>(clients.stale) /
                       static_cast<double>(clients.requests));
      add_modelled(result, digest, "txn_violation_ratio",
                   transactions.violation_rate());
      expect(result, "client_counters",
             clients.requests > 0 &&
                 clients.hits + clients.misses == clients.requests &&
                 clients.demand_fills == result.demand_fills,
             describe("requests ", clients.requests, ", hits ", clients.hits,
                      ", misses ", clients.misses, ", fills ",
                      clients.demand_fills, ", origin-side fills ",
                      result.demand_fills));
      expect(result, "transactions_complete", transactions.complete > 0,
             describe("complete transactions ", transactions.complete));
    }
    result.digest = digest.value();
    expect(result, "fidelity_range", fidelity > 0.0 && fidelity <= 1.0,
           describe("fidelity ", fidelity));
    return result;
  }

 private:
  static constexpr std::size_t kProxies = 4;
  std::uint64_t seed_;
  Duration horizon_;
  std::vector<UpdateTrace> traces_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_mutual", "fleet_relay", "sharded_faults", "client_reads"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke) {
  if (name == "paper_mutual") return std::make_unique<PaperMutual>(seed, smoke);
  if (name == "fleet_relay") return std::make_unique<FleetRelay>(seed, smoke);
  if (name == "sharded_faults") {
    return std::make_unique<ShardedFaults>(seed, smoke);
  }
  if (name == "client_reads") return std::make_unique<ClientReads>(seed, smoke);
  return nullptr;
}

}  // namespace broadway::e2e
