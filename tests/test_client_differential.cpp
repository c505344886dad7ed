// Client-traffic differential tests: the sharded fleet must reproduce
// the single-simulator fleet's client-side observations byte for byte.
//
// The poll-log differential (test_sharded_differential.cpp) pins the
// proxy-side streams; this file pins the layer above them — per-proxy
// ClientMetrics (including the floating-point OnlineStats), the merged
// fleet metrics, the recorded request streams, and the read-transaction
// evaluation derived from the logs — across {1, 2, 4, 8} worker threads.
// Client streams are seeded and tagged by global proxy id and read only
// shard-local state, so determinism holds by construction; these tests
// are the teeth.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client_metrics.h"
#include "client/client_traffic.h"
#include "client/read_transactions.h"
#include "consistency/limd.h"
#include "fleet/faults.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "golden_digest.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/diurnal.h"
#include "trace/update_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

constexpr Duration kHorizon = 9000.0;
constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};

UpdateTrace irregular_trace(const std::string& name, std::uint64_t seed,
                            Duration horizon) {
  Rng rng(seed);
  std::vector<TimePoint> updates;
  TimePoint t = 0.0;
  for (;;) {
    t += rng.uniform(40.0, 900.0);
    if (t >= horizon) break;
    updates.push_back(t);
  }
  return UpdateTrace(name, std::move(updates), horizon);
}

struct Topology {
  std::size_t proxies = 0;
  std::vector<UpdateTrace> traces;
};

Topology random_topology(std::uint64_t seed) {
  Rng rng(seed);
  Topology topo;
  topo.proxies = 3 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
  const std::size_t objects =
      2 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
  for (std::size_t o = 0; o < objects; ++o) {
    topo.traces.push_back(irregular_trace("/object/" + std::to_string(o),
                                          seed * 100 + o, kHorizon));
  }
  return topo;
}

FleetConfig fleet_config(std::size_t proxies, bool demand_fill = false,
                         const FaultSchedule& faults = {}) {
  FleetConfig config;
  config.proxies = proxies;
  config.faults = faults;
  config.cooperative_push = true;
  // Non-harmonic constants, as in the poll-log differential.
  config.relay_latency = 0.7;
  config.engine.rtt = 0.1;
  config.engine.loss_probability = 0.05;
  config.engine.retry_delay = 2.0;

  ClientTrafficConfig traffic;
  traffic.request_rate = 1.5;
  traffic.zipf_exponent = 0.9;
  traffic.profile = DiurnalProfile::newsroom();
  traffic.start_hour = 9.0;  // start inside the busy hours
  traffic.seed = 17;
  traffic.record_requests = true;
  if (demand_fill) {
    // The demand-fill sweep runs lossier with slow retries (long uncached
    // windows only a fill can close) and with per-client session locality
    // on, so the 3-draw request stream and the kClientMiss poll path both
    // cross the shard barrier.
    config.engine.demand_fill = true;
    config.engine.loss_probability = 0.25;
    config.engine.retry_delay = 600.0;
    traffic.session_locality = 0.3;
    traffic.session_objects = 3;
  }
  config.client_traffic = traffic;
  return config;
}

ProxyFleet::PolicyFactory limd_factory() {
  return [] {
    return std::make_unique<LimdPolicy>(
        LimdPolicy::Config::paper_defaults(600.0));
  };
}

struct Artifacts {
  std::vector<ClientMetrics> per_proxy;
  ClientMetrics merged;
  std::vector<ClientRequestRecord> records;
  TransactionStats transactions;
  FleetOriginLoad origin_load;
  PollCauseCounts causes;
  RelayLedger relays;
  std::size_t shards = 1;  // simulators the run was split across
};

// The origin-load invariant, cross-checked the non-tautological way: the
// O(1) counters behind FleetOriginLoad must agree with a recount of every
// proxy's full record stream, and the demand-fill split must balance.
void expect_origin_invariant(const Artifacts& artifacts) {
  const FleetOriginLoad& load = artifacts.origin_load;
  const PollCauseCounts& causes = artifacts.causes;
  EXPECT_EQ(causes.client_miss, load.demand_fills);
  EXPECT_EQ(causes.total_refreshes(), load.origin_polls);
  EXPECT_EQ(causes.scheduled + causes.triggered + causes.retry,
            load.policy_polls());
  EXPECT_EQ(load.origin_polls, load.policy_polls() + load.demand_fills);
  EXPECT_EQ(causes.failed, load.failed);
  // Client-side and proxy-side accounting of the same fills agree.
  EXPECT_EQ(artifacts.merged.demand_fills, load.demand_fills);
}

ReadTransactionConfig transaction_config() {
  ReadTransactionConfig config;
  config.rate = 0.05;
  config.objects = 3;
  config.delta = 300.0;
  config.seed = 23;
  return config;
}

template <typename Fleet>
TransactionStats evaluate_transactions(Fleet& fleet) {
  std::vector<const PollLog*> logs;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    logs.push_back(&fleet.proxy(p).poll_log());
  }
  return evaluate_read_transactions(logs, transaction_config(), kHorizon);
}

template <typename Fleet>
void collect_origin_accounting(Fleet& fleet, Artifacts& artifacts) {
  artifacts.origin_load = fleet.origin_load();
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    artifacts.causes.merge(count_by_cause(fleet.proxy(p).poll_log()));
  }
  artifacts.relays = fleet.relays();
}

Artifacts reference_run(const Topology& topo, Duration horizon,
                        bool demand_fill = false,
                        const FaultSchedule& faults = {}) {
  Simulator sim;
  OriginServer origin(sim);
  for (const UpdateTrace& trace : topo.traces) {
    origin.attach_update_trace(trace.name(), trace);
  }
  ProxyFleet fleet(sim, origin,
                   fleet_config(topo.proxies, demand_fill, faults));
  const auto factory = limd_factory();
  for (const UpdateTrace& trace : topo.traces) {
    fleet.add_temporal_object_everywhere(trace.name(), factory);
  }
  fleet.start();
  sim.run_until(horizon);

  Artifacts artifacts;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    artifacts.per_proxy.push_back(fleet.client_traffic().metrics(p));
  }
  artifacts.merged = fleet.merged_client_metrics();
  artifacts.records = fleet.merged_client_records();
  artifacts.transactions = evaluate_transactions(fleet);
  collect_origin_accounting(fleet, artifacts);
  return artifacts;
}

Artifacts sharded_run(const Topology& topo, std::size_t threads,
                      Duration horizon, std::size_t shards = 0,
                      bool demand_fill = false,
                      const FaultSchedule& faults = {}) {
  ShardedFleetConfig config;
  config.fleet = fleet_config(topo.proxies, demand_fill, faults);
  config.threads = threads;
  config.shards = shards;
  config.origin_setup = [traces = topo.traces](OriginServer& origin) {
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
    }
  };
  ShardedFleet fleet(std::move(config));
  const auto factory = limd_factory();
  for (const UpdateTrace& trace : topo.traces) {
    fleet.add_temporal_object_everywhere(trace.name(), factory);
  }
  fleet.start();
  fleet.run_until(horizon);

  Artifacts artifacts;
  artifacts.shards = fleet.shard_count();
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    artifacts.per_proxy.push_back(fleet.client_metrics(p));
  }
  artifacts.merged = fleet.merged_client_metrics();
  artifacts.records = fleet.merged_client_records();
  artifacts.transactions = evaluate_transactions(fleet);
  collect_origin_accounting(fleet, artifacts);
  return artifacts;
}

// Every double compared with ==: the bar is byte-identical, not close.
void expect_stats_identical(const OnlineStats& a, const OnlineStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  EXPECT_EQ(a.sum(), b.sum());
}

void expect_metrics_identical(const ClientMetrics& a, const ClientMetrics& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.fresh, b.fresh);
  EXPECT_EQ(a.stale, b.stale);
  EXPECT_EQ(a.demand_fills, b.demand_fills);
  EXPECT_EQ(a.dark_reads, b.dark_reads);
  EXPECT_EQ(a.dark_stale, b.dark_stale);
  EXPECT_EQ(a.dark_misses, b.dark_misses);
  expect_stats_identical(a.age, b.age);
  expect_stats_identical(a.staleness, b.staleness);
  expect_stats_identical(a.fill_latency, b.fill_latency);
}

void expect_artifacts_identical(const Artifacts& reference,
                                const Artifacts& candidate) {
  ASSERT_EQ(reference.per_proxy.size(), candidate.per_proxy.size());
  for (std::size_t p = 0; p < reference.per_proxy.size(); ++p) {
    SCOPED_TRACE("proxy " + std::to_string(p));
    expect_metrics_identical(reference.per_proxy[p], candidate.per_proxy[p]);
  }
  expect_metrics_identical(reference.merged, candidate.merged);

  ASSERT_EQ(reference.records.size(), candidate.records.size());
  for (std::size_t i = 0; i < reference.records.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const ClientRequestRecord& a = reference.records[i];
    const ClientRequestRecord& b = candidate.records[i];
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.proxy, b.proxy);
    EXPECT_EQ(a.client, b.client);
    EXPECT_EQ(a.object, b.object);
    EXPECT_EQ(a.read.hit, b.read.hit);
    EXPECT_EQ(a.read.fresh, b.read.fresh);
    EXPECT_EQ(a.read.filled, b.read.filled);
    EXPECT_EQ(a.read.dark, b.read.dark);
    EXPECT_EQ(a.read.fill_latency, b.read.fill_latency);
    EXPECT_EQ(a.read.snapshot, b.read.snapshot);
    EXPECT_EQ(a.read.age, b.read.age);
    EXPECT_EQ(a.read.staleness, b.read.staleness);
  }

  EXPECT_EQ(reference.transactions.transactions,
            candidate.transactions.transactions);
  EXPECT_EQ(reference.transactions.complete, candidate.transactions.complete);
  EXPECT_EQ(reference.transactions.incomplete,
            candidate.transactions.incomplete);
  EXPECT_EQ(reference.transactions.violations,
            candidate.transactions.violations);
  expect_stats_identical(reference.transactions.spread,
                         candidate.transactions.spread);

  EXPECT_EQ(reference.origin_load.origin_messages,
            candidate.origin_load.origin_messages);
  EXPECT_EQ(reference.origin_load.origin_polls,
            candidate.origin_load.origin_polls);
  EXPECT_EQ(reference.origin_load.relay_refreshes,
            candidate.origin_load.relay_refreshes);
  EXPECT_EQ(reference.origin_load.demand_fills,
            candidate.origin_load.demand_fills);
  EXPECT_EQ(reference.origin_load.failed, candidate.origin_load.failed);
  EXPECT_EQ(reference.causes.initial, candidate.causes.initial);
  EXPECT_EQ(reference.causes.scheduled, candidate.causes.scheduled);
  EXPECT_EQ(reference.causes.triggered, candidate.causes.triggered);
  EXPECT_EQ(reference.causes.retry, candidate.causes.retry);
  EXPECT_EQ(reference.causes.relay, candidate.causes.relay);
  EXPECT_EQ(reference.causes.client_miss, candidate.causes.client_miss);
  EXPECT_EQ(reference.causes.failed, candidate.causes.failed);
  EXPECT_EQ(reference.relays, candidate.relays);
}

TEST(ClientDifferential, ByteIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {13u, 29u}) {
    SCOPED_TRACE("topology seed " + std::to_string(seed));
    const Topology topo = random_topology(seed);
    const Artifacts reference = reference_run(topo, kHorizon);
    // The workload must actually exercise the interesting paths.
    ASSERT_GT(reference.merged.requests, 0u);
    ASSERT_GT(reference.merged.hits, 0u);
    ASSERT_GT(reference.transactions.complete, 0u);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      expect_artifacts_identical(reference,
                                 sharded_run(topo, threads, kHorizon));
    }
  }
}

// Client streams read the whole cache of their proxy, so a partitioned
// layout pins each proxy's pairs to one slice (the layout may still pack
// several proxies per shard).  It must leave every client-side
// observation byte-identical.
TEST(ClientDifferential, PartitionSweepIsByteIdentical) {
  const std::uint64_t seed = 29u;
  SCOPED_TRACE("topology seed " + std::to_string(seed));
  const Topology topo = random_topology(seed);
  const Artifacts reference = reference_run(topo, kHorizon);
  ASSERT_GT(reference.merged.requests, 0u);
  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    expect_artifacts_identical(
        reference, sharded_run(topo, threads, kHorizon, topo.proxies + 3));
  }
}

// The tentpole differential: with demand fills and session locality on,
// every client-side and origin-side artifact — including the kClientMiss
// poll stream and its relay fan-out — stays byte-identical across thread
// counts and partitioned shard layouts (shards > proxies), and the
// origin-load invariant holds in every configuration.  The window edge's
// client-candidate fold (ShardedFleet folds next_client_fire into
// shard_send_bound when fills are on) is exactly the code under test
// here.
TEST(ClientDifferential, DemandFillSweepIsByteIdenticalWithInvariant) {
  for (const std::uint64_t seed : {13u, 29u}) {
    SCOPED_TRACE("topology seed " + std::to_string(seed));
    const Topology topo = random_topology(seed);
    const Artifacts reference =
        reference_run(topo, kHorizon, /*demand_fill=*/true);
    // The workload must actually demand-fill, and filled reads stay
    // misses (hits + misses == requests is the client-side ledger).
    ASSERT_GT(reference.merged.demand_fills, 0u);
    ASSERT_EQ(reference.merged.hits + reference.merged.misses,
              reference.merged.requests);
    expect_origin_invariant(reference);

    // Demand filling must strictly reduce the client miss count on the
    // same topology and seeds (the fills-off run differs only in the
    // engine knob; locality stays on so the request streams match).
    FleetConfig off_config = fleet_config(topo.proxies, true);
    off_config.engine.demand_fill = false;
    {
      Simulator sim;
      OriginServer origin(sim);
      for (const UpdateTrace& trace : topo.traces) {
        origin.attach_update_trace(trace.name(), trace);
      }
      ProxyFleet off_fleet(sim, origin, off_config);
      const auto factory = limd_factory();
      for (const UpdateTrace& trace : topo.traces) {
        off_fleet.add_temporal_object_everywhere(trace.name(), factory);
      }
      off_fleet.start();
      sim.run_until(kHorizon);
      const ClientMetrics off = off_fleet.merged_client_metrics();
      EXPECT_EQ(off.demand_fills, 0u);
      EXPECT_LT(reference.merged.misses, off.misses);
    }

    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      for (const std::size_t shards : {std::size_t{0}, topo.proxies + 3}) {
        SCOPED_TRACE(std::to_string(shards) + " shards");
        const Artifacts run = sharded_run(topo, threads, kHorizon, shards,
                                          /*demand_fill=*/true);
        expect_artifacts_identical(reference, run);
        expect_origin_invariant(run);
      }
    }
  }
}

// Fault injection, seen from the client's seat: with crash windows on
// two proxies, relay loss, jitter and capped-backoff retries layered on
// the demand-fill workload, every client-side artifact — including the
// dark-read degradation counters and the per-record dark flags — and the
// relay fault ledger must stay byte-identical across thread counts,
// whole-proxy and partitioned layouts.  Client
// traffic keeps each proxy whole, so per-proxy metrics stay comparable
// even under the partitioned request.
TEST(ClientDifferential, FaultInjectionSweepIsByteIdentical) {
  FaultSchedule faults;
  faults.crashes.push_back({0, {{2500.0, 3600.0}, {6800.0, 7500.0}}});
  faults.crashes.push_back({1, {{4700.0, 5600.0}}});
  faults.relay_loss = 0.1;
  faults.relay_jitter_max = 0.3;
  faults.retry_backoff_base = 1.0;
  faults.retry_backoff_cap = 8.0;
  faults.relay_retry_limit = 4;

  const std::uint64_t seed = 13u;
  SCOPED_TRACE("topology seed " + std::to_string(seed));
  const Topology topo = random_topology(seed);
  const Artifacts reference =
      reference_run(topo, kHorizon, /*demand_fill=*/true, faults);
  // The outages must actually degrade service — reads served dark,
  // stale hits among them, losses retried.  (Dark *misses* need a cold
  // cache at crash time; test_fleet_faults pins that classification
  // with a purpose-built cold-start scenario.)
  ASSERT_GT(reference.merged.dark_reads, 0u);
  ASSERT_GT(reference.merged.dark_stale, 0u);
  ASSERT_GT(reference.relays.lost, 0u);
  ASSERT_GT(reference.relays.retried, 0u);
  EXPECT_EQ(reference.merged.hits + reference.merged.misses,
            reference.merged.requests);
  EXPECT_TRUE(reference.relays.balanced());
  // Dark reads never demand-fill: every recorded dark read is unfilled.
  for (const ClientRequestRecord& record : reference.records) {
    if (record.read.dark) {
      EXPECT_FALSE(record.read.filled);
    }
  }

  for (const std::size_t threads : kThreadCounts) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (const std::size_t shards : {std::size_t{0}, topo.proxies + 3}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      expect_artifacts_identical(
          reference, sharded_run(topo, threads, kHorizon, shards,
                                 /*demand_fill=*/true, faults));
    }
  }
}

// ---- golden digests --------------------------------------------------------

// The differentials above compare two fleet drivers that share the client
// traffic layer, so a change inside that layer moves both sides alike.
// These runs pin the layer's output to bit-exact digests (golden_digest.h)
// captured while every candidate arrival was still its own simulator
// event.  Both run the full client feature set: recorded requests, demand
// fills, lossy polls, crash windows, session locality and the newsroom
// profile.
FaultSchedule golden_faults() {
  FaultSchedule faults;
  faults.crashes.push_back({0, {{2500.0, 3600.0}, {6800.0, 7500.0}}});
  faults.crashes.push_back({2, {{4700.0, 5600.0}}});
  faults.relay_loss = 0.1;
  faults.relay_jitter_max = 0.3;
  faults.retry_backoff_base = 1.0;
  faults.retry_backoff_cap = 8.0;
  faults.relay_retry_limit = 4;
  return faults;
}

std::uint64_t client_digest(const Artifacts& artifacts) {
  Digest digest;
  for (const ClientMetrics& metrics : artifacts.per_proxy) {
    digest.client_metrics(metrics);
  }
  digest.client_metrics(artifacts.merged);
  digest.client_records(artifacts.records);
  digest.u64(artifacts.origin_load.origin_polls);
  digest.u64(artifacts.origin_load.demand_fills);
  digest.u64(artifacts.origin_load.failed);
  digest.u64(artifacts.relays.sent);
  digest.u64(artifacts.relays.applied);
  digest.u64(artifacts.relays.lost);
  return digest.value();
}

void expect_full_feature_run(const Artifacts& run) {
  ASSERT_GT(run.records.size(), 0u);
  EXPECT_EQ(run.records.size(), run.merged.requests);
  EXPECT_GT(run.merged.demand_fills, 0u);
  EXPECT_GT(run.merged.dark_reads, 0u);
  EXPECT_GT(run.origin_load.failed, 0u);
}

TEST(ClientGolden, SingleSimulatorFleet) {
  const Topology topo = random_topology(29);
  const Artifacts run =
      reference_run(topo, kHorizon, /*demand_fill=*/true, golden_faults());
  expect_full_feature_run(run);
  EXPECT_EQ(client_digest(run), 0x9a24f5b3cc0e905bULL);
}

TEST(ClientGolden, FourShardFleet) {
  Topology topo = random_topology(13);
  topo.proxies = 4;
  const Artifacts run = sharded_run(topo, /*threads=*/4, kHorizon,
                                    /*shards=*/0, /*demand_fill=*/true,
                                    golden_faults());
  ASSERT_EQ(run.shards, 4u);
  expect_full_feature_run(run);
  EXPECT_EQ(client_digest(run), 0xd162d388132ebaf9ULL);
}

}  // namespace
}  // namespace broadway
