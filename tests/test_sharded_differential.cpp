// Sharded-vs-single-simulator differential tests.
//
// ShardedFleet partitions the fleet across per-shard simulators and runs
// them on worker threads with conservative-lookahead windows; exactly
// like routed-vs-broadcast before it, the single-simulator ProxyFleet is
// the differential reference.  These tests run randomized topologies
// under {1, 2, 4, 8} threads and assert byte-identical per-proxy poll
// logs, TTR series, merged record streams and fleet counters —
// determinism at any thread count is the acceptance bar, not statistical
// closeness.
//
// The workloads use adaptive (LIMD) policies and non-harmonic constants
// (relay latency != rtt != retry delay), so same-instant collisions
// between unrelated proxies' event chains — where the reference's global
// FIFO order is not reproducible from per-event metadata — have measure
// zero.  Fixed-TTL fleets with harmonically related periods can
// manufacture such ties; the sharded driver's ordering contract (fire
// time, schedule time, owner tag, source seq) is documented in
// src/fleet/sharded_fleet.h.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/client_traffic.h"
#include "consistency/limd.h"
#include "fleet/faults.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "metrics/accounting.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

constexpr Duration kHorizon = 12000.0;
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

/// A fleet topology: traces, who tracks what, δ-groups.  Both the
/// reference and the sharded run are built from the same instance, with
/// registrations in the same order.
struct Topology {
  std::size_t proxies = 0;
  std::vector<UpdateTrace> traces;
  std::vector<std::pair<std::size_t, std::string>> tracked;
  std::vector<std::pair<std::vector<FleetMember>, Duration>> groups;
};

Topology random_topology(std::uint64_t seed) {
  Rng rng(seed);
  Topology topo;
  topo.proxies = 3 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
  const std::size_t objects = 3 + static_cast<std::size_t>(
                                      rng.uniform(0.0, 2.0));
  for (std::size_t o = 0; o < objects; ++o) {
    topo.traces.push_back(irregular_trace("/object/" + std::to_string(o),
                                          seed * 100 + o, kHorizon));
  }
  // Tracking matrix: every proxy tracks a random subset (never empty;
  // every object has at least one tracker by construction of the first
  // proxy's row).
  for (std::size_t p = 0; p < topo.proxies; ++p) {
    bool any = false;
    for (std::size_t o = 0; o < objects; ++o) {
      if (p == 0 || rng.uniform(0.0, 1.0) < 0.7) {
        topo.tracked.push_back({p, topo.traces[o].name()});
        any = true;
      }
    }
    if (!any) topo.tracked.push_back({p, topo.traces[0].name()});
  }
  // Two private objects per proxy, tracked nowhere else: they never send
  // or receive a relay, so under object partitioning they are the pairs
  // free to leave their proxy's push unit and fill the extra shards.
  for (std::size_t p = 0; p < topo.proxies; ++p) {
    for (std::size_t k = 0; k < 2; ++k) {
      topo.traces.push_back(
          irregular_trace("/private/" + std::to_string(p) + "/" +
                              std::to_string(k),
                          seed * 1000 + p * 10 + k, kHorizon));
      topo.tracked.push_back({p, topo.traces.back().name()});
    }
  }
  // Zero, one or two δ-groups over proxies that track the group's uri.
  const std::size_t group_count =
      static_cast<std::size_t>(rng.uniform(0.0, 3.0));
  for (std::size_t g = 0; g < group_count; ++g) {
    const std::string& uri =
        topo.traces[static_cast<std::size_t>(
                        rng.uniform(0.0, static_cast<double>(objects)))]
            .name();
    std::vector<FleetMember> members;
    for (std::size_t p = 0; p < topo.proxies; ++p) {
      const bool tracks = [&] {
        for (const auto& entry : topo.tracked) {
          if (entry.first == p && entry.second == uri) return true;
        }
        return false;
      }();
      if (tracks && rng.uniform(0.0, 1.0) < 0.6) {
        members.push_back({p, uri});
      }
    }
    if (members.size() >= 2) {
      topo.groups.push_back({std::move(members), 400.0});
    }
  }
  return topo;
}

FleetConfig fleet_config(std::size_t proxies, bool clients = false,
                         const FaultSchedule& faults = {}) {
  FleetConfig config;
  config.faults = faults;
  config.proxies = proxies;
  config.cooperative_push = true;
  // Non-harmonic constants: the relay latency (= lookahead window) must
  // not equal the rtt or the retry delay, or same-instant (fire,
  // schedule) collisions between deliveries and unrelated local events
  // become possible — see the file comment.
  config.relay_latency = 0.7;
  config.engine.rtt = 0.1;
  config.engine.loss_probability = 0.05;
  config.engine.retry_delay = 2.0;
  if (clients) {
    // Client traffic with demand fills: lossy with slow retries (long
    // uncached windows only a fill can close), so kClientMiss polls and
    // their relay fan-out carry real traffic through the poll logs.
    config.engine.demand_fill = true;
    config.engine.loss_probability = 0.25;
    config.engine.retry_delay = 600.0;
    ClientTrafficConfig traffic;
    traffic.request_rate = 1.5;
    traffic.zipf_exponent = 0.9;
    traffic.seed = 17;
    traffic.session_locality = 0.3;
    traffic.session_objects = 3;
    config.client_traffic = traffic;
  }
  return config;
}

ShardedFleet::PolicyFactory limd_factory() {
  return [] {
    return std::make_unique<LimdPolicy>(
        LimdPolicy::Config::paper_defaults(600.0));
  };
}

/// Everything a run produces, keyed by global proxy id.
struct Artifacts {
  std::vector<std::vector<PollRecord>> records_by_proxy;
  std::vector<std::vector<std::pair<TimePoint, Duration>>> ttr_series;
  std::vector<PollRecord> merged;
  std::size_t origin_requests = 0;
  std::size_t origin_polls = 0;
  RelayLedger relays;
  FleetOriginLoad load;
};

Artifacts reference_run(const Topology& topo, Duration horizon,
                        bool clients = false,
                        const FaultSchedule& faults = {}) {
  Simulator sim;
  OriginServer origin(sim);
  for (const UpdateTrace& trace : topo.traces) {
    origin.attach_update_trace(trace.name(), trace);
  }
  ProxyFleet fleet(sim, origin, fleet_config(topo.proxies, clients, faults));
  const auto factory = limd_factory();
  for (const auto& [proxy, uri] : topo.tracked) {
    fleet.add_temporal_object(proxy, uri, factory());
  }
  for (const auto& [members, delta] : topo.groups) {
    fleet.add_delta_group(members, delta);
  }
  fleet.start();
  sim.run_until(horizon);

  Artifacts artifacts;
  std::vector<ProxyPollRecords> logs;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    artifacts.records_by_proxy.push_back(
        fleet.proxy(p).poll_log().records());
    for (const UpdateTrace& trace : topo.traces) {
      artifacts.ttr_series.push_back(fleet.proxy(p).ttr_series(trace.name()));
    }
    logs.push_back({p, &fleet.proxy(p).poll_log().records()});
  }
  artifacts.merged = merge_poll_records(std::move(logs));
  artifacts.origin_requests = origin.requests_served();
  artifacts.origin_polls = fleet.origin_polls();
  artifacts.relays = fleet.relays();
  artifacts.load = fleet.origin_load();
  return artifacts;
}

ShardedFleetConfig sharded_config(const Topology& topo, std::size_t threads,
                                  std::size_t shards = 0, bool clients = false,
                                  const FaultSchedule& faults = {}) {
  ShardedFleetConfig config;
  config.fleet = fleet_config(topo.proxies, clients, faults);
  config.threads = threads;
  config.shards = shards;
  config.origin_setup = [traces = topo.traces](OriginServer& origin) {
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
    }
  };
  return config;
}

std::unique_ptr<ShardedFleet> make_sharded(const Topology& topo,
                                           std::size_t threads,
                                           std::size_t shards = 0,
                                           bool clients = false,
                                           const FaultSchedule& faults = {}) {
  auto fleet = std::make_unique<ShardedFleet>(
      sharded_config(topo, threads, shards, clients, faults));
  const auto factory = limd_factory();
  for (const auto& [proxy, uri] : topo.tracked) {
    fleet->add_temporal_object(proxy, uri, factory);
  }
  for (const auto& [members, delta] : topo.groups) {
    fleet->add_delta_group(members, delta);
  }
  return fleet;
}

/// Artifacts of a finished sharded run (every proxy must be unsplit).
Artifacts collect(const ShardedFleet& fleet, const Topology& topo) {
  Artifacts artifacts;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    artifacts.records_by_proxy.push_back(fleet.proxy(p).poll_log().records());
    for (const UpdateTrace& trace : topo.traces) {
      artifacts.ttr_series.push_back(fleet.proxy(p).ttr_series(trace.name()));
    }
  }
  artifacts.merged = fleet.merged_poll_records();
  artifacts.origin_requests = fleet.origin_requests();
  artifacts.origin_polls = fleet.origin_polls();
  artifacts.relays = fleet.relays();
  artifacts.load = fleet.origin_load();
  return artifacts;
}

Artifacts sharded_run(const Topology& topo, std::size_t threads,
                      Duration horizon) {
  auto fleet = make_sharded(topo, threads);
  fleet->start();
  fleet->run_until(horizon);
  return collect(*fleet, topo);
}

void expect_records_identical(const std::vector<PollRecord>& a,
                              const std::vector<PollRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].uri, b[i].uri);
    EXPECT_EQ(a[i].object, b[i].object);
    EXPECT_EQ(a[i].cause, b[i].cause);
    EXPECT_EQ(a[i].modified, b[i].modified);
    EXPECT_EQ(a[i].failed, b[i].failed);
    EXPECT_EQ(a[i].snapshot_time, b[i].snapshot_time);
    EXPECT_EQ(a[i].complete_time, b[i].complete_time);
  }
}

void expect_artifacts_identical(const Artifacts& reference,
                                const Artifacts& candidate) {
  ASSERT_EQ(reference.records_by_proxy.size(),
            candidate.records_by_proxy.size());
  for (std::size_t p = 0; p < reference.records_by_proxy.size(); ++p) {
    SCOPED_TRACE("proxy " + std::to_string(p));
    expect_records_identical(reference.records_by_proxy[p],
                             candidate.records_by_proxy[p]);
  }
  EXPECT_EQ(reference.ttr_series, candidate.ttr_series);
  expect_records_identical(reference.merged, candidate.merged);
  EXPECT_EQ(reference.origin_requests, candidate.origin_requests);
  EXPECT_EQ(reference.origin_polls, candidate.origin_polls);
  EXPECT_EQ(reference.relays, candidate.relays);
  EXPECT_EQ(reference.load.origin_messages, candidate.load.origin_messages);
  EXPECT_EQ(reference.load.origin_polls, candidate.load.origin_polls);
  EXPECT_EQ(reference.load.relay_refreshes, candidate.load.relay_refreshes);
  EXPECT_EQ(reference.load.demand_fills, candidate.load.demand_fills);
  EXPECT_EQ(reference.load.failed, candidate.load.failed);
}

// A possibly partition-split sharded run against the reference.  A split
// proxy has no per-proxy log (fail-fast accessors), so the per-proxy
// comparison covers unsplit proxies and the merged stream pins the rest.
void expect_partitioned_identical(const Artifacts& reference,
                                  const ShardedFleet& fleet,
                                  const Topology& topo) {
  expect_records_identical(reference.merged, fleet.merged_poll_records());
  for (std::size_t p = 0; p < topo.proxies; ++p) {
    if (fleet.slice_count(p) != 1) continue;
    SCOPED_TRACE("proxy " + std::to_string(p));
    expect_records_identical(reference.records_by_proxy[p],
                             fleet.proxy(p).poll_log().records());
  }
  EXPECT_EQ(reference.origin_requests, fleet.origin_requests());
  EXPECT_EQ(reference.origin_polls, fleet.origin_polls());
  EXPECT_EQ(reference.relays, fleet.relays());
  const FleetOriginLoad load = fleet.origin_load();
  EXPECT_EQ(reference.load.origin_messages, load.origin_messages);
  EXPECT_EQ(reference.load.origin_polls, load.origin_polls);
  EXPECT_EQ(reference.load.relay_refreshes, load.relay_refreshes);
  EXPECT_EQ(reference.load.failed, load.failed);
}

// The origin-load counters recounted from the merged record stream: the
// pinned invariant origin_polls == policy polls + demand fills, checked
// against the full per-record causes rather than its own O(1) mirrors.
void expect_load_matches_records(const Artifacts& artifacts) {
  const PollCauseCounts counts = count_by_cause(artifacts.merged);
  EXPECT_EQ(counts.client_miss, artifacts.load.demand_fills);
  EXPECT_EQ(counts.total_refreshes(), artifacts.load.origin_polls);
  EXPECT_EQ(counts.scheduled + counts.triggered + counts.retry,
            artifacts.load.policy_polls());
  EXPECT_EQ(counts.failed, artifacts.load.failed);
  EXPECT_EQ(artifacts.load.origin_polls,
            artifacts.load.policy_polls() + artifacts.load.demand_fills);
}

// A fault schedule that exercises every injected failure mode at once:
// two proxies with outage windows (proxy 0 twice, so re-crash after a
// recovery is covered), relay loss heavy enough to retry constantly, and
// latency jitter below the base relay latency (jittered deliveries stay
// inside the conservative window-safety argument).  Constants stay
// non-harmonic with the fleet's 0.7/0.1/2.0 trio.
FaultSchedule heavy_faults() {
  FaultSchedule faults;
  faults.crashes.push_back({0, {{3000.0, 4500.0}, {8600.0, 9400.0}}});
  faults.crashes.push_back({2, {{5300.0, 6400.0}}});
  faults.relay_loss = 0.12;
  faults.relay_jitter_max = 0.37;
  faults.retry_backoff_base = 1.3;
  faults.retry_backoff_cap = 11.0;
  faults.relay_retry_limit = 4;
  return faults;
}

// ---- the differential ------------------------------------------------------

TEST(ShardedDifferential, ByteIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("topology seed " + std::to_string(seed));
    const Topology topo = random_topology(seed);
    const Artifacts reference = reference_run(topo, kHorizon);
    ASSERT_FALSE(reference.merged.empty());
    EXPECT_GT(reference.relays.delivered, 0u);
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      expect_artifacts_identical(reference,
                                 sharded_run(topo, threads, kHorizon));
    }
  }
}

// Same seed, different thread schedules: the merged stream depends only
// on the topology, never on the interleaving of the workers.
TEST(ShardedDifferential, MergeOrderIsThreadScheduleIndependent) {
  const Topology topo = random_topology(5);
  const Artifacts two = sharded_run(topo, 2, kHorizon);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const Artifacts eight = sharded_run(topo, 8, kHorizon);
    expect_records_identical(two.merged, eight.merged);
  }
}

// δ-group members must land on one shard (their coordination is
// synchronous); ungrouped proxies shard freely.
TEST(ShardedDifferential, DeltaGroupsAreColocated) {
  Topology topo;
  topo.proxies = 5;
  for (std::size_t o = 0; o < 3; ++o) {
    topo.traces.push_back(irregular_trace("/object/" + std::to_string(o),
                                          900 + o, kHorizon));
  }
  for (std::size_t p = 0; p < topo.proxies; ++p) {
    for (const UpdateTrace& trace : topo.traces) {
      topo.tracked.push_back({p, trace.name()});
    }
  }
  // One group spanning proxies 1 and 3; proxies 0, 2, 4 stay free.
  topo.groups.push_back(
      {{{1, topo.traces[0].name()}, {3, topo.traces[0].name()}}, 500.0});

  auto fleet = make_sharded(topo, 4);
  fleet->start();
  EXPECT_EQ(fleet->shard_count(), 4u);  // {0}, {1,3}, {2}, {4}
  EXPECT_EQ(fleet->shard_of(1), fleet->shard_of(3));
  EXPECT_NE(fleet->shard_of(0), fleet->shard_of(1));
  fleet->run_until(kHorizon);
  expect_artifacts_identical(reference_run(topo, kHorizon),
                             collect(*fleet, topo));
}

// ---- object-partitioned shard maps ----------------------------------------

// The shard map is a pure performance knob: legacy whole-proxy maps
// (shards = 0) and object-partitioned maps with more shards than the
// fleet has proxies must both reproduce the reference run exactly, at
// every thread count.
// A split proxy has no single per-proxy log (its
// slices are merged on demand), so the comparison pins the merged
// stream, every unsplit proxy's log, and the fleet counters.
TEST(ShardedDifferential, PartitionSweepIsByteIdentical) {
  for (const std::uint64_t seed : {7u, 39u}) {
    SCOPED_TRACE("topology seed " + std::to_string(seed));
    const Topology topo = random_topology(seed);
    const Artifacts reference = reference_run(topo, kHorizon);
    ASSERT_FALSE(reference.merged.empty());
    EXPECT_GT(reference.relays.delivered, 0u);
    for (const std::size_t shards : {std::size_t{0}, topo.proxies + 3}) {
      for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(std::to_string(shards) + " shards, " +
                     std::to_string(threads) + " threads");
        auto fleet = make_sharded(topo, threads, shards);
        fleet->start();
        if (shards > 0) {
          // A requested count above the proxy count must actually be
          // honoured: more shards than proxies, at least one proxy
          // split across shards.
          EXPECT_GT(fleet->shard_count(), topo.proxies);
          bool any_split = false;
          for (std::size_t p = 0; p < topo.proxies; ++p) {
            if (fleet->slice_count(p) > 1) any_split = true;
          }
          EXPECT_TRUE(any_split);
        }
        fleet->run_until(kHorizon);
        expect_partitioned_identical(reference, *fleet, topo);
      }
    }
  }
}

// The fault-injection acceptance bar: with crash/recovery windows, relay
// loss, latency jitter, capped-backoff retries and δ-group failover all
// active at once, every artifact — per-proxy poll logs, TTR series, the
// merged record stream, origin load, and the full fault ledger — must
// reproduce byte-identically across thread counts and whole-proxy and
// partitioned shard layouts.  Under heavy_faults() topology 23 sends no
// cross-shard relay in either layout: the crash and failover colocation
// rules put every relaying pair on one shard, and the partitioned
// layout's extra shards hold only private pairs that never relay.  So
// this test covers the window edge's folds of pending same-shard relay
// retries and crash/recovery transitions, not cross-shard retries;
// FaultyRunPausesAndResumesExactly (topology 19) covers those.
TEST(ShardedDifferential, FaultInjectionSweepIsByteIdentical) {
  const FaultSchedule faults = heavy_faults();
  const std::uint64_t seed = 23u;
  SCOPED_TRACE("topology seed " + std::to_string(seed));
  const Topology topo = random_topology(seed);
  const Artifacts reference =
      reference_run(topo, kHorizon, /*clients=*/false, faults);
  ASSERT_FALSE(reference.merged.empty());
  // The schedule must actually bite in the reference run: losses,
  // retries, and relays dropped at a dark destination all occur.
  EXPECT_GT(reference.relays.lost, 0u);
  EXPECT_GT(reference.relays.retried, 0u);
  EXPECT_GT(reference.relays.dropped_dark, 0u);
  EXPECT_TRUE(reference.relays.balanced());
  for (const std::size_t shards : {std::size_t{0}, topo.proxies + 3}) {
    for (const std::size_t threads : kThreadCounts) {
      SCOPED_TRACE(std::to_string(shards) + " shards, " +
                   std::to_string(threads) + " threads");
      auto fleet =
          make_sharded(topo, threads, shards, /*clients=*/false, faults);
      fleet->start();
      fleet->run_until(kHorizon);
      expect_partitioned_identical(reference, *fleet, topo);
      EXPECT_TRUE(fleet->relays().balanced());
    }
  }
}

// Demand fills go through the shared poll pipeline, so with client
// traffic and demand_fill on the *poll-log* differential must still hold:
// kClientMiss records, their sibling relays and the full cause breakdown
// reproduce byte-identically at every thread count and with an
// object-partitioned shard request.  Client-bearing
// proxies are whole colocation units (a split proxy cannot serve one
// client stream from two slices), so unlike the clientless sweep this
// test does not expect any proxy to split — it expects the *results* to
// survive the request.
TEST(ShardedDifferential, DemandFillClientSweepIsByteIdentical) {
  for (const std::uint64_t seed : {7u, 39u}) {
    SCOPED_TRACE("topology seed " + std::to_string(seed));
    const Topology topo = random_topology(seed);
    const Artifacts reference =
        reference_run(topo, kHorizon, /*clients=*/true);
    ASSERT_FALSE(reference.merged.empty());
    ASSERT_GT(reference.load.demand_fills, 0u);
    expect_load_matches_records(reference);
    for (const std::size_t shards : {std::size_t{0}, topo.proxies + 3}) {
      for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE(std::to_string(shards) + " shards, " +
                     std::to_string(threads) + " threads");
        auto fleet = make_sharded(topo, threads, shards, /*clients=*/true);
        fleet->start();
        fleet->run_until(kHorizon);
        const Artifacts candidate = collect(*fleet, topo);
        expect_artifacts_identical(reference, candidate);
        expect_load_matches_records(candidate);
      }
    }
  }
}

// Per-proxy accessors on a split proxy cannot pick a slice — the contract
// is a fail-fast CHECK pointing at the merged views, not a partial log.
TEST(ShardedDifferential, SplitProxyPerProxyAccessorsFailFast) {
  const Topology topo = random_topology(7);
  auto fleet = make_sharded(topo, 2, topo.proxies + 3);
  fleet->start();
  std::size_t split = topo.proxies;
  for (std::size_t p = 0; p < topo.proxies; ++p) {
    if (fleet->slice_count(p) > 1) split = p;
  }
  ASSERT_LT(split, topo.proxies) << "topology did not split any proxy";
  EXPECT_THROW(fleet->proxy(split), CheckFailure);
  EXPECT_THROW(fleet->shard_of(split), CheckFailure);
}

// ---- in-flight relays (counter exactness at barriers / sweep end) ----------

TEST(ShardedDifferential, InFlightRelaysDrainExactlyAcrossHorizons) {
  const Topology topo = random_topology(31);
  // Stop mid-window at an hour that is no multiple of anything: relays
  // in flight there must be counted, not dropped, and extending the run
  // must deliver every one of them.
  const Duration partial = 7777.7;
  auto fleet = make_sharded(topo, 4);
  fleet->start();
  fleet->run_until(partial);
  EXPECT_TRUE(fleet->relays().balanced());
  EXPECT_EQ(fleet->relays().lost, 0u);
  fleet->run_until(kHorizon);
  // Horizon is far past the last send + latency: everything drained.
  const RelayLedger drained = fleet->relays();
  EXPECT_TRUE(drained.balanced());
  EXPECT_EQ(drained.lost, 0u);
  EXPECT_EQ(drained.in_flight, 0u);

  // And the two-stage run is byte-identical to the straight one — the
  // pause neither reorders nor loses anything.
  const Artifacts straight = sharded_run(topo, 4, kHorizon);
  std::vector<PollRecord> merged = fleet->merged_poll_records();
  expect_records_identical(straight.merged, merged);
  EXPECT_EQ(straight.relays, drained);
  const FleetOriginLoad straight_load = straight.load;
  const FleetOriginLoad paused_load = fleet->origin_load();
  EXPECT_EQ(straight_load.origin_messages, paused_load.origin_messages);
  EXPECT_EQ(straight_load.origin_polls, paused_load.origin_polls);
  EXPECT_EQ(straight_load.relay_refreshes, paused_load.relay_refreshes);
  EXPECT_EQ(straight_load.failed, paused_load.failed);
}

// Object-partitioned maps keep the same counter exactness: pausing
// mid-window never loses a message, and the resumed run merges to the
// same stream.
TEST(ShardedDifferential, PartitionedInFlightRelaysDrainExactly) {
  const Topology topo = random_topology(31);
  const Artifacts straight = sharded_run(topo, 4, kHorizon);
  auto fleet = make_sharded(topo, 4, topo.proxies + 2);
  fleet->start();
  fleet->run_until(7777.7);
  EXPECT_TRUE(fleet->relays().balanced());
  EXPECT_EQ(fleet->relays().lost, 0u);
  fleet->run_until(kHorizon);
  const RelayLedger drained = fleet->relays();
  EXPECT_TRUE(drained.balanced());
  EXPECT_EQ(drained.lost, 0u);
  EXPECT_EQ(drained.in_flight, 0u);
  expect_records_identical(straight.merged, fleet->merged_poll_records());
}

// A faulty run paused mid-window, with cross-shard relays in the
// mailboxes and a lost attempt still waiting out its backoff: the ledger
// balances at the pause, and the resumed run reproduces the straight one
// exactly, in both layouts.  Topology 19 keeps proxies on several shards
// under heavy_faults() (the crash colocation rules fold topology 23's
// relaying pairs onto one), so the straight run is also the faulty
// cross-shard differential against the one-simulator reference.
TEST(ShardedDifferential, FaultyRunPausesAndResumesExactly) {
  const FaultSchedule faults = heavy_faults();
  const Topology topo = random_topology(19);
  const Artifacts reference =
      reference_run(topo, kHorizon, /*clients=*/false, faults);
  // No relay exhausts its retries, so at any instant a lost attempt not
  // yet retried is a pending retry.
  EXPECT_EQ(reference.relays.lost, reference.relays.retried);
  for (const std::size_t shards : {std::size_t{0}, topo.proxies + 3}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    auto straight = make_sharded(topo, 4, shards, /*clients=*/false, faults);
    straight->start();
    EXPECT_GT(straight->shard_count(), 1u);
    straight->run_until(kHorizon);
    expect_partitioned_identical(reference, *straight, topo);

    auto paused = make_sharded(topo, 4, shards, /*clients=*/false, faults);
    paused->start();
    paused->run_until(3777.77);
    const RelayLedger at_pause = paused->relays();
    EXPECT_TRUE(at_pause.balanced());
    EXPECT_GT(at_pause.in_flight, 0u);
    EXPECT_GT(at_pause.lost, at_pause.retried);
    paused->run_until(kHorizon);
    expect_records_identical(straight->merged_poll_records(),
                             paused->merged_poll_records());
    EXPECT_EQ(straight->relays(), paused->relays());
    EXPECT_TRUE(paused->relays().balanced());
  }
}

// ---- fail-fast contracts ---------------------------------------------------

TEST(ShardedDifferential, CrossShardPushRequiresPositiveLatency) {
  Topology topo = random_topology(11);
  topo.groups.clear();  // ungrouped: every proxy is its own shard
  ShardedFleetConfig config = sharded_config(topo, 2);
  config.fleet.relay_latency = 0.0;  // no lookahead window
  ShardedFleet fleet(config);
  const auto factory = limd_factory();
  for (const auto& [proxy, uri] : topo.tracked) {
    fleet.add_temporal_object(proxy, uri, factory);
  }
  EXPECT_THROW(fleet.start(), CheckFailure);
}

TEST(ShardedDifferential, RegistrationAfterStartIsRejected) {
  const Topology topo = random_topology(11);
  auto fleet = make_sharded(topo, 1);
  fleet->start();
  EXPECT_THROW(
      fleet->add_temporal_object(0, topo.traces[0].name(), limd_factory()),
      CheckFailure);
}

// Every shard reads one origin content: the setup callback runs once,
// whatever the shard count, and the run still reproduces the reference.
TEST(ShardedDifferential, OriginSetupRunsOnce) {
  const Topology topo = random_topology(23);
  const Artifacts reference = reference_run(topo, kHorizon);
  for (const std::size_t shards : {1u, 4u, 16u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ShardedFleetConfig config = sharded_config(topo, 4, shards);
    auto calls = std::make_shared<int>(0);
    config.origin_setup = [setup = config.origin_setup,
                           calls](OriginServer& origin) {
      ++*calls;
      setup(origin);
    };
    ShardedFleet fleet(config);
    const auto factory = limd_factory();
    for (const auto& [proxy, uri] : topo.tracked) {
      fleet.add_temporal_object(proxy, uri, factory);
    }
    for (const auto& [members, delta] : topo.groups) {
      fleet.add_delta_group(members, delta);
    }
    EXPECT_EQ(*calls, 0);  // not before start()
    fleet.start();
    if (shards > 1) {
      EXPECT_GT(fleet.shard_count(), 1u);
    }
    fleet.run_until(kHorizon);
    EXPECT_EQ(*calls, 1);
    expect_partitioned_identical(reference, fleet, topo);
  }
}

// The shared content is frozen at start(): a late attach or object would
// change what other shards' readers see mid-run, so it fails loudly.
TEST(ShardedDifferential, AttachAfterStartIsRejected) {
  const Topology topo = random_topology(11);
  ShardedFleetConfig config = sharded_config(topo, 2, 4);
  OriginServer* shared = nullptr;
  config.origin_setup = [setup = config.origin_setup,
                         &shared](OriginServer& origin) {
    shared = &origin;
    setup(origin);
  };
  ShardedFleet fleet(config);
  const auto factory = limd_factory();
  for (const auto& [proxy, uri] : topo.tracked) {
    fleet.add_temporal_object(proxy, uri, factory);
  }
  fleet.start();
  ASSERT_NE(shared, nullptr);
  const UpdateTrace& first = topo.traces.front();
  EXPECT_THROW(shared->attach_update_trace(first.name(), first),
               CheckFailure);
  EXPECT_THROW(shared->attach_update_trace(
                   "/late", UpdateTrace("/late", {1.0}, kHorizon)),
               CheckFailure);
  EXPECT_THROW(shared->add_object("/late"), CheckFailure);
}

}  // namespace
}  // namespace broadway
