// Cooperative-push relay fan-out: golden digests and a work gate.
//
// Every relayable poll fans out to every sibling tracking the uri.  With a
// relay latency and no faults, the whole fan-out is one message and one
// delivery event that delivers to each destination in ascending local
// index — the order in which per-destination events, scheduled back to
// back at one instant, used to fire.  These tests pin that equivalence:
//
//  * golden digests (golden_digest.h) of a tie-heavy fleet, run on one
//    simulator and as a four-shard ShardedFleet, captured while every
//    destination still had its own delivery event.  LIMD paper defaults
//    make first polls coincide, so deliveries from seven senders land at
//    one instant; cross-proxy δ-groups trigger sibling polls inside a
//    delivery; engine loss adds retries whose delay equals the relay
//    latency.  Simulator::executed() is deliberately not hashed: the
//    event count is what the batching changes.
//  * a deterministic work gate: a fault-free delayed fan-out costs far
//    fewer queue events than relays, and the ledger still balances.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "consistency/limd.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "golden_digest.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/update_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

constexpr std::size_t kProxies = 8;
constexpr std::size_t kObjects = 64;
constexpr Duration kRelayLatency = 5.0;
constexpr Duration kHorizon = 6.0 * 3600.0;
constexpr Duration kDeltaMutual = 300.0;

std::vector<UpdateTrace> shared_traces() {
  std::vector<UpdateTrace> traces;
  for (std::size_t o = 0; o < kObjects; ++o) {
    Rng rng(900 + o);
    // Mean update gaps from 10 minutes to about 2 hours.
    const double mean_gap = 600.0 + 100.0 * static_cast<double>(o);
    traces.emplace_back("/shared/" + std::to_string(o),
                        generate_poisson(rng, 1.0 / mean_gap, kHorizon),
                        kHorizon);
  }
  return traces;
}

std::unique_ptr<RefreshPolicy> paper_limd() {
  return std::make_unique<LimdPolicy>(
      LimdPolicy::Config::paper_defaults(600.0));
}

FleetConfig tie_heavy_config() {
  FleetConfig config;
  config.proxies = kProxies;
  config.cooperative_push = true;
  config.relay_latency = kRelayLatency;
  config.engine.loss_probability = 0.05;
  return config;
}

/// Group g couples proxy g's copy of one object with proxy g + 4's copy
/// of the next: cross-proxy, cross-object.  Under object partitioning
/// that joins each proxy pair into one unit, so four shards host two
/// proxies each and every fan-out has local and exported destinations.
std::vector<std::vector<FleetMember>> cross_proxy_groups() {
  std::vector<std::vector<FleetMember>> groups;
  for (std::size_t g = 0; g < 4; ++g) {
    groups.push_back({{g, "/shared/" + std::to_string(2 * g)},
                      {g + 4, "/shared/" + std::to_string(2 * g + 1)}});
  }
  return groups;
}

void digest_ledger(Digest& digest, const RelayLedger& relays) {
  digest.u64(relays.sent);
  digest.u64(relays.delivered);
  digest.u64(relays.applied);
  digest.u64(relays.in_flight);
  digest.u64(relays.lost);
  digest.u64(relays.retried);
  digest.u64(relays.dropped_dark);
}

TEST(RelayFanOutGolden, SingleSimulatorFleet) {
  const std::vector<UpdateTrace> traces = shared_traces();
  Simulator sim;
  OriginServer origin(sim);
  for (const UpdateTrace& trace : traces) {
    origin.attach_update_trace(trace.name(), trace);
  }
  ProxyFleet fleet(sim, origin, tie_heavy_config());
  for (const UpdateTrace& trace : traces) {
    fleet.add_temporal_object_everywhere(trace.name(), paper_limd);
  }
  for (std::vector<FleetMember>& members : cross_proxy_groups()) {
    fleet.add_delta_group(std::move(members), kDeltaMutual);
  }
  fleet.start();
  sim.run_until(kHorizon);

  Digest digest;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    digest.records(fleet.proxy(p).poll_log().records());
    for (const UpdateTrace& trace : traces) {
      digest.series(fleet.proxy(p).ttr_series(trace.name()));
    }
  }
  digest.u64(origin.requests_served());
  digest.u64(fleet.origin_polls());
  digest_ledger(digest, fleet.relays());

  EXPECT_GT(fleet.relays_applied(), 0u);
  EXPECT_GT(fleet.relays_in_flight(), 0u);  // the horizon cuts messages
  EXPECT_TRUE(fleet.relays().balanced());
  EXPECT_EQ(digest.value(), 0xc5c0da373fea0f84ULL);
}

TEST(RelayFanOutGolden, FourShardFleet) {
  const std::vector<UpdateTrace> traces = shared_traces();
  ShardedFleetConfig config;
  config.fleet = tie_heavy_config();
  config.threads = 4;
  config.shards = 4;
  config.origin_setup = [&traces](OriginServer& origin) {
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
    }
  };
  ShardedFleet fleet(std::move(config));
  for (const UpdateTrace& trace : traces) {
    fleet.add_temporal_object_everywhere(trace.name(), paper_limd);
  }
  for (std::vector<FleetMember>& members : cross_proxy_groups()) {
    fleet.add_delta_group(std::move(members), kDeltaMutual);
  }
  fleet.start();
  fleet.run_until(kHorizon);
  ASSERT_EQ(fleet.shard_count(), 4u);

  Digest digest;
  digest.records(fleet.merged_poll_records());
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    for (const UpdateTrace& trace : traces) {
      digest.series(fleet.proxy(p).ttr_series(trace.name()));
    }
  }
  digest.u64(fleet.origin_requests());
  digest.u64(fleet.origin_polls());
  digest_ledger(digest, fleet.relays());

  EXPECT_GT(fleet.relays().applied, 0u);
  EXPECT_TRUE(fleet.relays().balanced());
  EXPECT_EQ(digest.value(), 0x9533a960cdd264b9ULL);
}

// The work gate: eight proxies, no faults, no δ-groups, every object
// tracked everywhere.  Each relayable poll reaches seven siblings, so one
// delivery event per fan-out is about 2/7 of an event per relay even
// after counting the polls' own timers; one event per relay cannot pass.
TEST(RelayFanOut, DelayedFanOutCostsOneEventNotOnePerRelay) {
  const std::vector<UpdateTrace> traces = shared_traces();
  Simulator sim;
  OriginServer origin(sim);
  for (const UpdateTrace& trace : traces) {
    origin.attach_update_trace(trace.name(), trace);
  }
  FleetConfig config;
  config.proxies = kProxies;
  config.cooperative_push = true;
  config.relay_latency = kRelayLatency;
  ProxyFleet fleet(sim, origin, config);
  for (const UpdateTrace& trace : traces) {
    fleet.add_temporal_object_everywhere(trace.name(), paper_limd);
  }
  fleet.start();
  sim.run_until(kHorizon + 2.0 * kRelayLatency);  // past the last delivery

  ASSERT_GT(fleet.relays_sent(), 10000u);
  EXPECT_LE(sim.executed(), fleet.relays_sent() / 2)
      << sim.executed() << " queue events for " << fleet.relays_sent()
      << " relays";
  EXPECT_TRUE(fleet.relays().balanced());
  EXPECT_EQ(fleet.relays_in_flight(), 0u);
  EXPECT_EQ(fleet.relays_delivered(), fleet.relays_sent());
}

}  // namespace
}  // namespace broadway
