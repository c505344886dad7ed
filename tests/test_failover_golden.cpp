// Failover golden digests: cross-proxy δ-groups under proxy crashes.
//
// While a group member's proxy is dark, its δ responsibility moves to the
// lowest-id live proxy tracking the same object (sibling failover) and
// returns when the owner recovers.  These goldens pin that path together
// with relay loss, retries and engine loss: the poll logs plus every
// group's `triggers_requested` and `failover_triggers`, on one simulator
// and as a four-shard ShardedFleet.  Both digests were captured before
// the cross-proxy groups and the engine-local coordinator became one
// class.
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

constexpr std::size_t kProxies = 6;
constexpr std::size_t kShared = 12;
constexpr std::size_t kPrivatePerProxy = 8;
constexpr Duration kHorizon = 4.0 * 3600.0;
constexpr Duration kDeltaMutual = 300.0;

std::string shared_uri(std::size_t i) { return "/s/" + std::to_string(i); }
std::string private_uri(std::size_t proxy, std::size_t i) {
  return "/p" + std::to_string(proxy) + "/" + std::to_string(i);
}

// Even shared objects update every few minutes, odd ones about hourly:
// groups pair a fast member with slow ones, so the slow members' TTRs
// grow past δ and the fast member's updates actually trigger them.
std::vector<UpdateTrace> traces() {
  std::vector<UpdateTrace> out;
  for (std::size_t i = 0; i < kShared; ++i) {
    Rng rng(700 + i);
    const double mean_gap = i % 2 == 0 ? 240.0 : 3600.0;
    out.emplace_back(shared_uri(i),
                     generate_poisson(rng, 1.0 / mean_gap, kHorizon),
                     kHorizon);
  }
  for (std::size_t p = 0; p < kProxies; ++p) {
    for (std::size_t i = 0; i < kPrivatePerProxy; ++i) {
      Rng rng(100 * (p + 1) + i);
      out.emplace_back(private_uri(p, i),
                       generate_poisson(rng, 1.0 / 900.0, kHorizon),
                       kHorizon);
    }
  }
  return out;
}

std::unique_ptr<RefreshPolicy> limd() {
  return std::make_unique<LimdPolicy>(
      LimdPolicy::Config::paper_defaults(kDeltaMutual, 2400.0));
}

FleetConfig faulty_config() {
  FleetConfig config;
  config.proxies = kProxies;
  config.cooperative_push = true;
  config.relay_latency = 2.0;
  config.engine.loss_probability = 0.05;
  // Member proxies 1 and 4 go dark, one of them twice.
  config.faults.crashes.push_back(
      {1, {{2000.0, 5000.0}, {9000.0, 10000.0}}});
  config.faults.crashes.push_back({4, {{6000.0, 8000.0}}});
  config.faults.relay_loss = 0.1;
  config.faults.relay_jitter_max = 0.5;
  config.faults.retry_backoff_base = 1.0;
  config.faults.retry_backoff_cap = 8.0;
  config.faults.relay_retry_limit = 3;
  config.faults.seed = 77;
  return config;
}

// Shared objects are tracked on proxies i % 6 and (i + 1) % 6 and
// (i + 3) % 6, so every member has live siblings to fail over to.
std::vector<std::size_t> trackers(std::size_t i) {
  return {i % kProxies, (i + 1) % kProxies, (i + 3) % kProxies};
}

std::vector<std::vector<FleetMember>> groups() {
  return {{{1, shared_uri(0)}, {2, shared_uri(1)}, {4, shared_uri(3)}},
          {{4, shared_uri(4)}, {5, shared_uri(5)}},
          {{1, shared_uri(6)}, {4, shared_uri(7)}, {0, shared_uri(9)}},
          {{1, shared_uri(10)}, {5, shared_uri(11)}}};
}

template <typename Fleet, typename Factory>
void register_objects(Fleet& fleet, const Factory& make_policy) {
  for (std::size_t i = 0; i < kShared; ++i) {
    for (const std::size_t proxy : trackers(i)) {
      fleet.add_temporal_object(proxy, shared_uri(i), make_policy());
    }
  }
  for (std::size_t p = 0; p < kProxies; ++p) {
    for (std::size_t i = 0; i < kPrivatePerProxy; ++i) {
      fleet.add_temporal_object(p, private_uri(p, i), make_policy());
    }
  }
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

TEST(FailoverGolden, SingleSimulatorFleet) {
  const std::vector<UpdateTrace> all = traces();
  Simulator sim;
  OriginServer origin(sim);
  for (const UpdateTrace& trace : all) {
    origin.attach_update_trace(trace.name(), trace);
  }
  ProxyFleet fleet(sim, origin, faulty_config());
  register_objects(fleet, [] { return limd(); });
  std::vector<const TriggeredPollCoordinator*> bound;
  for (std::vector<FleetMember>& members : groups()) {
    bound.push_back(&fleet.add_delta_group(std::move(members), kDeltaMutual));
  }
  fleet.start();
  sim.run_until(kHorizon);

  Digest digest;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    digest.records(fleet.proxy(p).poll_log().records());
  }
  std::size_t failovers = 0;
  for (const TriggeredPollCoordinator* group : bound) {
    digest.u64(group->triggers_requested());
    digest.u64(group->failover_triggers());
    failovers += group->failover_triggers();
  }
  digest.u64(fleet.origin_polls());
  digest_ledger(digest, fleet.relays());

  EXPECT_GT(failovers, 0u);
  EXPECT_GT(fleet.relays_lost(), 0u);
  EXPECT_GT(fleet.relays_dropped_dark(), 0u);
  EXPECT_TRUE(fleet.relays().balanced());
  EXPECT_EQ(digest.value(), 0xb537326e73c397e6ULL);
}

TEST(FailoverGolden, FourShardFleet) {
  const std::vector<UpdateTrace> all = traces();
  ShardedFleetConfig config;
  config.fleet = faulty_config();
  config.threads = 2;
  config.shards = 4;
  config.origin_setup = [&all](OriginServer& origin) {
    for (const UpdateTrace& trace : all) {
      origin.attach_update_trace(trace.name(), trace);
    }
  };
  ShardedFleet fleet(std::move(config));
  register_objects(fleet, [] { return ShardedFleet::PolicyFactory(limd); });
  for (std::vector<FleetMember>& members : groups()) {
    fleet.add_delta_group(std::move(members), kDeltaMutual);
  }
  fleet.start();
  fleet.run_until(kHorizon);
  ASSERT_EQ(fleet.shard_count(), 4u);

  Digest digest;
  digest.records(fleet.merged_poll_records());
  std::size_t failovers = 0;
  for (std::size_t g = 0; g < groups().size(); ++g) {
    digest.u64(fleet.delta_group(g).triggers_requested());
    digest.u64(fleet.delta_group(g).failover_triggers());
    failovers += fleet.delta_group(g).failover_triggers();
  }
  digest.u64(fleet.origin_polls());
  digest_ledger(digest, fleet.relays());

  EXPECT_GT(failovers, 0u);
  EXPECT_TRUE(fleet.relays().balanced());
  EXPECT_EQ(digest.value(), 0xb23dbfcff8c03600ULL);
}

}  // namespace
}  // namespace broadway
