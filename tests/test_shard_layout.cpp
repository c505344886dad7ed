// ShardedFleet layout pins: for fixed topologies, the shard count, the
// shard (or slice count) of every proxy and the size of the largest
// colocation unit under both layouts — whole-proxy (shards = 0) and
// object-partitioned (shards > 0).  The layout is a pure function of the
// topology, so these are exact values.  The largest unit's share of the
// pairs bounds how far an object-partitioned run can spread its work:
// one unit always runs on one thread.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consistency/fixed_poll.h"
#include "consistency/value_ttr.h"
#include "fleet/sharded_fleet.h"
#include "origin/origin_server.h"
#include "util/check.h"

namespace broadway {
namespace {

constexpr std::size_t kSplit = static_cast<std::size_t>(-1);

struct Topology {
  std::size_t proxies = 1;
  std::vector<std::pair<std::size_t, std::string>> temporal;
  std::vector<std::pair<std::size_t, std::string>> value;
  std::vector<std::vector<FleetMember>> groups;
  std::vector<std::size_t> crashed;  // proxies with one crash window
  bool clients = false;
  bool cooperative_push = true;

  void everywhere(const std::string& uri) {
    for (std::size_t p = 0; p < proxies; ++p) temporal.push_back({p, uri});
  }
};

struct Layout {
  std::size_t shards = 0;
  // shard_of(p) for single-slice proxies, kSplit for split ones.
  std::vector<std::size_t> shard_of;
  std::vector<std::size_t> slices;
  std::size_t largest_unit = 0;
  std::size_t pairs = 0;
};

Layout layout_of(const Topology& topology, std::size_t shards) {
  ShardedFleetConfig config;
  config.fleet.proxies = topology.proxies;
  config.fleet.cooperative_push = topology.cooperative_push;
  config.fleet.relay_latency = 1.0;
  for (const std::size_t proxy : topology.crashed) {
    config.fleet.faults.crashes.push_back({proxy, {{100.0, 200.0}}});
  }
  if (topology.clients) config.fleet.client_traffic = ClientTrafficConfig{};
  config.shards = shards;
  config.origin_setup = [&topology](OriginServer& origin) {
    for (const auto& [proxy, uri] : topology.temporal) {
      if (origin.uri_table().find(uri) == kInvalidObjectId) {
        origin.add_object(uri);
      }
    }
    for (const auto& [proxy, uri] : topology.value) {
      if (origin.uri_table().find(uri) == kInvalidObjectId) {
        origin.add_value_object(uri, 10.0);
      }
    }
  };
  ShardedFleet fleet(std::move(config));
  for (const auto& [proxy, uri] : topology.temporal) {
    fleet.add_temporal_object(proxy, uri, [] {
      return std::make_unique<FixedPollPolicy>(60.0);
    });
  }
  for (const auto& [proxy, uri] : topology.value) {
    fleet.add_value_object(proxy, uri, AdaptiveValueTtrPolicy::Config{});
  }
  for (const std::vector<FleetMember>& members : topology.groups) {
    fleet.add_delta_group(members, 60.0);
  }
  fleet.start();

  Layout layout;
  layout.shards = fleet.shard_count();
  for (std::size_t p = 0; p < topology.proxies; ++p) {
    layout.slices.push_back(fleet.slice_count(p));
    layout.shard_of.push_back(fleet.slice_count(p) == 1 ? fleet.shard_of(p)
                                                        : kSplit);
  }
  layout.largest_unit = fleet.largest_unit_pairs();
  layout.pairs = fleet.pair_count();
  return layout;
}

using Sizes = std::vector<std::size_t>;

// Two groups chained through a shared uri ("/b" sits in both) plus an
// ungrouped private object per proxy and one proxy (5) outside any group.
Topology chained_groups() {
  Topology t;
  t.proxies = 6;
  for (std::size_t p = 0; p < t.proxies; ++p) {
    t.temporal.push_back({p, "/p" + std::to_string(p)});
  }
  t.temporal.push_back({0, "/a"});
  t.temporal.push_back({1, "/b"});
  t.temporal.push_back({2, "/b"});
  t.temporal.push_back({3, "/c"});
  t.temporal.push_back({4, "/a"});
  t.groups = {{{0, "/a"}, {1, "/b"}}, {{2, "/b"}, {3, "/c"}}};
  return t;
}

TEST(ShardLayout, ChainedGroupsWholeProxy) {
  const Layout layout = layout_of(chained_groups(), 0);
  EXPECT_EQ(layout.shards, 4u);
  EXPECT_EQ(layout.shard_of, (Sizes{0, 0, 1, 1, 2, 3}));
  EXPECT_EQ(layout.slices, (Sizes{1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(layout.pairs, 11u);
  EXPECT_EQ(layout.largest_unit, 4u);
}

TEST(ShardLayout, ChainedGroupsPartitioned) {
  const Layout layout = layout_of(chained_groups(), 4);
  EXPECT_EQ(layout.shards, 4u);
  EXPECT_EQ(layout.shard_of,
            (Sizes{kSplit, kSplit, kSplit, kSplit, kSplit, 1}));
  EXPECT_EQ(layout.slices, (Sizes{2, 2, 2, 2, 2, 1}));
  EXPECT_EQ(layout.pairs, 11u);
  EXPECT_EQ(layout.largest_unit, 2u);
}

// Rule (e): with a crash window anywhere, every tracker of a grouped uri
// joins the group's unit, member or not.
Topology crash_and_groups() {
  Topology t;
  t.proxies = 6;
  for (std::size_t p = 0; p < t.proxies; ++p) {
    t.temporal.push_back({p, "/p" + std::to_string(p)});
  }
  t.everywhere("/a");
  t.temporal.push_back({1, "/b"});
  t.temporal.push_back({3, "/b"});
  t.temporal.push_back({2, "/solo"});
  t.groups = {{{0, "/a"}, {1, "/b"}}};
  t.crashed = {1};
  t.cooperative_push = false;
  return t;
}

TEST(ShardLayout, CrashWithGroupsWholeProxy) {
  const Layout layout = layout_of(crash_and_groups(), 0);
  EXPECT_EQ(layout.shards, 1u);
  EXPECT_EQ(layout.shard_of, (Sizes{0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(layout.slices, (Sizes{1, 1, 1, 1, 1, 1}));
  EXPECT_EQ(layout.pairs, 15u);
  EXPECT_EQ(layout.largest_unit, 15u);
}

TEST(ShardLayout, CrashWithGroupsPartitioned) {
  const Layout layout = layout_of(crash_and_groups(), 3);
  EXPECT_EQ(layout.shards, 3u);
  EXPECT_EQ(layout.shard_of,
            (Sizes{kSplit, 0, kSplit, kSplit, kSplit, kSplit}));
  EXPECT_EQ(layout.slices, (Sizes{2, 1, 2, 2, 2, 2}));
  EXPECT_EQ(layout.pairs, 15u);
  EXPECT_EQ(layout.largest_unit, 9u);
}

// Rule (c): client streams read a proxy's whole cache, so each proxy is
// one unit; a group still joins its member proxies.
Topology client_traffic() {
  Topology t;
  t.proxies = 4;
  for (std::size_t p = 0; p < t.proxies; ++p) {
    t.temporal.push_back({p, "/p" + std::to_string(p)});
    t.temporal.push_back({p, "/q" + std::to_string(p)});
  }
  t.everywhere("/shared");
  t.groups = {{{1, "/p1"}, {2, "/p2"}}};
  t.clients = true;
  return t;
}

TEST(ShardLayout, ClientTrafficWholeProxy) {
  const Layout layout = layout_of(client_traffic(), 0);
  EXPECT_EQ(layout.shards, 3u);
  EXPECT_EQ(layout.shard_of, (Sizes{0, 1, 1, 2}));
  EXPECT_EQ(layout.slices, (Sizes{1, 1, 1, 1}));
  EXPECT_EQ(layout.pairs, 12u);
  EXPECT_EQ(layout.largest_unit, 6u);
}

TEST(ShardLayout, ClientTrafficPartitioned) {
  const Layout layout = layout_of(client_traffic(), 8);
  EXPECT_EQ(layout.shards, 3u);
  EXPECT_EQ(layout.shard_of, (Sizes{1, 0, 0, 2}));
  EXPECT_EQ(layout.slices, (Sizes{1, 1, 1, 1}));
  EXPECT_EQ(layout.pairs, 12u);
  EXPECT_EQ(layout.largest_unit, 6u);
}

// Value-domain objects are pairs like any other: tracked on two proxies
// under push they join rule (b2)'s relay-receiving unit.
Topology value_objects() {
  Topology t;
  t.proxies = 4;
  for (std::size_t p = 0; p < t.proxies; ++p) {
    t.temporal.push_back({p, "/p" + std::to_string(p)});
  }
  t.value = {{0, "/stock"}, {2, "/stock"}, {3, "/quote"}};
  t.temporal.push_back({0, "/t"});
  t.temporal.push_back({2, "/t"});
  t.groups = {{{0, "/p0"}, {1, "/p1"}}};
  return t;
}

TEST(ShardLayout, ValueObjectsWholeProxy) {
  const Layout layout = layout_of(value_objects(), 0);
  EXPECT_EQ(layout.shards, 3u);
  EXPECT_EQ(layout.shard_of, (Sizes{0, 0, 1, 2}));
  EXPECT_EQ(layout.slices, (Sizes{1, 1, 1, 1}));
  EXPECT_EQ(layout.pairs, 9u);
  EXPECT_EQ(layout.largest_unit, 4u);
}

TEST(ShardLayout, ValueObjectsPartitioned) {
  const Layout layout = layout_of(value_objects(), 3);
  EXPECT_EQ(layout.shards, 3u);
  EXPECT_EQ(layout.shard_of, (Sizes{kSplit, 0, kSplit, kSplit}));
  EXPECT_EQ(layout.slices, (Sizes{2, 1, 2, 2}));
  EXPECT_EQ(layout.pairs, 9u);
  EXPECT_EQ(layout.largest_unit, 2u);
}

// A proxy with nothing registered keeps a shard of its own under the
// whole-proxy layout; object partitioning has no slice to give it.
Topology idle_proxy() {
  Topology t;
  t.proxies = 4;
  t.temporal = {{0, "/a"}, {1, "/b"}, {3, "/a"}};
  t.groups = {{{0, "/a"}, {3, "/a"}}};
  return t;
}

TEST(ShardLayout, IdleProxyKeepsItsOwnShard) {
  const Layout layout = layout_of(idle_proxy(), 0);
  EXPECT_EQ(layout.shards, 3u);
  EXPECT_EQ(layout.shard_of, (Sizes{0, 1, 2, 0}));
  EXPECT_EQ(layout.slices, (Sizes{1, 1, 1, 1}));
  EXPECT_EQ(layout.pairs, 3u);
  EXPECT_EQ(layout.largest_unit, 2u);
  EXPECT_THROW(layout_of(idle_proxy(), 2), CheckFailure);
}

// The sharded_faults benchmark topology: 8 proxies with 1024 private
// objects each, 128 shared objects tracked everywhere, 32 four-member
// groups of shared objects on proxies g, g+2, g+4, g+6, crash windows on
// proxies 1 and 5, 16 shards.  One unit holds every shared pair plus the
// two crash proxies' private pairs: a third of all pairs.
Topology sharded_faults_shape() {
  Topology t;
  t.proxies = 8;
  for (std::size_t p = 0; p < t.proxies; ++p) {
    for (std::size_t i = 0; i < 1024; ++i) {
      t.temporal.push_back(
          {p, "/p" + std::to_string(p) + "/" + std::to_string(i)});
    }
  }
  for (std::size_t i = 0; i < 128; ++i) {
    t.everywhere("/shared/" + std::to_string(i));
  }
  for (std::size_t g = 0; g < 32; ++g) {
    std::vector<FleetMember> members;
    for (std::size_t k = 0; k < 4; ++k) {
      members.push_back(
          {(g + 2 * k) % t.proxies, "/shared/" + std::to_string(4 * g + k)});
    }
    t.groups.push_back(std::move(members));
  }
  t.crashed = {1, 5};
  return t;
}

TEST(ShardLayout, ShardedFaultsShapePartitioned) {
  const Layout layout = layout_of(sharded_faults_shape(), 16);
  EXPECT_EQ(layout.shards, 16u);
  EXPECT_EQ(layout.shard_of,
            (Sizes{kSplit, 0, kSplit, kSplit, kSplit, 0, kSplit, kSplit}));
  EXPECT_EQ(layout.slices, (Sizes{16, 1, 16, 16, 16, 1, 16, 16}));
  EXPECT_EQ(layout.pairs, 9216u);
  EXPECT_EQ(layout.largest_unit, 3072u);
}

TEST(ShardLayout, ShardedFaultsShapeWholeProxy) {
  const Layout layout = layout_of(sharded_faults_shape(), 0);
  EXPECT_EQ(layout.shards, 1u);
  EXPECT_EQ(layout.shard_of, (Sizes{0, 0, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(layout.pairs, 9216u);
  EXPECT_EQ(layout.largest_unit, 9216u);
}

// ---- δ-group validation at registration -----------------------------------

// Bad groups fail where they are registered, with the coordinator's own
// checks, instead of surfacing later from start().
ShardedFleet two_proxy_fleet(std::size_t shards = 0) {
  ShardedFleetConfig config;
  config.fleet.proxies = 2;
  config.fleet.relay_latency = 1.0;
  config.shards = shards;
  config.origin_setup = [](OriginServer& origin) {
    origin.add_object("/a");
    origin.add_object("/b");
  };
  return ShardedFleet(std::move(config));
}

TEST(ShardedDeltaGroupValidation, EmptyGroupFailsAtRegistration) {
  ShardedFleet fleet = two_proxy_fleet();
  EXPECT_THROW(fleet.add_delta_group({}, 60.0), CheckFailure);
}

TEST(ShardedDeltaGroupValidation, OneMemberGroupFailsAtRegistration) {
  ShardedFleet fleet = two_proxy_fleet();
  EXPECT_THROW(fleet.add_delta_group({{0, "/a"}}, 60.0), CheckFailure);
}

TEST(ShardedDeltaGroupValidation, DuplicateMemberFailsAtRegistration) {
  ShardedFleet fleet = two_proxy_fleet();
  EXPECT_THROW(fleet.add_delta_group({{1, "/a"}, {1, "/a"}}, 60.0),
               CheckFailure);
}

TEST(ShardedDeltaGroupValidation, NegativeDeltaFailsAtRegistration) {
  ShardedFleet fleet = two_proxy_fleet();
  EXPECT_THROW(fleet.add_delta_group({{0, "/a"}, {1, "/b"}}, -1.0),
               CheckFailure);
}

TEST(ShardedDeltaGroupValidation, ProxyOutOfRangeFailsAtRegistration) {
  ShardedFleet fleet = two_proxy_fleet();
  EXPECT_THROW(fleet.add_delta_group({{0, "/a"}, {2, "/b"}}, 60.0),
               CheckFailure);
}

// Membership needs the registrations, so it is checked at start(), when
// the layout pairs each member with its proxy's registered objects: a
// member whose uri the origin hosts, and another proxy tracks, but which
// its own proxy never registered fails there in both layouts.
TEST(ShardedDeltaGroupValidation, UnregisteredMemberFailsAtStart) {
  for (const std::size_t shards : {0u, 4u}) {
    SCOPED_TRACE(shards);
    ShardedFleet fleet = two_proxy_fleet(shards);
    const auto policy = [] { return std::make_unique<FixedPollPolicy>(60.0); };
    fleet.add_temporal_object(0, "/a", policy);
    fleet.add_temporal_object(0, "/b", policy);
    fleet.add_temporal_object(1, "/a", policy);
    fleet.add_delta_group({{0, "/a"}, {1, "/b"}}, 60.0);
    try {
      fleet.start();
      ADD_FAILURE() << "a group member its proxy never registered started";
    } catch (const CheckFailure& failure) {
      EXPECT_NE(std::string(failure.what())
                    .find("/b is not a registered object of proxy 1"),
                std::string::npos)
          << failure.what();
    }
  }
}

TEST(ShardedDeltaGroupValidation, ValidGroupIsAccepted) {
  ShardedFleet fleet = two_proxy_fleet();
  for (std::size_t p = 0; p < 2; ++p) {
    fleet.add_temporal_object(p, p == 0 ? "/a" : "/b", [] {
      return std::make_unique<FixedPollPolicy>(60.0);
    });
  }
  fleet.add_delta_group({{0, "/a"}, {1, "/b"}}, 0.0);
  fleet.start();
  EXPECT_EQ(fleet.delta_group(0).members().size(), 2u);
  EXPECT_EQ(fleet.shard_count(), 1u);
}

}  // namespace
}  // namespace broadway
