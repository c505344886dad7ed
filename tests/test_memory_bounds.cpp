// Deterministic memory gate: a per-object table costs what it tracks, not
// one payload per id of the shared intern table.
//
// Sharded engine slices share one origin UriTable, so a slice tracking a
// handful of objects sees ids up to the size of the whole namespace.  This
// binary counts every byte requested through the global operator new (the
// replacement below is local to this test executable) and builds each
// structure twice: over a table whose only ids are the tracked ones, and
// over the same table padded with kPadding ids nobody tracks, interned
// *below* the tracked ones.  The difference is the cost of the untracked
// ids, and must stay within kMaxBytesPerUntrackedId per id per engine
// slice.  A dense by-id vector of cache entries costs 128 B per id, of
// poll-log indices 64 B, of tracked-object pointers 8 B.  Unlike a
// wall-clock or RSS gate, the counts are exact and repeat on every run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "consistency/limd.h"
#include "fleet/sharded_fleet.h"
#include "origin/origin_server.h"
#include "proxy/cache.h"
#include "proxy/poll_log.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "util/uri_table.h"

namespace {

std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every replaceable non-aligned form, so that no allocation pairs this
// malloc/free with the runtime's own operator new/delete.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace broadway {
namespace {

constexpr std::size_t kPadding = 200'000;
constexpr std::size_t kTracked = 8;
constexpr double kMaxBytesPerUntrackedId = 8.0;

std::size_t allocated_now() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

template <typename F>
std::size_t bytes_allocated_by(F&& body) {
  const std::size_t before = allocated_now();
  body();
  return allocated_now() - before;
}

std::string tracked_uri(std::size_t k) {
  return "/tracked/" + std::to_string(k);
}

/// Intern `padding` untracked ids, then the tracked ones (at the top).
std::vector<ObjectId> fill_table(UriTable& table, std::size_t padding) {
  for (std::size_t i = 0; i < padding; ++i) {
    table.intern("/padding/" + std::to_string(i));
  }
  std::vector<ObjectId> tracked;
  for (std::size_t k = 0; k < kTracked; ++k) {
    tracked.push_back(table.intern(tracked_uri(k)));
  }
  return tracked;
}

/// Bytes per untracked id per slice: the padded run's excess over the
/// bare run, spread over the padding ids and the slices that hold them.
double per_untracked_id(std::size_t padded, std::size_t bare,
                        std::size_t slices, const char* what) {
  const double excess =
      static_cast<double>(padded) - static_cast<double>(bare);
  const double per_id = excess / static_cast<double>(kPadding * slices);
  std::cout << what << ": " << bare << " B bare, " << padded
            << " B padded, " << per_id << " B per untracked id per slice\n";
  return per_id;
}

std::size_t cache_bytes(std::size_t padding) {
  UriTable table;
  const std::vector<ObjectId> tracked = fill_table(table, padding);
  return bytes_allocated_by([&] {
    ProxyCache cache(table);
    for (const ObjectId id : tracked) {
      cache.refresh_entry(id, 1.0).body = "payload";
      cache.refresh_entry(id, 2.0);
    }
    CacheEntry entry;
    entry.uri = tracked_uri(0);
    entry.snapshot_time = 3.0;
    cache.store(std::move(entry));
  });
}

TEST(MemoryBounds, ProxyCacheIsProportionalToTrackedObjects) {
  EXPECT_LE(per_untracked_id(cache_bytes(kPadding), cache_bytes(0), 1,
                             "ProxyCache"),
            kMaxBytesPerUntrackedId);
}

std::size_t poll_log_bytes(std::size_t padding) {
  UriTable table;
  const std::vector<ObjectId> tracked = fill_table(table, padding);
  return bytes_allocated_by([&] {
    PollLog log(table);
    for (int round = 0; round < 4; ++round) {
      for (const ObjectId id : tracked) {
        log.append(id, PollCause::kScheduled, true, false, round, round);
      }
    }
  });
}

TEST(MemoryBounds, PollLogIsProportionalToTrackedObjects) {
  EXPECT_LE(per_untracked_id(poll_log_bytes(kPadding), poll_log_bytes(0), 1,
                             "PollLog"),
            kMaxBytesPerUntrackedId);
}

std::unique_ptr<RefreshPolicy> limd() {
  return std::make_unique<LimdPolicy>(
      LimdPolicy::Config::paper_defaults(600.0));
}

std::size_t engine_registration_bytes(std::size_t padding) {
  Simulator sim;
  OriginServer origin(sim);
  for (std::size_t i = 0; i < padding; ++i) {
    origin.uri_table().intern("/padding/" + std::to_string(i));
  }
  for (std::size_t k = 0; k < kTracked; ++k) origin.add_object(tracked_uri(k));
  std::unique_ptr<PollingEngine> engine;
  const std::size_t bytes = bytes_allocated_by([&] {
    engine = std::make_unique<PollingEngine>(sim, origin);
    for (std::size_t k = 0; k < kTracked; ++k) {
      engine->add_temporal_object(tracked_uri(k), limd());
    }
  });
  return bytes;
}

TEST(MemoryBounds, EngineRegistrationIsProportionalToTrackedObjects) {
  EXPECT_LE(per_untracked_id(engine_registration_bytes(kPadding),
                             engine_registration_bytes(0), 1,
                             "PollingEngine registration"),
            kMaxBytesPerUntrackedId);
}

struct FleetStart {
  std::size_t bytes = 0;  ///< start(), minus the origin setup callback
  std::size_t slices = 0;
};

std::string private_uri(std::size_t proxy, std::size_t k) {
  return "/private/" + std::to_string(proxy) + "/" + std::to_string(k);
}

FleetStart sharded_start(std::size_t padding) {
  // Shared objects (tracked everywhere) relay across proxies and pin
  // each proxy's shared pairs together; private objects split freely, so
  // the 16 shards host many more engine slices than there are proxies.
  constexpr std::size_t kProxies = 4;
  ShardedFleetConfig config;
  config.fleet.proxies = kProxies;
  config.fleet.cooperative_push = true;
  config.fleet.relay_latency = 1.0;
  config.fleet.faults.relay_loss = 0.1;
  config.threads = 1;
  config.shards = 16;
  std::size_t setup_bytes = 0;
  config.origin_setup = [padding, &setup_bytes](OriginServer& origin) {
    setup_bytes = bytes_allocated_by([&] {
      for (std::size_t i = 0; i < padding; ++i) {
        origin.uri_table().intern("/padding/" + std::to_string(i));
      }
      for (std::size_t k = 0; k < kTracked; ++k) {
        origin.add_object(tracked_uri(k));
        for (std::size_t proxy = 0; proxy < kProxies; ++proxy) {
          origin.add_object(private_uri(proxy, k));
        }
      }
    });
  };
  ShardedFleet fleet(config);
  for (std::size_t k = 0; k < kTracked; ++k) {
    fleet.add_temporal_object_everywhere(tracked_uri(k), limd);
    for (std::size_t proxy = 0; proxy < kProxies; ++proxy) {
      fleet.add_temporal_object(proxy, private_uri(proxy, k), limd);
    }
  }
  // One cross-proxy δ-group, so the fleet's per-member group index is
  // built too.
  fleet.add_delta_group({{0, tracked_uri(0)}, {1, tracked_uri(1)}}, 60.0);
  FleetStart result;
  result.bytes = bytes_allocated_by([&] { fleet.start(); }) - setup_bytes;
  for (std::size_t proxy = 0; proxy < kProxies; ++proxy) {
    result.slices += fleet.slice_count(proxy);
  }
  return result;
}

TEST(MemoryBounds, ShardedStartIsProportionalToTrackedPairs) {
  const FleetStart padded = sharded_start(kPadding);
  const FleetStart bare = sharded_start(0);
  ASSERT_EQ(padded.slices, bare.slices);
  // Enough slices that the bound is per engine slice, not per proxy.
  ASSERT_GE(padded.slices, 16u);
  EXPECT_LE(per_untracked_id(padded.bytes, bare.bytes, padded.slices,
                             "ShardedFleet::start (16 shards)"),
            kMaxBytesPerUntrackedId);
}

}  // namespace
}  // namespace broadway
