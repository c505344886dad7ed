#include "proxy/cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "id_of.h"
#include "util/check.h"

namespace broadway {
namespace {

CacheEntry entry(const std::string& uri, TimePoint snapshot) {
  CacheEntry out;
  out.uri = uri;
  out.snapshot_time = snapshot;
  out.stored_time = snapshot;
  out.body = "body@" + std::to_string(snapshot);
  return out;
}

TEST(ProxyCache, StoreAndFind) {
  UriTable table;
  ProxyCache cache(table);
  cache.store(entry("/a", 10.0));
  EXPECT_EQ(cache.size(), 1u);
  const CacheEntry* found = cache.find(id_of(table, "/a"));
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->snapshot_time, 10.0);
  EXPECT_EQ(cache.find(table.intern("/missing")), nullptr);
  EXPECT_EQ(cache.find(kInvalidObjectId), nullptr);
}

TEST(ProxyCache, RefreshReplacesAndCountsRefreshes) {
  UriTable table;
  ProxyCache cache(table);
  cache.store(entry("/a", 10.0));
  cache.store(entry("/a", 20.0));
  cache.store(entry("/a", 30.0));
  const CacheEntry* current = cache.find(id_of(table, "/a"));
  ASSERT_NE(current, nullptr);
  EXPECT_DOUBLE_EQ(current->snapshot_time, 30.0);
  EXPECT_EQ(current->refresh_count, 2u);
}

TEST(ProxyCache, MonotonicityEnforced) {
  // Paper §2: cached versions must increase monotonically.
  UriTable table;
  ProxyCache cache(table);
  cache.store(entry("/a", 20.0));
  EXPECT_THROW(cache.store(entry("/a", 10.0)), CheckFailure);
  // Same-instant refresh is allowed (triggered poll at the same time).
  EXPECT_NO_THROW(cache.store(entry("/a", 20.0)));
}

TEST(ProxyCache, HitMissAccounting) {
  UriTable table;
  ProxyCache cache(table);
  cache.store(entry("/a", 1.0));
  const ObjectId a = id_of(table, "/a");
  EXPECT_NE(cache.lookup_counted(a), nullptr);
  EXPECT_EQ(cache.lookup_counted(kInvalidObjectId), nullptr);
  EXPECT_NE(cache.lookup_counted(a), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ProxyCache, UrisAndClear) {
  UriTable table;
  ProxyCache cache(table);
  cache.store(entry("/b", 1.0));
  cache.store(entry("/a", 1.0));
  EXPECT_EQ(cache.uris(), (std::vector<std::string>{"/a", "/b"}));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(id_of(table, "/a")), nullptr);
}

// A cache sharing a large table holds a few scattered, high ids: lookups,
// sorted uris() and a store -> clear() -> re-store cycle behave exactly as
// on a table holding only those ids.
TEST(ProxyCache, SparseHighIdsInASharedTable) {
  UriTable table;
  for (int i = 0; i < 5000; ++i) {
    table.intern("/untracked/" + std::to_string(i));
  }
  ProxyCache cache(table);
  const std::vector<std::string> uris = {"/z", "/m", "/a", "/q"};
  std::vector<ObjectId> ids;
  for (const std::string& uri : uris) {
    for (int i = 0; i < 700; ++i) {  // spread the tracked ids apart
      table.intern(uri + "/gap/" + std::to_string(i));
    }
    ids.push_back(table.intern(uri));
  }
  for (std::size_t i = 0; i < uris.size(); ++i) {
    CacheEntry& fresh = cache.refresh_entry(ids[i], 5.0);
    EXPECT_EQ(fresh.uri, uris[i]);
    EXPECT_EQ(fresh.refresh_count, 0u);
    fresh.snapshot_time = 5.0;
  }
  cache.store(entry("/m", 6.0));
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.uris(),
            (std::vector<std::string>{"/a", "/m", "/q", "/z"}));
  ASSERT_NE(cache.find(ids[1]), nullptr);
  EXPECT_EQ(cache.find(ids[1])->refresh_count, 1u);
  EXPECT_EQ(cache.find(ids[2])->uri, "/a");
  EXPECT_EQ(cache.find(id_of(table, "/untracked/42")), nullptr);
  EXPECT_EQ(cache.find(kInvalidObjectId), nullptr);
  EXPECT_EQ(cache.lookup_counted(id_of(table, "/untracked/7")), nullptr);
  EXPECT_EQ(cache.misses(), 1u);

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_TRUE(cache.uris().empty());
  for (const ObjectId id : ids) EXPECT_EQ(cache.find(id), nullptr);
  // Re-store after the clear, in another order: a fresh entry (no
  // refresh count carried over), and monotonicity restarts with it.
  cache.store(entry("/q", 1.0));
  cache.store(entry("/z", 2.0));
  cache.store(entry("/q", 3.0));
  EXPECT_EQ(cache.uris(), (std::vector<std::string>{"/q", "/z"}));
  ASSERT_NE(cache.find(ids[3]), nullptr);
  EXPECT_EQ(cache.find(ids[3])->refresh_count, 1u);
  ASSERT_NE(cache.find(ids[0]), nullptr);
  EXPECT_DOUBLE_EQ(cache.find(ids[0])->snapshot_time, 2.0);
  EXPECT_EQ(cache.find(ids[2]), nullptr);
}

TEST(ProxyCache, RejectsAnonymousEntry) {
  UriTable table;
  ProxyCache cache(table);
  CacheEntry anonymous;
  EXPECT_THROW(cache.store(anonymous), CheckFailure);
}

}  // namespace
}  // namespace broadway
