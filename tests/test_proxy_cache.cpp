#include "proxy/cache.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "id_of.h"
#include "util/check.h"

namespace broadway {
namespace {

// Write a copy of `id` through the cache's one write path, the way the
// polling engine's store stage does.
void store(ProxyCache& cache, ObjectId id, TimePoint snapshot,
           const std::string& body = "body") {
  CacheEntry& entry = cache.refresh_entry(id, snapshot);
  entry.snapshot_time = snapshot;
  entry.stored_time = snapshot;
  entry.body = body + "@" + std::to_string(snapshot);
}

TEST(ProxyCache, StoreAndFind) {
  UriTable table;
  ProxyCache cache(table);
  store(cache, table.intern("/a"), 10.0);
  EXPECT_EQ(cache.size(), 1u);
  const CacheEntry* found = cache.find(id_of(table, "/a"));
  ASSERT_NE(found, nullptr);
  EXPECT_DOUBLE_EQ(found->snapshot_time, 10.0);
  EXPECT_EQ(found->refresh_count, 0u);
  EXPECT_EQ(cache.find(table.intern("/missing")), nullptr);
  EXPECT_EQ(cache.find(kInvalidObjectId), nullptr);
}

TEST(ProxyCache, RefreshReplacesAndCountsRefreshes) {
  UriTable table;
  ProxyCache cache(table);
  const ObjectId a = table.intern("/a");
  store(cache, a, 10.0);
  store(cache, a, 20.0);
  store(cache, a, 30.0);
  const CacheEntry* current = cache.find(a);
  ASSERT_NE(current, nullptr);
  EXPECT_DOUBLE_EQ(current->snapshot_time, 30.0);
  EXPECT_EQ(current->refresh_count, 2u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProxyCache, MonotonicityEnforced) {
  // Paper §2: cached versions must increase monotonically.
  UriTable table;
  ProxyCache cache(table);
  const ObjectId a = table.intern("/a");
  store(cache, a, 20.0);
  EXPECT_THROW(cache.refresh_entry(a, 10.0), CheckFailure);
  // The failure names the object by its uri, read from the table.
  try {
    cache.refresh_entry(a, 10.0);
    ADD_FAILURE() << "a backwards refresh was accepted";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what()).find("/a"), std::string::npos)
        << failure.what();
  }
  // The rejected refreshes changed nothing.
  EXPECT_EQ(cache.find(a)->refresh_count, 0u);
  // Same-instant refresh is allowed (triggered poll at the same time).
  EXPECT_NO_THROW(store(cache, a, 20.0));
  EXPECT_EQ(cache.find(a)->refresh_count, 1u);
}

TEST(ProxyCache, HitMissAccounting) {
  UriTable table;
  ProxyCache cache(table);
  const ObjectId a = table.intern("/a");
  store(cache, a, 1.0);
  EXPECT_NE(cache.lookup_counted(a), nullptr);
  EXPECT_EQ(cache.lookup_counted(kInvalidObjectId), nullptr);
  EXPECT_NE(cache.lookup_counted(a), nullptr);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

// A cache sharing a large table holds a few scattered, high ids: lookups
// and refreshes behave exactly as on a table holding only those ids.
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
    EXPECT_EQ(fresh.refresh_count, 0u);
    fresh.snapshot_time = 5.0;
    fresh.body = uris[i];
  }
  store(cache, ids[1], 6.0, "/m");
  EXPECT_EQ(cache.size(), 4u);
  ASSERT_NE(cache.find(ids[1]), nullptr);
  EXPECT_EQ(cache.find(ids[1])->refresh_count, 1u);
  EXPECT_EQ(cache.find(ids[1])->body, "/m@" + std::to_string(6.0));
  ASSERT_NE(cache.find(ids[2]), nullptr);
  EXPECT_EQ(cache.find(ids[2])->body, "/a");
  EXPECT_EQ(cache.find(id_of(table, "/untracked/42")), nullptr);
  EXPECT_EQ(cache.find(kInvalidObjectId), nullptr);
  EXPECT_EQ(cache.lookup_counted(id_of(table, "/untracked/7")), nullptr);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace broadway
