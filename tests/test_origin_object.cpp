#include "origin/object.h"

#include <gtest/gtest.h>

#include "origin/store.h"
#include "util/check.h"

namespace broadway {
namespace {

std::vector<TimePoint> to_vector(std::span<const TimePoint> span) {
  return {span.begin(), span.end()};
}

TEST(VersionedObject, StartsAtVersionZero) {
  VersionedObject object("/a", 5.0);
  const ObjectVersion v = object.at(100.0, true);
  EXPECT_EQ(v.version(), 0u);
  EXPECT_DOUBLE_EQ(v.last_modified(), 5.0);
  EXPECT_FALSE(v.value().has_value());
}

TEST(VersionedObject, VersionIsTheUpdatesDueAtTheReadersClock) {
  VersionedObject object("/a", 0.0);
  object.append_updates({10.0, 20.0, 20.0});
  EXPECT_EQ(object.at(5.0, true).version(), 0u);
  EXPECT_EQ(object.at(10.0, false).version(), 0u);  // due, not yet entered
  EXPECT_EQ(object.at(10.0, true).version(), 1u);
  EXPECT_EQ(object.at(20.0, false).version(), 1u);
  EXPECT_EQ(object.at(20.0, true).version(), 3u);  // both same-instant
  EXPECT_DOUBLE_EQ(object.at(15.0, true).last_modified(), 10.0);
  EXPECT_DOUBLE_EQ(object.at(99.0, false).last_modified(), 20.0);
  // Reads never mutate: an earlier clock still sees the earlier version.
  EXPECT_EQ(object.at(12.0, true).version(), 1u);
}

TEST(VersionedObject, AppendEnforcesMonotoneTime) {
  VersionedObject object("/a", 5.0);
  EXPECT_THROW(object.append_updates({4.0}), CheckFailure);  // before creation
  EXPECT_THROW(object.append_updates({12.0, 11.0}), CheckFailure);
  object.append_updates({10.0, 20.0});
  EXPECT_THROW(object.append_updates({15.0}), CheckFailure);  // time reversal
  object.append_updates({20.0, 30.0});
  EXPECT_EQ(object.updates(), (std::vector<TimePoint>{10.0, 20.0, 20.0, 30.0}));
}

TEST(VersionedObject, ModifiedSinceIsStrict) {
  VersionedObject object("/a", 0.0);
  object.append_updates({10.0});
  const ObjectVersion v = object.at(10.0, true);
  EXPECT_TRUE(v.modified_since(9.0));
  EXPECT_FALSE(v.modified_since(10.0));
  EXPECT_FALSE(v.modified_since(11.0));
}

TEST(VersionedObject, ValueDomainCarriesValues) {
  VersionedObject stock("/stock", 0.0, 36.1);
  stock.append_updates({5.0}, {36.2});
  EXPECT_DOUBLE_EQ(*stock.at(1.0, true).value(), 36.1);
  EXPECT_DOUBLE_EQ(*stock.at(5.0, true).value(), 36.2);
  // Domain and length mismatches are programming errors.
  EXPECT_THROW(stock.append_updates({6.0}), CheckFailure);
  EXPECT_THROW(stock.append_updates({6.0, 7.0}, {1.0}), CheckFailure);
  VersionedObject page("/page", 0.0);
  EXPECT_THROW(page.append_updates({1.0}, {3.14}), CheckFailure);
}

TEST(VersionedObject, HistorySinceFiltersAndCaps) {
  VersionedObject object("/a", 0.0);
  object.append_updates({10.0, 20.0, 30.0, 40.0, 50.0});
  const ObjectVersion v = object.at(60.0, true);
  EXPECT_EQ(to_vector(v.history_since(0.0, 0)),
            (std::vector<TimePoint>{10.0, 20.0, 30.0, 40.0, 50.0}));
  EXPECT_EQ(to_vector(v.history_since(20.0, 0)),
            (std::vector<TimePoint>{30.0, 40.0, 50.0}));
  // Cap keeps the *most recent* entries.
  EXPECT_EQ(to_vector(v.history_since(0.0, 2)),
            (std::vector<TimePoint>{40.0, 50.0}));
  EXPECT_TRUE(v.history_since(50.0, 0).empty());
  // Only the updates the version has applied.
  EXPECT_EQ(to_vector(object.at(30.0, false).history_since(0.0, 0)),
            (std::vector<TimePoint>{10.0, 20.0}));
}

TEST(VersionedObject, RenderBodyEmbedsVersionAndLinks) {
  VersionedObject object("/news/story", 0.0);
  object.set_embedded_links({"/news/photo1.jpg", "/news/chart.png"});
  object.append_updates({1.0});
  const std::string body = object.at(1.0, true).render_body();
  EXPECT_NE(body.find("version 1"), std::string::npos);
  EXPECT_NE(body.find("src=\"/news/photo1.jpg\""), std::string::npos);
  EXPECT_NE(body.find("src=\"/news/chart.png\""), std::string::npos);
  EXPECT_NE(object.at(0.5, true).render_body().find("version 0"),
            std::string::npos);
}

TEST(VersionedObject, Validation) {
  EXPECT_THROW(VersionedObject("", 0.0), CheckFailure);
  EXPECT_THROW(VersionedObject("/a", -1.0), CheckFailure);
}

TEST(ObjectStore, CreateFindAt) {
  ObjectStore store;
  store.create("/a", 0.0);
  store.create("/b", 0.0, 1.5);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(store.find("/a"), nullptr);
  EXPECT_EQ(store.find("/missing"), nullptr);
  EXPECT_TRUE(store.contains("/b"));
  EXPECT_DOUBLE_EQ(*store.at("/b").at(0.0, true).value(), 1.5);
  EXPECT_THROW(store.at("/missing"), CheckFailure);
  const ObjectId b = store.uri_table().find("/b");
  EXPECT_EQ(store.by_id(b), store.find("/b"));
}

TEST(ObjectStore, ProxyOnlyUrisAreNotHosted) {
  ObjectStore store;
  const ObjectId proxy_only = store.uri_table().intern("/proxy-only");
  store.create("/a", 0.0);
  EXPECT_EQ(store.by_id(proxy_only), nullptr);
  EXPECT_EQ(store.by_id(kInvalidObjectId), nullptr);
  EXPECT_FALSE(store.contains("/proxy-only"));
  EXPECT_EQ(store.size(), 1u);
}

TEST(ObjectStore, RejectsDuplicates) {
  ObjectStore store;
  store.create("/a", 0.0);
  EXPECT_THROW(store.create("/a", 1.0), CheckFailure);
}

TEST(ObjectStore, FrozenStoreRejectsCreation) {
  ObjectStore store;
  store.uri_table().intern("/known");
  store.uri_table().freeze();
  EXPECT_THROW(store.create("/known", 0.0), CheckFailure);
  EXPECT_THROW(store.create("/new", 0.0), CheckFailure);
}

TEST(ObjectStore, UrisSorted) {
  ObjectStore store;
  store.create("/c", 0.0);
  store.create("/a", 0.0);
  store.create("/b", 0.0);
  EXPECT_EQ(store.uris(), (std::vector<std::string>{"/a", "/b", "/c"}));
}

TEST(ObjectStore, PointersStableAcrossInserts) {
  ObjectStore store;
  VersionedObject& a = store.create("/a", 0.0);
  for (int i = 0; i < 100; ++i) {
    store.create("/obj" + std::to_string(i), 0.0);
  }
  a.append_updates({1.0});
  EXPECT_EQ(&store.at("/a"), &a);
  EXPECT_EQ(store.at("/a").at(1.0, true).version(), 1u);
}

}  // namespace
}  // namespace broadway
