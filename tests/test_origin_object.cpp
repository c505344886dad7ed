#include "origin/object.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "id_of.h"
#include "origin/store.h"
#include "util/check.h"
#include "util/rng.h"

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

// Every instant a search can land on for `updates`: each update, the
// midpoints between them, and one before the first and after the last.
std::vector<TimePoint> probe_instants(const std::vector<TimePoint>& updates) {
  std::vector<TimePoint> probes = {-1.0, 1000.0};
  for (std::size_t i = 0; i < updates.size(); ++i) {
    probes.push_back(updates[i]);
    if (i + 1 < updates.size()) {
      probes.push_back(0.5 * (updates[i] + updates[i + 1]));
    }
  }
  return probes;
}

// Traces of 0..40 updates with same-instant runs (several updates at one
// instant are legal on an object).
std::vector<std::vector<TimePoint>> sample_traces() {
  std::vector<std::vector<TimePoint>> traces = {{}, {5.0}, {5.0, 5.0}};
  Rng rng(42);
  for (int n = 2; n <= 40; n += 3) {
    std::vector<TimePoint> updates;
    for (int i = 0; i < n; ++i) {
      updates.push_back(static_cast<double>(rng.uniform_int(1, n)));
    }
    std::sort(updates.begin(), updates.end());
    traces.push_back(std::move(updates));
  }
  return traces;
}

TEST(VersionedObject, GallopingReadMatchesAWholeTraceSearch) {
  // at() gallops from its hint; any hint — behind the answer, ahead of it
  // or past the end — must give the whole-trace search's answer.
  for (const std::vector<TimePoint>& updates : sample_traces()) {
    VersionedObject object("/a", 0.0);
    object.append_updates(updates);
    for (const TimePoint now : probe_instants(updates)) {
      const auto upper = static_cast<std::size_t>(
          std::upper_bound(updates.begin(), updates.end(), now) -
          updates.begin());
      const auto lower = static_cast<std::size_t>(
          std::lower_bound(updates.begin(), updates.end(), now) -
          updates.begin());
      for (std::size_t from = 0; from <= updates.size() + 1; ++from) {
        SCOPED_TRACE(testing::Message() << updates.size() << " updates, now "
                                        << now << ", from " << from);
        EXPECT_EQ(object.at(now, true, from).version(), upper);
        EXPECT_EQ(object.at(now, false, from).version(), lower);
      }
    }
  }
}

TEST(VersionedObject, HistorySinceMatchesAWholeTraceSearch) {
  for (const std::vector<TimePoint>& updates : sample_traces()) {
    VersionedObject object("/a", 0.0);
    object.append_updates(updates);
    for (std::size_t version = 0; version <= updates.size(); ++version) {
      const ObjectVersion v(object, version);
      const TimePoint* begin = object.updates().data();
      const TimePoint* end = begin + version;
      for (const TimePoint t : probe_instants(updates)) {
        SCOPED_TRACE(testing::Message() << updates.size() << " updates, version "
                                        << version << ", since " << t);
        for (std::size_t limit = 0; limit <= updates.size() + 1; ++limit) {
          const TimePoint* first = std::upper_bound(begin, end, t);
          if (limit > 0 && static_cast<std::size_t>(end - first) > limit) {
            first = end - limit;
          }
          const std::span<const TimePoint> history = v.history_since(t, limit);
          EXPECT_EQ(history.data(), first) << "limit " << limit;
          EXPECT_EQ(history.size(), static_cast<std::size_t>(end - first))
              << "limit " << limit;
        }
      }
    }
  }
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

TEST(ObjectStore, CreateAndFind) {
  ObjectStore store;
  store.create("/a", 0.0);
  store.create("/b", 0.0, 1.5);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_NE(store.find("/a"), nullptr);
  EXPECT_EQ(store.find("/missing"), nullptr);
  EXPECT_TRUE(store.contains("/b"));
  const ObjectId b = id_of(store.uri_table(), "/b");
  ASSERT_NE(store.by_id(b), nullptr);
  EXPECT_EQ(store.by_id(b), store.find("/b"));
  EXPECT_DOUBLE_EQ(*store.by_id(b)->at(0.0, true).value(), 1.5);
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

TEST(ObjectStore, PointersStableAcrossInserts) {
  ObjectStore store;
  VersionedObject& a = store.create("/a", 0.0);
  for (int i = 0; i < 100; ++i) {
    store.create("/obj" + std::to_string(i), 0.0);
  }
  a.append_updates({1.0});
  EXPECT_EQ(store.find("/a"), &a);
  const VersionedObject* found = store.by_id(id_of(store.uri_table(), "/a"));
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->at(1.0, true).version(), 1u);
}

}  // namespace
}  // namespace broadway
