#include "origin/origin_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>

#include "http/extensions.h"
#include "id_of.h"
#include "origin/push.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

/// `uri` as `origin` serves it now.
ObjectVersion read(const OriginServer& origin, const std::string& uri) {
  const auto version = origin.read(origin.object_id(uri));
  BROADWAY_CHECK(version.has_value());
  return *version;
}

TEST(OriginServer, UnknownUriIs404) {
  Simulator sim;
  OriginServer origin(sim);
  Request req;
  req.uri = "/missing";
  EXPECT_EQ(origin.handle(req).status, StatusCode::kNotFound);
}

TEST(OriginServer, UnconditionalGetReturnsFullResponse) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/page");
  Request req;
  req.uri = "/page";
  const Response resp = origin.handle(req);
  EXPECT_TRUE(resp.ok());
  EXPECT_FALSE(resp.body.empty());
  EXPECT_TRUE(get_last_modified(resp.headers).has_value());
}

TEST(OriginServer, ConditionalGetFreshIs304) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/page");
  sim.run_until(100.0);
  const Response resp =
      origin.handle(Request::conditional_get("/page", 50.0));
  EXPECT_TRUE(resp.not_modified());
  EXPECT_TRUE(resp.body.empty());
  EXPECT_EQ(origin.responses_304(), 1u);
}

TEST(OriginServer, ConditionalGetStaleIs200) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/page", UpdateTrace("/page", {100.0}, 200.0));
  sim.run_until(100.0);
  const Response resp =
      origin.handle(Request::conditional_get("/page", 50.0));
  EXPECT_TRUE(resp.ok());
  EXPECT_DOUBLE_EQ(*get_last_modified(resp.headers), 100.0);
  EXPECT_EQ(origin.responses_200(), 1u);
}

TEST(OriginServer, HistoryListsUpdatesSinceValidator) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace(
      "/page", UpdateTrace("/page", {100.0, 200.0, 300.0}, 400.0));
  sim.run_until(400.0);
  const Response resp =
      origin.handle(Request::conditional_get("/page", 150.0));
  const auto history = get_modification_history(resp.headers);
  ASSERT_TRUE(history.has_value());
  ASSERT_EQ(history->size(), 2u);  // 200, 300
  EXPECT_NEAR((*history)[0], 200.0, 1e-3);
  EXPECT_NEAR((*history)[1], 300.0, 1e-3);
}

TEST(OriginServer, HistoryLimitKeepsNewest) {
  Simulator sim;
  OriginServer::Config config;
  config.history_enabled = true;
  config.history_limit = 2;
  OriginServer origin(sim, config);
  origin.attach_update_trace(
      "/page", UpdateTrace("/page", {100.0, 200.0, 300.0, 400.0}, 500.0));
  sim.run_until(500.0);
  const Response resp =
      origin.handle(Request::conditional_get("/page", 50.0));
  const auto history = get_modification_history(resp.headers);
  ASSERT_TRUE(history.has_value());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_NEAR((*history)[0], 300.0, 1e-3);
  EXPECT_NEAR((*history)[1], 400.0, 1e-3);
}

TEST(OriginServer, HistoryCanBeDisabled) {
  Simulator sim;
  OriginServer::Config config;
  config.history_enabled = false;
  OriginServer origin(sim, config);
  origin.attach_update_trace("/page", UpdateTrace("/page", {100.0}, 200.0));
  sim.run_until(200.0);
  const Response resp =
      origin.handle(Request::conditional_get("/page", 50.0));
  EXPECT_TRUE(resp.ok());
  EXPECT_FALSE(resp.headers.has(kHdrModificationHistory));
}

TEST(OriginServer, ValueObjectsCarryValueHeader) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_value_object("/stock", 36.10);
  Request req;
  req.uri = "/stock";
  const Response resp = origin.handle(req);
  EXPECT_DOUBLE_EQ(*get_object_value(resp.headers), 36.10);
}

TEST(OriginServer, AttachUpdateTraceDrivesUpdates) {
  Simulator sim;
  OriginServer origin(sim);
  const UpdateTrace trace("/page", {10.0, 20.0, 30.0}, 100.0);
  origin.attach_update_trace("/page", trace);
  sim.run_until(15.0);
  EXPECT_EQ(read(origin, "/page").version(), 1u);
  sim.run_until(100.0);
  EXPECT_EQ(read(origin, "/page").version(), 3u);
  EXPECT_DOUBLE_EQ(read(origin, "/page").last_modified(), 30.0);
}

TEST(OriginServer, AttachValueTraceDrivesValues) {
  Simulator sim;
  OriginServer origin(sim);
  const ValueTrace trace("/stock", 100.0, {{10.0, 101.0}, {20.0, 99.5}},
                         100.0);
  origin.attach_value_trace("/stock", trace);
  EXPECT_DOUBLE_EQ(*read(origin, "/stock").value(), 100.0);
  sim.run_until(12.0);
  EXPECT_DOUBLE_EQ(*read(origin, "/stock").value(), 101.0);
  sim.run_until(50.0);
  EXPECT_DOUBLE_EQ(*read(origin, "/stock").value(), 99.5);
}

TEST(OriginServer, RequestCountersTrack) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/page");
  Request req;
  req.uri = "/page";
  origin.handle(req);
  origin.handle(Request::conditional_get("/page", 1000.0));
  Request missing;
  missing.uri = "/nope";
  origin.handle(missing);
  EXPECT_EQ(origin.requests_served(), 3u);
  EXPECT_EQ(origin.responses_200(), 1u);
  EXPECT_EQ(origin.responses_304(), 1u);
}

TEST(OriginServer, HeadReturnsHeadersWithoutBody) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/page");
  Request get;
  get.uri = "/page";
  const Response full = origin.handle(get);
  Request head = get;
  head.method = Method::kHead;
  const Response bare = origin.handle(head);
  EXPECT_TRUE(bare.ok());
  EXPECT_TRUE(bare.body.empty());
  // Content-Length still describes the GET body (RFC 2616 §9.4).
  EXPECT_EQ(*bare.headers.get("Content-Length"),
            std::to_string(full.body.size()));
  EXPECT_EQ(*bare.headers.get(kHdrLastModified),
            *full.headers.get(kHdrLastModified));
}

TEST(OriginServer, BodyChangesAcrossVersions) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/page", UpdateTrace("/page", {10.0}, 20.0));
  Request req;
  req.uri = "/page";
  const std::string v0 = origin.handle(req).body;
  sim.run_until(10.0);
  const std::string v1 = origin.handle(req).body;
  EXPECT_NE(v0, v1);
}

// ---- trace-backed objects: the same-instant rule -------------------------
//
// A read sees the trace updates due at the reader's clock.  An update at
// t < now() is always visible; one at t == now() only once the simulator
// has entered now() — exactly when an eager replay (one event per update,
// scheduled at attach time) would have fired it.

TEST(OriginTraceReplay, QueuedEventSeesTheUpdateAtItsInstant) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/page", UpdateTrace("/page", {10.0}, 100.0));
  std::optional<TimePoint> seen;
  sim.schedule_at(10.0, [&] {
    Request request;
    request.uri = "/page";
    seen = get_last_modified(origin.handle(request).headers);
  });
  sim.run();
  ASSERT_TRUE(seen.has_value());
  EXPECT_DOUBLE_EQ(*seen, 10.0);
}

TEST(OriginTraceReplay, StartFetchAtZeroDoesNotSeeAZeroStep) {
  // Stock traces clamp steps to exactly t = 0, and PollingEngine::start()
  // fetches synchronously before any event fires: the eager replay had not
  // applied the t = 0 step yet, so the initial copy holds the initial
  // value.  A naive `t <= now` catch-up fails here.
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_value_trace(
      "/stock", ValueTrace("/stock", 100.0, {{0.0, 101.0}, {50.0, 102.0}},
                           100.0));
  PollingEngine proxy(sim, origin);
  AdaptiveValueTtrPolicy::Config policy;
  policy.delta = 0.5;
  policy.bounds = {10.0, 60.0};
  proxy.add_value_object("/stock", policy);
  proxy.start();
  const CacheEntry* initial =
      proxy.cache().find(id_of(origin.uri_table(), "/stock"));
  ASSERT_NE(initial, nullptr);
  ASSERT_TRUE(initial->value.has_value());
  EXPECT_DOUBLE_EQ(*initial->value, 100.0);
  EXPECT_EQ(initial->snapshot_time, 0.0);
  // Once the simulator has entered t = 0 the step is visible.
  sim.run_until(0.0);
  const ObjectId id = origin.object_id("/stock");
  EXPECT_DOUBLE_EQ(*origin.read(id)->value(), 101.0);
}

TEST(OriginTraceReplay, HandleRightAfterRunUntilSeesTheUpdate) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/page",
                             UpdateTrace("/page", {10.0, 20.0}, 100.0));
  sim.run_until(9.5);
  EXPECT_TRUE(
      origin.handle(Request::conditional_get("/page", 0.0)).not_modified());
  sim.run_until(10.0);
  const Response at_ten = origin.handle(Request::conditional_get("/page", 0.0));
  ASSERT_TRUE(at_ten.ok());
  EXPECT_DOUBLE_EQ(*get_last_modified(at_ten.headers), 10.0);
  // The later update stays invisible until its instant.
  EXPECT_EQ(read(origin, "/page").version(), 1u);
  const VersionedObject* page =
      origin.object_by_id(id_of(origin.uri_table(), "/page"));
  ASSERT_NE(page, nullptr);
  EXPECT_EQ(page->updates().size(), 2u);
}

TEST(OriginTraceReplay, KeptNextDueInstantWaitsUntilTheClockReachesIt) {
  // A reader keeps the instant of the next update it has not seen, and a
  // read before that instant answers from what it kept.  At the instant
  // itself the update shows only once the simulator has entered it.
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/page", UpdateTrace("/page", {0.0, 10.0}, 100.0));
  origin.attach_update_trace("/page", UpdateTrace("/page", {10.0}, 100.0));
  // At t = 0, not yet entered: the t = 0 update is the next one due.
  EXPECT_EQ(read(origin, "/page").version(), 0u);
  EXPECT_TRUE(
      origin.handle(Request::conditional_get("/page", 0.0)).not_modified());
  sim.run_until(0.0);  // same clock, now entered
  EXPECT_EQ(read(origin, "/page").version(), 1u);
  sim.run_until(9.5);
  EXPECT_EQ(read(origin, "/page").version(), 1u);
  std::size_t at_ten = 0;
  std::optional<TimePoint> modified_at_ten;
  sim.schedule_at(10.0, [&] {
    at_ten = read(origin, "/page").version();
    modified_at_ten = get_last_modified(
        origin.handle(Request::conditional_get("/page", 0.0)).headers);
  });
  sim.run();
  // Both same-instant updates at 10 arrive together.
  EXPECT_EQ(at_ten, 3u);
  ASSERT_TRUE(modified_at_ten.has_value());
  EXPECT_DOUBLE_EQ(*modified_at_ten, 10.0);
  // Past the last update nothing more is due; the kept answer holds.
  sim.run_until(50.0);
  EXPECT_TRUE(
      origin.handle(Request::conditional_get("/page", 10.0)).not_modified());
  EXPECT_EQ(read(origin, "/page").version(), 3u);
}

TEST(OriginTraceReplay, PushDeliveryAtAnInstantCarriesItsUpdateNewestLast) {
  Simulator sim;
  OriginServer origin(sim);
  // A 2 s coalescing window: the push armed by the update at 5 delivers
  // at 7, the instant of the last update it carries.
  PushChannel channel(sim, origin, 2.0);
  origin.add_object("/a");
  std::vector<std::pair<TimePoint, std::vector<TimePoint>>> deliveries;
  channel.subscribe("/a", [&](const std::string&, const Response& response) {
    deliveries.emplace_back(
        sim.now(), get_modification_history(response.headers).value());
  });
  channel.attach_pushed_trace("/a", UpdateTrace("/a", {5.0, 6.0, 7.0}, 20.0));
  sim.run_until(20.0);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_DOUBLE_EQ(deliveries[0].first, 7.0);
  ASSERT_EQ(deliveries[0].second.size(), 3u);
  EXPECT_NEAR(deliveries[0].second[0], 5.0, 1e-3);
  EXPECT_NEAR(deliveries[0].second[1], 6.0, 1e-3);
  EXPECT_NEAR(deliveries[0].second.back(), 7.0, 1e-3);
  EXPECT_EQ(channel.updates_coalesced(), 2u);
}

TEST(OriginTraceReplay, ReadsScheduleNothingAndMutateNothing) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/a", UpdateTrace("/a", {1.0, 2.0}, 10.0));
  origin.attach_update_trace("/b",
                             UpdateTrace("/b", {3.0, 4.0, 5.0}, 10.0));
  sim.run_until(10.0);
  EXPECT_EQ(sim.executed(), 0u);  // no update was ever scheduled
  EXPECT_EQ(read(origin, "/b").version(), 3u);
  EXPECT_EQ(read(origin, "/a").version(), 2u);
  EXPECT_DOUBLE_EQ(read(origin, "/a").last_modified(), 2.0);

  // A reader at an earlier clock, sharing the content, still sees the
  // earlier versions: the later read above changed nothing.
  Simulator earlier;
  OriginServer behind(earlier, origin);
  earlier.run_until(3.5);
  EXPECT_EQ(read(behind, "/b").version(), 1u);
  EXPECT_EQ(read(behind, "/a").version(), 2u);
  EXPECT_EQ(read(origin, "/b").version(), 3u);
}

TEST(OriginTraceReplay, RejectsUpdatesInThePastOrOutOfOrder) {
  Simulator sim;
  OriginServer origin(sim);
  sim.run_until(10.0);
  EXPECT_THROW(
      origin.attach_update_trace("/late", UpdateTrace("/late", {5.0}, 20.0)),
      CheckFailure);
  VersionedObject& page = origin.add_object("/page");
  EXPECT_THROW(page.append_updates({12.0, 11.0}), CheckFailure);
  EXPECT_THROW(page.append_updates({12.0}, {1.0}), CheckFailure);
  origin.attach_update_trace("/page", UpdateTrace("/page", {12.0}, 20.0));
  // A second trace continues the first; it may not reach back before it.
  EXPECT_THROW(
      origin.attach_update_trace("/page", UpdateTrace("/page", {11.0}, 20.0)),
      CheckFailure);
  origin.attach_update_trace("/page", UpdateTrace("/page", {13.0}, 20.0));
  sim.run_until(20.0);
  EXPECT_EQ(read(origin, "/page").version(), 2u);
}

// ---- one content, many readers --------------------------------------------

TEST(OriginSharing, ReadersShareContentButNotClocksOrCounters) {
  Simulator owner_sim;
  OriginServer::Config config;
  config.history_limit = 1;
  OriginServer owner(owner_sim, config);
  owner.attach_update_trace("/a", UpdateTrace("/a", {10.0, 20.0}, 30.0));
  Simulator reader_sim;
  OriginServer reader(reader_sim, owner);
  EXPECT_EQ(&reader.uri_table(), &owner.uri_table());
  EXPECT_EQ(&reader.store(), &owner.store());
  EXPECT_EQ(reader.config().history_limit, 1u);

  owner_sim.run_until(25.0);
  reader_sim.run_until(15.0);
  const Response late = owner.handle(Request::conditional_get("/a", 0.0));
  const Response early = reader.handle(Request::conditional_get("/a", 0.0));
  EXPECT_DOUBLE_EQ(*get_last_modified(late.headers), 20.0);
  EXPECT_DOUBLE_EQ(*get_last_modified(early.headers), 10.0);
  reader.handle(Request::conditional_get("/a", 12.0));  // 304 at 15
  EXPECT_EQ(owner.requests_served(), 1u);
  EXPECT_EQ(owner.responses_200(), 1u);
  EXPECT_EQ(reader.requests_served(), 2u);
  EXPECT_EQ(reader.responses_200(), 1u);
  EXPECT_EQ(reader.responses_304(), 1u);
}

TEST(OriginSharing, FrozenContentRejectsAnyChange) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/page");
  Simulator shard_sim;
  OriginServer shard(shard_sim, origin);
  origin.uri_table().freeze();
  const UpdateTrace trace("/page", {5.0}, 10.0);
  EXPECT_THROW(origin.attach_update_trace("/page", trace), CheckFailure);
  EXPECT_THROW(shard.attach_update_trace("/page", trace), CheckFailure);
  EXPECT_THROW(shard.add_object("/new"), CheckFailure);
  EXPECT_THROW(
      origin.attach_value_trace("/v", ValueTrace("/v", 1.0, {}, 10.0)),
      CheckFailure);
  // Reads still work, at each reader's clock.
  EXPECT_EQ(read(shard, "/page").version(), 0u);
}

// ---- property: the typed response is a pure function of the trace ----------
//
// A naive model computed from the trace alone — count the due instants by
// linear scan — must agree with every typed response, whatever the reader's
// clock, the validator and the history cap.  Two readers share the content
// and advance their own clocks; their queries interleave in shuffled
// order, so reads at a later clock alternate with reads at an earlier one.

struct TraceModel {
  std::string uri;
  std::optional<double> initial;  // value-domain objects only
  std::vector<TimePoint> times;
  std::vector<double> values;
};

std::size_t model_due(const TraceModel& m, TimePoint t, bool reached) {
  std::size_t due = 0;
  for (const TimePoint u : m.times) {
    if (u < t || (reached && u == t)) ++due;
  }
  return due;
}

void expect_model_response(const TraceModel& m, TimePoint t, bool reached,
                           std::optional<TimePoint> since, std::size_t limit,
                           const Response& response) {
  SCOPED_TRACE(testing::Message() << m.uri << " t=" << t << " reached="
                                  << reached << " since="
                                  << (since ? *since : -1.0)
                                  << " limit=" << limit);
  const std::size_t due = model_due(m, t, reached);
  const TimePoint last = due == 0 ? 0.0 : m.times[due - 1];
  ASSERT_TRUE(response.meta.active);
  EXPECT_EQ(response.meta.last_modified, quantize_wire_seconds(last));
  if (since && !(last > *since)) {
    EXPECT_EQ(response.status, StatusCode::kNotModified);
    EXPECT_FALSE(response.meta.value.has_value());
    EXPECT_FALSE(response.meta.history_present);
    return;
  }
  EXPECT_EQ(response.status, StatusCode::kOk);
  std::optional<double> value = m.initial;
  if (due > 0 && !m.values.empty()) value = m.values[due - 1];
  EXPECT_EQ(response.meta.value, value);
  std::vector<TimePoint> history;
  for (std::size_t i = 0; i < due; ++i) {
    if (m.times[i] > since.value_or(0.0)) {
      history.push_back(quantize_wire_seconds(m.times[i]));
    }
  }
  if (limit > 0 && history.size() > limit) {
    history.erase(history.begin(), history.end() - limit);
  }
  EXPECT_TRUE(response.meta.history_present);
  EXPECT_EQ(response.meta.history, history);
}

TEST(OriginProperty, TypedResponseMatchesANaiveTraceModel) {
  constexpr double kHorizon = 100.0;
  for (const std::uint64_t seed : {1u, 7u, 9001u}) {
    Rng rng(seed);
    // Instants on a 0.5 s grid (so queries land on them exactly and
    // traces share instants) plus sub-ms jitter on some, to exercise the
    // wire quantisation.
    const auto random_trace = [&rng](std::size_t n) {
      std::vector<TimePoint> times;
      for (std::size_t i = 0; i < n; ++i) {
        TimePoint t = 0.5 * static_cast<double>(rng.uniform_int(0, 190));
        if (rng.bernoulli(0.3)) t += 0.0001 * rng.uniform_int(1, 9);
        times.push_back(t);
      }
      std::sort(times.begin(), times.end());
      times.erase(std::unique(times.begin(), times.end()), times.end());
      return times;
    };
    std::vector<TraceModel> models;
    for (int i = 0; i < 3; ++i) {
      models.push_back({"/page" + std::to_string(i), std::nullopt,
                        random_trace(rng.uniform_int(0, 30)), {}});
    }
    for (int i = 0; i < 3; ++i) {
      TraceModel m{"/stock" + std::to_string(i), rng.uniform(10.0, 20.0),
                   random_trace(rng.uniform_int(0, 30)), {}};
      for (std::size_t k = 0; k < m.times.size(); ++k) {
        m.values.push_back(rng.uniform(10.0, 20.0));
      }
      models.push_back(std::move(m));
    }
    // Query clocks: 0, every trace instant, and random instants.
    std::vector<TimePoint> clocks = {0.0};
    for (const TraceModel& m : models) {
      clocks.insert(clocks.end(), m.times.begin(), m.times.end());
    }
    for (int i = 0; i < 40; ++i) clocks.push_back(rng.uniform(0.0, kHorizon));

    for (const std::size_t limit : {0u, 1u, 16u}) {
      Simulator setup;
      OriginServer::Config config;
      config.history_limit = limit;
      config.render_bodies = false;
      OriginServer content(setup, config);
      for (const TraceModel& m : models) {
        if (m.initial) {
          std::vector<ValueTrace::Step> steps;
          for (std::size_t k = 0; k < m.times.size(); ++k) {
            steps.push_back({m.times[k], m.values[k]});
          }
          content.attach_value_trace(
              m.uri, ValueTrace(m.uri, *m.initial, steps, kHorizon));
        } else {
          content.attach_update_trace(m.uri,
                                      UpdateTrace(m.uri, m.times, kHorizon));
        }
      }
      content.uri_table().freeze();

      struct Reader {
        Simulator sim;
        std::unique_ptr<OriginServer> origin;
        std::vector<TimePoint> clocks;  // ascending
        std::size_t next = 0;
      };
      std::array<Reader, 2> readers;
      for (Reader& reader : readers) {
        reader.origin = std::make_unique<OriginServer>(reader.sim, content);
      }
      for (const TimePoint t : clocks) {
        readers[rng.uniform_int(0, 1)].clocks.push_back(t);
      }
      for (Reader& reader : readers) {
        std::sort(reader.clocks.begin(), reader.clocks.end());
        reader.clocks.insert(reader.clocks.begin(), 0.0);
      }
      Response response;
      while (readers[0].next < readers[0].clocks.size() ||
             readers[1].next < readers[1].clocks.size()) {
        std::size_t pick = static_cast<std::size_t>(rng.uniform_int(0, 1));
        if (readers[pick].next == readers[pick].clocks.size()) pick ^= 1;
        Reader& reader = readers[pick];
        const TimePoint t = reader.clocks[reader.next];
        // Each reader's first query happens at 0 before its simulator has
        // entered it; every later one after run_until(t).
        if (reader.next++ > 0) reader.sim.run_until(t);
        const bool reached = reader.sim.reached(t);
        for (const TraceModel& m : models) {
          const ObjectId id = content.object_id(m.uri);
          const VersionedObject* object = content.object_by_id(id);
          ASSERT_NE(object, nullptr);
          // The object-level view, also at the clock a reader never
          // queries from (t > 0, instant not yet entered).
          for (const bool inclusive : {false, true}) {
            EXPECT_EQ(object->at(t, inclusive).version(),
                      model_due(m, t, inclusive));
          }
          std::vector<std::optional<TimePoint>> validators = {
              std::nullopt, rng.uniform(0.0, kHorizon)};
          if (!m.times.empty()) {
            const auto pick_instant = static_cast<std::size_t>(
                rng.uniform_int(0, std::ssize(m.times) - 1));
            validators.push_back(m.times[pick_instant]);
          }
          for (const auto& since : validators) {
            Request request;
            request.uri = m.uri;
            request.object = rng.bernoulli(0.5) ? id : kInvalidObjectId;
            request.meta.active = true;
            if (since) {
              request.meta.if_modified_since = quantize_wire_seconds(*since);
            }
            reader.origin->handle(request, response);
            expect_model_response(m, t, reached,
                                  request.meta.if_modified_since, limit,
                                  response);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace broadway
