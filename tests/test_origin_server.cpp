#include "origin/origin_server.h"

#include <gtest/gtest.h>

#include "http/extensions.h"
#include "origin/push.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/check.h"

namespace broadway {
namespace {

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
  VersionedObject& object = origin.add_object("/page");
  sim.run_until(100.0);
  object.apply_update(100.0);
  const Response resp =
      origin.handle(Request::conditional_get("/page", 50.0));
  EXPECT_TRUE(resp.ok());
  EXPECT_DOUBLE_EQ(*get_last_modified(resp.headers), 100.0);
  EXPECT_EQ(origin.responses_200(), 1u);
}

TEST(OriginServer, HistoryListsUpdatesSinceValidator) {
  Simulator sim;
  OriginServer origin(sim);
  VersionedObject& object = origin.add_object("/page");
  sim.run_until(400.0);
  for (double t : {100.0, 200.0, 300.0}) object.apply_update(t);
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
  VersionedObject& object = origin.add_object("/page");
  sim.run_until(500.0);
  for (double t : {100.0, 200.0, 300.0, 400.0}) object.apply_update(t);
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
  VersionedObject& object = origin.add_object("/page");
  sim.run_until(200.0);
  object.apply_update(100.0);
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
  EXPECT_EQ(origin.store().at("/page").version(), 1u);
  sim.run_until(100.0);
  EXPECT_EQ(origin.store().at("/page").version(), 3u);
  EXPECT_DOUBLE_EQ(origin.store().at("/page").last_modified(), 30.0);
}

TEST(OriginServer, AttachValueTraceDrivesValues) {
  Simulator sim;
  OriginServer origin(sim);
  const ValueTrace trace("/stock", 100.0, {{10.0, 101.0}, {20.0, 99.5}},
                         100.0);
  origin.attach_value_trace("/stock", trace);
  EXPECT_DOUBLE_EQ(*origin.store().at("/stock").value(), 100.0);
  sim.run_until(12.0);
  EXPECT_DOUBLE_EQ(*origin.store().at("/stock").value(), 101.0);
  sim.run_until(50.0);
  EXPECT_DOUBLE_EQ(*origin.store().at("/stock").value(), 99.5);
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
  VersionedObject& object = origin.add_object("/page");
  Request req;
  req.uri = "/page";
  const std::string v0 = origin.handle(req).body;
  sim.run_until(10.0);
  object.apply_update(10.0);
  const std::string v1 = origin.handle(req).body;
  EXPECT_NE(v0, v1);
}

// ---- trace-backed objects: the same-instant rule -------------------------
//
// Queued trace updates apply when the object is read.  An update at
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
  const CacheEntry* initial = proxy.cache().find("/stock");
  ASSERT_NE(initial, nullptr);
  ASSERT_TRUE(initial->value.has_value());
  EXPECT_DOUBLE_EQ(*initial->value, 100.0);
  EXPECT_EQ(initial->snapshot_time, 0.0);
  // Once the simulator has entered t = 0 the step is visible.
  sim.run_until(0.0);
  const ObjectId id = origin.object_id("/stock");
  EXPECT_DOUBLE_EQ(*origin.object_by_id(id)->value(), 101.0);
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
  // The later update stays queued until its instant.
  EXPECT_EQ(origin.store().at("/page").version(), 1u);
  EXPECT_EQ(origin.store().at("/page").queued(), 1u);
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

TEST(OriginTraceReplay, UnreadObjectStaysAtVersionZeroUntilCaughtUp) {
  Simulator sim;
  OriginServer origin(sim);
  const VersionedObject& by_store =
      origin.attach_update_trace("/a", UpdateTrace("/a", {1.0, 2.0}, 10.0));
  const VersionedObject& by_id = origin.attach_update_trace(
      "/b", UpdateTrace("/b", {3.0, 4.0, 5.0}, 10.0));
  sim.run_until(10.0);
  // Nothing read either object: no update was applied, none scheduled.
  EXPECT_EQ(sim.executed(), 0u);
  EXPECT_EQ(by_store.version(), 0u);
  EXPECT_EQ(by_id.version(), 0u);
  EXPECT_EQ(by_id.queued(), 3u);

  EXPECT_EQ(origin.object_by_id(origin.object_id("/b"))->version(), 3u);
  EXPECT_EQ(by_id.queued(), 0u);
  EXPECT_EQ(by_store.version(), 0u);  // object_by_id caught up /b only

  EXPECT_EQ(origin.store().at("/a").version(), 2u);
  EXPECT_DOUBLE_EQ(by_store.last_modified(), 2.0);
}

TEST(OriginTraceReplay, RejectsUpdatesInThePastOrOutOfOrder) {
  Simulator sim;
  OriginServer origin(sim);
  sim.run_until(10.0);
  EXPECT_THROW(
      origin.attach_update_trace("/late", UpdateTrace("/late", {5.0}, 20.0)),
      CheckFailure);
  VersionedObject& page = origin.add_object("/page");
  page.apply_update(10.0);
  EXPECT_THROW(page.queue_updates({12.0, 11.0}), CheckFailure);
  EXPECT_THROW(page.queue_updates({12.0}, {1.0}), CheckFailure);
  // One pending trace per object.
  page.queue_updates({12.0});
  EXPECT_THROW(page.queue_updates({13.0}), CheckFailure);
}

}  // namespace
}  // namespace broadway
