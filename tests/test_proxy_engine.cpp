// End-to-end polling-engine behaviour on small deterministic scenarios.
#include "proxy/polling_engine.h"

#include <gtest/gtest.h>

#include <memory>
#include <string_view>

#include "consistency/fixed_poll.h"
#include "consistency/limd.h"
#include "consistency/triggered.h"
#include "consistency/virtual_object.h"
#include "id_of.h"
#include "log_series.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/check.h"

namespace broadway {
namespace {

struct Rig {
  Simulator sim;
  OriginServer origin{sim};
  PollingEngine engine{sim, origin};

  ObjectId id(std::string_view uri) const {
    return id_of(origin.uri_table(), uri);
  }
};

TEST(PollingEngine, InitialFetchPopulatesCache) {
  Rig rig;
  rig.origin.add_object("/a");
  rig.engine.add_temporal_object("/a",
                                 std::make_unique<FixedPollPolicy>(10.0));
  rig.engine.start();
  EXPECT_NE(rig.engine.cache().find(rig.id("/a")), nullptr);
  ASSERT_EQ(rig.engine.poll_log().size(), 1u);
  EXPECT_EQ(rig.engine.poll_log()[0].cause, PollCause::kInitial);
  EXPECT_EQ(rig.engine.polls_performed(), 0u);  // initial excluded
}

TEST(PollingEngine, FixedPolicyPollsOnSchedule) {
  Rig rig;
  rig.origin.add_object("/a");
  rig.engine.add_temporal_object("/a",
                                 std::make_unique<FixedPollPolicy>(10.0));
  rig.engine.start();
  rig.sim.run_until(35.0);
  // Initial at 0, then polls at 10, 20, 30.
  const auto times = completion_times(rig.engine.poll_log(), rig.id("/a"));
  EXPECT_EQ(times, (std::vector<TimePoint>{0.0, 10.0, 20.0, 30.0}));
  EXPECT_EQ(rig.engine.poll_log().polls_performed(rig.id("/a")), 3u);
}

TEST(PollingEngine, ModifiedFlagTracksServerUpdates) {
  Rig rig;
  const UpdateTrace trace("/a", {15.0}, 100.0);
  rig.origin.attach_update_trace("/a", trace);
  rig.engine.add_temporal_object("/a",
                                 std::make_unique<FixedPollPolicy>(10.0));
  rig.engine.start();
  rig.sim.run_until(100.0);
  const auto& log = rig.engine.poll_log();
  // Poll at 10: unchanged; poll at 20: modified; poll at 30: unchanged.
  ASSERT_GE(log.size(), 4u);
  EXPECT_FALSE(log[1].modified);
  EXPECT_TRUE(log[2].modified);
  EXPECT_FALSE(log[3].modified);
}

TEST(PollingEngine, CacheReflectsLatestFetchedVersion) {
  Rig rig;
  const UpdateTrace trace("/a", {15.0, 25.0}, 100.0);
  rig.origin.attach_update_trace("/a", trace);
  rig.engine.add_temporal_object("/a",
                                 std::make_unique<FixedPollPolicy>(10.0));
  rig.engine.start();
  rig.sim.run_until(100.0);
  const CacheEntry* entry = rig.engine.cache().find(rig.id("/a"));
  ASSERT_NE(entry, nullptr);
  EXPECT_DOUBLE_EQ(*entry->last_modified, 25.0);
  EXPECT_GT(entry->refresh_count, 0u);
}

TEST(PollingEngine, LimdBacksOffOnQuietObject) {
  Rig rig;
  rig.origin.add_object("/quiet");
  rig.engine.add_temporal_object(
      "/quiet", std::make_unique<LimdPolicy>(
                    LimdPolicy::Config::paper_defaults(60.0, 600.0)));
  rig.engine.start();
  rig.sim.run_until(3600.0);
  // LIMD grows TTR toward max: strictly fewer polls than fixed-Δ (60).
  EXPECT_LT(rig.engine.poll_log().polls_performed(rig.id("/quiet")), 30u);
  const auto& series = rig.engine.ttr_series("/quiet");
  ASSERT_GE(series.size(), 3u);
  EXPECT_GT(series.back().second, series.front().second);
}

TEST(PollingEngine, TriggeredCoordinatorForcesRelatedPoll) {
  Rig rig;
  const UpdateTrace trace_a("/a", {95.0}, 1000.0);
  rig.origin.attach_update_trace("/a", trace_a);
  rig.origin.add_object("/b");
  // a polls every 100; b polls every 400 (slow).  δ = 50.
  rig.engine.add_temporal_object("/a",
                                 std::make_unique<FixedPollPolicy>(100.0));
  rig.engine.add_temporal_object("/b",
                                 std::make_unique<FixedPollPolicy>(400.0));
  rig.engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/a", "/b"}, 50.0));
  rig.engine.start();
  rig.sim.run_until(150.0);
  // At t=100 the poll of /a sees the update at 95 and triggers /b (whose
  // last poll was 0, next at 400 — both more than δ=50 away).
  EXPECT_EQ(rig.engine.poll_log().triggered_polls(rig.id("/b")), 1u);
  const auto times = completion_times(rig.engine.poll_log(), rig.id("/b"));
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 100.0);
}

TEST(PollingEngine, TriggeredPollReschedulesVictimsTimer) {
  Rig rig;
  const UpdateTrace trace_a("/a", {95.0}, 1000.0);
  rig.origin.attach_update_trace("/a", trace_a);
  rig.origin.add_object("/b");
  rig.engine.add_temporal_object("/a",
                                 std::make_unique<FixedPollPolicy>(100.0));
  rig.engine.add_temporal_object("/b",
                                 std::make_unique<FixedPollPolicy>(400.0));
  rig.engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/a", "/b"}, 50.0));
  rig.engine.start();
  rig.sim.run_until(1000.0);
  // After the triggered poll at 100, /b's schedule continues from there:
  // 500, 900 — not the original 400/800.
  const auto times = completion_times(rig.engine.poll_log(), rig.id("/b"));
  EXPECT_EQ(times,
            (std::vector<TimePoint>{0.0, 100.0, 500.0, 900.0}));
}

TEST(PollingEngine, ValueObjectObservesValues) {
  Rig rig;
  const ValueTrace trace("/stock", 100.0, {{12.0, 101.0}, {40.0, 99.0}},
                         300.0);
  rig.origin.attach_value_trace("/stock", trace);
  AdaptiveValueTtrPolicy::Config config;
  config.delta = 0.5;
  config.bounds = {10.0, 100.0};
  rig.engine.add_value_object("/stock", config);
  rig.engine.start();
  rig.sim.run_until(300.0);
  EXPECT_GT(rig.engine.poll_log().polls_performed(rig.id("/stock")), 2u);
  const CacheEntry* entry = rig.engine.cache().find(rig.id("/stock"));
  ASSERT_NE(entry, nullptr);
  ASSERT_TRUE(entry->value.has_value());
  EXPECT_DOUBLE_EQ(*entry->value, 99.0);
}

TEST(PollingEngine, VirtualGroupPollsAllMembersJointly) {
  Rig rig;
  const ValueTrace ta("/s1", 100.0, {{50.0, 101.0}}, 300.0);
  const ValueTrace tb("/s2", 50.0, {{60.0, 50.5}}, 300.0);
  rig.origin.attach_value_trace("/s1", ta);
  rig.origin.attach_value_trace("/s2", tb);
  VirtualObjectPolicy::Config config;
  config.delta = 0.5;
  config.bounds = {20.0, 100.0};
  rig.engine.add_virtual_group(
      {"/s1", "/s2"},
      std::make_unique<VirtualObjectPolicy>(
          std::make_unique<DifferenceFunction>(), config));
  rig.engine.start();
  rig.sim.run_until(300.0);
  // Joint polls: equal counts for both members, same instants.
  const auto t1 = completion_times(rig.engine.poll_log(), rig.id("/s1"));
  const auto t2 = completion_times(rig.engine.poll_log(), rig.id("/s2"));
  EXPECT_EQ(t1, t2);
  EXPECT_GT(t1.size(), 2u);
}

TEST(PollingEngine, RegistrationValidation) {
  Rig rig;
  rig.origin.add_object("/a");
  rig.engine.add_temporal_object("/a",
                                 std::make_unique<FixedPollPolicy>(10.0));
  // Duplicate registration rejected.
  EXPECT_THROW(rig.engine.add_temporal_object(
                   "/a", std::make_unique<FixedPollPolicy>(10.0)),
               CheckFailure);
  rig.engine.start();
  EXPECT_THROW(rig.engine.start(), CheckFailure);  // double start
  // Late registration rejected.
  EXPECT_THROW(rig.engine.add_temporal_object(
                   "/late", std::make_unique<FixedPollPolicy>(10.0)),
               CheckFailure);
}

TEST(PollingEngine, PollingUnknownObjectFailsLoudly) {
  Rig rig;
  rig.engine.add_temporal_object("/ghost",
                                 std::make_unique<FixedPollPolicy>(10.0));
  EXPECT_THROW(rig.engine.start(), CheckFailure);  // 404 from origin
}

TEST(PollingEngine, RttShiftsCompletionTimes) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig config;
  config.rtt = 2.5;
  PollingEngine engine(sim, origin, config);
  origin.add_object("/a");
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(10.0));
  engine.start();
  sim.run_until(25.0);
  const ObjectId a = id_of(origin.uri_table(), "/a");
  const auto snapshots = snapshot_times(engine.poll_log(), a);
  const auto completions = completion_times(engine.poll_log(), a);
  ASSERT_EQ(snapshots.size(), completions.size());
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_DOUBLE_EQ(completions[i], snapshots[i] + 2.5);
  }
}

}  // namespace
}  // namespace broadway
