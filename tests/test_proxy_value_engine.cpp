// Direct engine coverage of the value-domain bindings: partitioned
// groups, virtual groups under loss/RTT, and mixed registrations.
#include <gtest/gtest.h>

#include <memory>

#include "consistency/fixed_poll.h"
#include "consistency/partitioned.h"
#include "consistency/virtual_object.h"
#include "id_of.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/value_trace.h"
#include "util/check.h"

namespace broadway {
namespace {

ValueTrace ramp_trace(const std::string& name, double start, double slope,
                      Duration duration, Duration step) {
  std::vector<ValueTrace::Step> steps;
  for (TimePoint t = step; t < duration; t += step) {
    steps.push_back(ValueTrace::Step{t, start + slope * t});
  }
  return ValueTrace(name, start, std::move(steps), duration);
}

TEST(ValueEngine, PartitionedGroupPollsBothIndependently) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  // Fast ramp vs flat object.
  const ValueTrace fast = ramp_trace("/fast", 100.0, 0.01, 600.0, 5.0);
  const ValueTrace slow("/slow", 50.0, {}, 600.0);
  origin.attach_value_trace(fast.name(), fast);
  origin.attach_value_trace(slow.name(), slow);

  PartitionedTolerancePolicy::Config config;
  config.delta = 1.0;
  config.bounds = {2.0, 120.0};
  engine.add_partitioned_group(
      {fast.name(), slow.name()},
      std::make_unique<PartitionedTolerancePolicy>(
          std::make_unique<DifferenceFunction>(), config));
  engine.start();
  sim.run_until(600.0);

  // The moving object must be polled more often than the flat one, and
  // their schedules are independent (different counts).
  const PollLog& log = engine.poll_log();
  const std::size_t fast_polls =
      log.polls_performed(id_of(origin.uri_table(), fast.name()));
  const std::size_t slow_polls =
      log.polls_performed(id_of(origin.uri_table(), slow.name()));
  EXPECT_GT(fast_polls, slow_polls);
  EXPECT_GT(slow_polls, 0u);
}

TEST(ValueEngine, PartitionedGroupArityMismatchRejected) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  PartitionedTolerancePolicy::Config config;
  config.delta = 1.0;
  EXPECT_THROW(
      engine.add_partitioned_group(
          {"/only-one"},
          std::make_unique<PartitionedTolerancePolicy>(
              std::make_unique<DifferenceFunction>(), config)),
      CheckFailure);
}

TEST(ValueEngine, VirtualGroupWithRtt) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig engine_config;
  engine_config.rtt = 1.5;
  PollingEngine engine(sim, origin, engine_config);
  const ValueTrace a = ramp_trace("/a", 100.0, 0.005, 600.0, 10.0);
  const ValueTrace b("/b", 50.0, {}, 600.0);
  origin.attach_value_trace(a.name(), a);
  origin.attach_value_trace(b.name(), b);

  VirtualObjectPolicy::Config config;
  config.delta = 1.0;
  config.bounds = {5.0, 120.0};
  engine.add_virtual_group(
      {a.name(), b.name()},
      std::make_unique<VirtualObjectPolicy>(
          std::make_unique<DifferenceFunction>(), config));
  engine.start();
  sim.run_until(600.0);

  const ObjectId id = id_of(origin.uri_table(), a.name());
  const auto snapshots = engine.poll_log().snapshot_times(id);
  const auto completions = engine.poll_log().completion_times(id);
  ASSERT_GT(snapshots.size(), 2u);
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    EXPECT_DOUBLE_EQ(completions[i], snapshots[i] + 1.5);
  }
}

TEST(ValueEngine, VirtualGroupSurvivesLoss) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig engine_config;
  engine_config.loss_probability = 0.3;
  engine_config.retry_delay = 1.0;
  engine_config.seed = 5;
  PollingEngine engine(sim, origin, engine_config);
  const ValueTrace a = ramp_trace("/a", 100.0, 0.01, 600.0, 5.0);
  const ValueTrace b = ramp_trace("/b", 50.0, 0.002, 600.0, 20.0);
  origin.attach_value_trace(a.name(), a);
  origin.attach_value_trace(b.name(), b);

  VirtualObjectPolicy::Config config;
  config.delta = 0.5;
  config.bounds = {2.0, 60.0};
  engine.add_virtual_group(
      {a.name(), b.name()},
      std::make_unique<VirtualObjectPolicy>(
          std::make_unique<DifferenceFunction>(), config));
  engine.start();
  sim.run_until(600.0);

  EXPECT_GT(engine.failed_polls(), 0u);
  EXPECT_GT(engine.polls_performed(), 20u);  // retries kept it alive
  // A joint poll can fail on its second member after the first succeeded
  // (the whole group then retries), so the member counts may differ — but
  // never by more than the number of failures.
  const std::size_t polls_a = engine.poll_log().polls_performed(
      id_of(origin.uri_table(), a.name()));
  const std::size_t polls_b = engine.poll_log().polls_performed(
      id_of(origin.uri_table(), b.name()));
  const std::size_t diff =
      polls_a > polls_b ? polls_a - polls_b : polls_b - polls_a;
  EXPECT_LE(diff, engine.failed_polls());
}

TEST(ValueEngine, MixedTemporalAndValueObjects) {
  // One engine tracking both domains at once (a realistic proxy).
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  const ValueTrace stock = ramp_trace("/stock", 100.0, 0.01, 600.0, 5.0);
  origin.attach_value_trace(stock.name(), stock);
  const UpdateTrace page("/page", {100.0, 200.0}, 600.0);
  origin.attach_update_trace(page.name(), page);

  AdaptiveValueTtrPolicy::Config value_config;
  value_config.delta = 1.0;
  value_config.bounds = {2.0, 120.0};
  engine.add_value_object(stock.name(), value_config);
  engine.add_temporal_object(page.name(),
                             std::make_unique<FixedPollPolicy>(60.0));
  engine.start();
  sim.run_until(600.0);

  const ObjectId stock_id = id_of(origin.uri_table(), stock.name());
  const ObjectId page_id = id_of(origin.uri_table(), page.name());
  EXPECT_GT(engine.poll_log().polls_performed(stock_id), 0u);
  EXPECT_EQ(engine.poll_log().polls_performed(page_id), 10u);  // 60..600
  ASSERT_NE(engine.cache().find(stock_id), nullptr);
  ASSERT_NE(engine.cache().find(page_id), nullptr);
  EXPECT_TRUE(engine.cache().find(stock_id)->value.has_value());
  EXPECT_FALSE(engine.cache().find(page_id)->value.has_value());
}

TEST(ValueEngine, CrashRecoveryResetsValuePolicies) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  const ValueTrace flat("/flat", 100.0, {}, 1200.0);
  origin.attach_value_trace(flat.name(), flat);
  AdaptiveValueTtrPolicy::Config config;
  config.delta = 1.0;
  config.bounds = {2.0, 300.0};
  engine.add_value_object(flat.name(), config);
  engine.start();
  sim.run_until(600.0);
  // Flat object: TTR has grown well beyond the minimum.
  const auto& series = engine.ttr_series(flat.name());
  ASSERT_FALSE(series.empty());
  EXPECT_GT(series.back().second, 10.0);

  engine.crash_and_recover();
  sim.run_until(605.0);
  // First post-recovery poll within TTR_min.
  const auto times = engine.poll_log().completion_times(
      id_of(origin.uri_table(), flat.name()));
  EXPECT_LE(times.back() - 600.0, 2.0 + 1e-9);
}

}  // namespace
}  // namespace broadway
