// Failure injection: lost polls with retry, and proxy crash recovery
// (paper §3.1: recovery = reset all TTRs to TTR_min).
#include <gtest/gtest.h>

#include <memory>

#include "client/client_traffic.h"
#include "consistency/fixed_poll.h"
#include "consistency/limd.h"
#include "id_of.h"
#include "log_series.h"
#include "metrics/accounting.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/update_trace.h"
#include "util/check.h"

namespace broadway {
namespace {

TEST(FailureInjection, LostPollsAreRetried) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig config;
  config.loss_probability = 0.3;
  config.retry_delay = 1.0;
  config.seed = 123;
  PollingEngine engine(sim, origin, config);
  origin.add_object("/a");
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(10.0));
  engine.start();
  sim.run_until(1000.0);

  EXPECT_GT(engine.failed_polls(), 0u);
  const PollCauseCounts counts = count_by_cause(engine.poll_log());
  EXPECT_EQ(counts.failed, engine.failed_polls());
  EXPECT_GT(counts.retry, 0u);
  // Every failure eventually produced a successful retry (or another
  // failure that retried again): successful polls keep flowing.
  EXPECT_GT(
      engine.poll_log().polls_performed(id_of(origin.uri_table(), "/a")),
      50u);
}

TEST(FailureInjection, LossyPollingStillRefreshesCache) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig config;
  config.loss_probability = 0.5;
  config.retry_delay = 1.0;
  config.seed = 7;
  PollingEngine engine(sim, origin, config);
  const UpdateTrace trace("/a", generate_periodic(50.0, 25.0, 1000.0),
                          1000.0);
  origin.attach_update_trace("/a", trace);
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(10.0));
  engine.start();
  sim.run_until(1000.0);
  const CacheEntry* entry =
      engine.cache().find(id_of(origin.uri_table(), "/a"));
  ASSERT_NE(entry, nullptr);
  // The last update (975) was eventually fetched despite 50% loss.
  EXPECT_DOUBLE_EQ(*entry->last_modified, 975.0);
}

TEST(CrashRecovery, ResetsTtrToMin) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  origin.add_object("/quiet");
  LimdPolicy::Config config = LimdPolicy::Config::paper_defaults(60.0, 600.0);
  engine.add_temporal_object("/quiet",
                             std::make_unique<LimdPolicy>(config));
  engine.start();
  sim.run_until(3000.0);
  // TTR has grown well beyond the minimum by now.
  const auto& series_before =
      engine.ttr_series(id_of(engine.uri_table(), "/quiet"));
  ASSERT_FALSE(series_before.empty());
  EXPECT_GT(series_before.back().second, 120.0);

  engine.crash_and_recover();
  sim.run_until(3070.0);
  // First post-recovery poll happens within TTR_min of the crash.
  const auto times = completion_times(engine.poll_log(),
                                      id_of(origin.uri_table(), "/quiet"));
  ASSERT_GE(times.size(), 2u);
  EXPECT_LE(times.back() - 3000.0, 60.0 + 1e-9);
}

TEST(CrashRecovery, PendingRetriesDieWithTheProxy) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig config;
  config.loss_probability = 0.6;
  config.retry_delay = 50.0;  // far longer than the poll period
  config.seed = 11;
  PollingEngine engine(sim, origin, config);
  origin.add_object("/a");
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(10.0));
  engine.start();

  const TimePoint crash_time = 95.0;
  sim.run_until(crash_time);
  // Retries fire retry_delay after their loss, so every loss in the last
  // retry_delay before the crash still has its retry pending.
  const auto fired_retries = [&engine] {
    std::size_t fired = 0;
    for (const PollRecord& record : engine.poll_log()) {
      if (record.cause == PollCause::kRetry) ++fired;
    }
    return fired;
  };
  ASSERT_GT(engine.failed_polls(), fired_retries());  // retries in flight

  const std::size_t records_at_crash = engine.poll_log().size();
  engine.crash_and_recover();
  sim.run_until(crash_time + config.retry_delay + 5.0);

  // A retry scheduled before the crash would fire within retry_delay of
  // it; a retry for a post-crash loss cannot.  So no retry may fire in
  // that window: polls lost before the crash must not replay against the
  // reset policy state.
  for (std::size_t i = records_at_crash; i < engine.poll_log().size(); ++i) {
    const PollRecord& record = engine.poll_log()[i];
    if (record.complete_time < crash_time + config.retry_delay) {
      EXPECT_NE(record.cause, PollCause::kRetry)
          << "pre-crash retry fired at " << record.complete_time;
    }
  }
  // Polling itself carries on from the recovered schedule.
  EXPECT_GT(engine.poll_log().size(), records_at_crash);
}

TEST(CrashRecovery, CacheSurvivesCrash) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  origin.add_object("/a");
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(10.0));
  engine.start();
  sim.run_until(100.0);
  engine.crash_and_recover();
  EXPECT_NE(engine.cache().find(id_of(origin.uri_table(), "/a")), nullptr);
}

TEST(CrashRecovery, BeforeStartIsAnError) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  EXPECT_THROW(engine.crash_and_recover(), CheckFailure);
}

// One-proxy client streams (FleetClientTraffic bound to a lone engine).
TEST(OneProxyClientTraffic, ObservesFreshAndStaleResponses) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  // Updates every 100 s; proxy polls every 40 s: some client reads land in
  // the stale window.
  const UpdateTrace trace("/page", generate_periodic(100.0, 50.0, 2000.0),
                          2000.0);
  origin.attach_update_trace("/page", trace);
  engine.add_temporal_object("/page",
                             std::make_unique<FixedPollPolicy>(40.0));

  // 0.5 req/s: one every 2 s on average.
  ClientTrafficConfig config;
  config.request_rate = 0.5;
  config.popularity = {{origin.object_id("/page"), 1.0}};
  config.seed = 99;
  FleetClientTraffic client(sim, origin, {{&engine, 0}}, config);

  engine.start();
  client.start();
  sim.run_until(2000.0);

  const ClientMetrics& stats = client.metrics(0);
  EXPECT_GT(stats.requests, 500u);
  EXPECT_EQ(stats.hits, stats.requests);  // everything was prefetched
  EXPECT_GT(stats.fresh, 0u);
  EXPECT_GT(stats.stale, 0u);
  EXPECT_EQ(stats.fresh + stats.stale, stats.hits);
  // Staleness lag is bounded by the polling period.
  EXPECT_LE(stats.staleness.max(), 40.0 + 1e-9);
}

TEST(OneProxyClientTraffic, MissesForUnregisteredObjects) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  origin.add_object("/cached");
  origin.add_object("/uncached");
  engine.add_temporal_object("/cached",
                             std::make_unique<FixedPollPolicy>(10.0));
  ClientTrafficConfig config;
  config.request_rate = 1.0;
  config.popularity = {{origin.object_id("/cached"), 1.0},
                       {origin.object_id("/uncached"), 1.0}};
  FleetClientTraffic client(sim, origin, {{&engine, 0}}, config);
  engine.start();
  client.start();
  sim.run_until(200.0);
  EXPECT_GT(client.metrics(0).misses, 0u);
  EXPECT_GT(client.metrics(0).hits, 0u);
}

}  // namespace
}  // namespace broadway
