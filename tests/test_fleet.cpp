// Proxy-fleet tests: cooperative relay faithfulness, origin-load
// accounting, and cross-proxy δ-groups.
#include "fleet/proxy_fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "consistency/limd.h"
#include "harness/experiments.h"
#include "http/extensions.h"
#include "id_of.h"
#include "log_series.h"
#include "metrics/accounting.h"
#include "metrics/fidelity.h"
#include "trace/generators.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

LimdPolicy::Config limd_config(Duration delta, Duration ttr_max) {
  return LimdPolicy::Config::paper_defaults(delta, ttr_max);
}

ProxyFleet::PolicyFactory limd_factory(Duration delta, Duration ttr_max) {
  return [delta, ttr_max] {
    return std::make_unique<LimdPolicy>(limd_config(delta, ttr_max));
  };
}

// The satellite requirement: a sibling proxy whose copy is refreshed by
// relay must report the same ttr_series and fidelity as if it had polled
// the origin itself.  With identical policies the fleet runs in lockstep:
// proxy 0 (started first) polls, every sibling refreshes purely by relay —
// 200s and 304 validations alike — so sibling state must be
// indistinguishable from a standalone engine's.
TEST(ProxyFleet, RelaySiblingMatchesStandaloneEngine) {
  const Duration delta = 60.0;
  const Duration ttr_max = 600.0;
  const Duration horizon = 8000.0;
  const std::vector<TimePoint> updates =
      generate_periodic(/*period=*/180.0, /*phase=*/35.0, horizon);
  const UpdateTrace trace("/news", updates, horizon);

  // Control: one standalone engine.
  Simulator control_sim;
  OriginServer control_origin(control_sim);
  PollingEngine control(control_sim, control_origin);
  control_origin.attach_update_trace("/news", trace);
  control.add_temporal_object(
      "/news", std::make_unique<LimdPolicy>(limd_config(delta, ttr_max)));
  control.start();
  control_sim.run_until(horizon);

  // Fleet: three cooperative proxies, same policy everywhere.
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 3;
  config.cooperative_push = true;
  ProxyFleet fleet(sim, origin, config);
  origin.attach_update_trace("/news", trace);
  fleet.add_temporal_object_everywhere("/news",
                                       limd_factory(delta, ttr_max));
  fleet.start();
  sim.run_until(horizon);

  // Proxy 0 polls exactly like the standalone engine; siblings never
  // touch the origin after their initial fetch.
  const ObjectId news = id_of(origin.uri_table(), "/news");
  const std::size_t control_polls = control.poll_log().polls_performed(
      id_of(control_origin.uri_table(), "/news"));
  EXPECT_EQ(fleet.proxy(0).poll_log().polls_performed(news), control_polls);
  for (std::size_t p = 1; p < fleet.size(); ++p) {
    EXPECT_EQ(fleet.proxy(p).poll_log().polls_performed(news), 0u)
        << "sibling " << p << " polled the origin";
    EXPECT_GT(fleet.proxy(p).poll_log().relay_refreshes(news), 0u);

    // Identical TTR trajectory...
    const auto& expected = control.ttr_series("/news");
    const auto& actual = fleet.proxy(p).ttr_series("/news");
    ASSERT_EQ(actual.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_DOUBLE_EQ(actual[i].first, expected[i].first);
      EXPECT_DOUBLE_EQ(actual[i].second, expected[i].second);
    }

    // ...and identical ground-truth fidelity.
    const auto control_report = evaluate_temporal_fidelity(
        trace, successful_polls(control.poll_log(), "/news"), delta,
        horizon);
    const auto sibling_report = evaluate_temporal_fidelity(
        trace, successful_polls(fleet.proxy(p).poll_log(), "/news"), delta,
        horizon);
    EXPECT_EQ(sibling_report.violations, control_report.violations);
    EXPECT_DOUBLE_EQ(sibling_report.out_sync_time,
                     control_report.out_sync_time);
    EXPECT_DOUBLE_EQ(sibling_report.fidelity_time(),
                     control_report.fidelity_time());
  }

  // The origin served exactly the fleet's initial fetches plus proxy 0's
  // polls: cooperation removed every sibling poll.
  const FleetOriginLoad load = fleet.origin_load();
  EXPECT_EQ(load.origin_messages, origin.requests_served());
  EXPECT_EQ(load.origin_polls, control_polls);
  EXPECT_EQ(load.relay_refreshes,
            fleet.proxy(1).poll_log().relay_refreshes() +
                fleet.proxy(2).poll_log().relay_refreshes());
}

TEST(ProxyFleet, CooperativePushReducesOriginLoadAtEqualFidelity) {
  std::vector<UpdateTrace> traces;
  const Duration horizon = 6000.0;
  for (int i = 0; i < 8; ++i) {
    Rng rng(1000 + i);
    traces.emplace_back("/obj/" + std::to_string(i),
                        generate_poisson(rng, 1.0 / 300.0, horizon),
                        horizon);
  }

  FleetRunConfig config;
  config.proxies = 4;
  config.base.delta = 60.0;
  config.base.ttr_max = 600.0;

  config.cooperative_push = false;
  const FleetRunResult independent = run_fleet_temporal(traces, config);
  config.cooperative_push = true;
  const FleetRunResult cooperative = run_fleet_temporal(traces, config);

  EXPECT_EQ(independent.relays.delivered, 0u);
  EXPECT_GT(cooperative.relays.delivered, 0u);
  EXPECT_LT(cooperative.origin_polls, independent.origin_polls);
  EXPECT_GE(cooperative.mean_fidelity_time,
            independent.mean_fidelity_time - 1e-9);
  // In lockstep the independent fleet just multiplies the single-proxy
  // load; cooperation should bring it back near 1/N.
  EXPECT_LT(cooperative.origin_polls, independent.origin_polls / 2);
}

TEST(ProxyFleet, IndependentModeMatchesScaledSingleProxy) {
  std::vector<UpdateTrace> traces;
  const Duration horizon = 4000.0;
  Rng rng(7);
  traces.emplace_back("/a", generate_poisson(rng, 1.0 / 200.0, horizon),
                      horizon);

  FleetRunConfig config;
  config.proxies = 1;
  config.cooperative_push = false;
  config.base.delta = 60.0;
  config.base.ttr_max = 600.0;
  const FleetRunResult one = run_fleet_temporal(traces, config);

  config.proxies = 3;
  const FleetRunResult three = run_fleet_temporal(traces, config);

  // Identical policies and seeds-independent schedules: each proxy repeats
  // the single-proxy run against the origin.
  EXPECT_EQ(three.origin_polls, 3 * one.origin_polls);
  EXPECT_DOUBLE_EQ(three.mean_fidelity_time, one.mean_fidelity_time);
}

TEST(ProxyFleet, RelayOnlyReachesProxiesTrackingTheUri) {
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 2;
  ProxyFleet fleet(sim, origin, config);

  const Duration horizon = 2000.0;
  const UpdateTrace shared("/shared", generate_periodic(150.0, 10.0, horizon),
                           horizon);
  const UpdateTrace solo("/solo", generate_periodic(150.0, 20.0, horizon),
                         horizon);
  origin.attach_update_trace("/shared", shared);
  origin.attach_update_trace("/solo", solo);

  fleet.add_temporal_object_everywhere("/shared", limd_factory(60.0, 600.0));
  // Only proxy 0 tracks /solo: its polls must not produce relay messages.
  fleet.add_temporal_object(0, "/solo",
                            std::make_unique<LimdPolicy>(
                                limd_config(60.0, 600.0)));
  fleet.start();
  sim.run_until(horizon);

  EXPECT_GT(fleet.relays_delivered(), 0u);
  const ObjectId solo_id = id_of(origin.uri_table(), "/solo");
  EXPECT_EQ(fleet.proxy(1).poll_log().relay_refreshes(solo_id), 0u);
  EXPECT_FALSE(fleet.proxy(1).tracks_temporal(solo_id));
  // Every relay message concerned /shared.
  EXPECT_EQ(fleet.proxy(1).poll_log().relay_refreshes(),
            fleet.proxy(1).poll_log().relay_refreshes(
                id_of(origin.uri_table(), "/shared")));
}

TEST(ProxyFleet, ApplyRelayRejectsStaleAndUnvalidatedResponses) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  origin.add_object("/a");
  engine.add_temporal_object(
      "/a", std::make_unique<LimdPolicy>(limd_config(60.0, 600.0)));
  const ObjectId a = id_of(origin.uri_table(), "/a");

  // Before start: relays are dropped, not applied.
  Response fresh;
  fresh.status = StatusCode::kOk;
  set_last_modified(fresh.headers, 0.0);
  EXPECT_FALSE(engine.apply_relay(a, fresh, 0.0));

  engine.start();
  sim.run_until(10.0);

  // Untracked object.
  EXPECT_FALSE(engine.apply_relay(kInvalidObjectId, fresh, 5.0));

  // Relay snapshot not newer than this proxy's own view (initial fetch at
  // t = 0): carries nothing, even though it is a 200.
  EXPECT_FALSE(engine.apply_relay(a, fresh, 0.0));

  // 200 relay for the version the initial fetch already saw: stale.
  EXPECT_FALSE(engine.apply_relay(a, fresh, 5.0));
  EXPECT_EQ(engine.poll_log().relay_refreshes(a), 0u);

  // 304 validation naming a version this proxy has NOT seen: must be
  // rejected (the proxy missed an update and cannot treat it as fresh).
  Response unvalidated;
  unvalidated.status = StatusCode::kNotModified;
  set_last_modified(unvalidated.headers, 4.0);
  EXPECT_FALSE(engine.apply_relay(a, unvalidated, 5.0));

  // Errors never apply.
  Response missing;
  missing.status = StatusCode::kNotFound;
  EXPECT_FALSE(engine.apply_relay(a, missing, 5.0));
  EXPECT_EQ(engine.poll_log().relay_refreshes(), 0u);

  // A genuine validation (Last-Modified already seen, newer snapshot)
  // does apply.
  Response valid;
  valid.status = StatusCode::kNotModified;
  set_last_modified(valid.headers, 0.0);
  EXPECT_TRUE(engine.apply_relay(a, valid, 5.0));
  EXPECT_EQ(engine.poll_log().relay_refreshes(a), 1u);
  // The record carries the true snapshot, not the delivery instant.
  const PollRecord& record =
      engine.poll_log()[engine.poll_log().size() - 1];
  EXPECT_EQ(record.cause, PollCause::kRelay);
  EXPECT_DOUBLE_EQ(record.snapshot_time, 5.0);
  EXPECT_DOUBLE_EQ(record.complete_time, 10.0);
}

TEST(ProxyFleet, RelayRecordsCountedByCauseAndExcludedFromPolls) {
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 2;
  ProxyFleet fleet(sim, origin, config);

  const Duration horizon = 3000.0;
  const UpdateTrace trace("/a", generate_periodic(200.0, 15.0, horizon),
                          horizon);
  origin.attach_update_trace("/a", trace);
  fleet.add_temporal_object_everywhere("/a", limd_factory(60.0, 600.0));
  fleet.start();
  sim.run_until(horizon);

  const PollCauseCounts counts =
      count_by_cause(fleet.proxy(1).poll_log());
  EXPECT_GT(counts.relay, 0u);
  EXPECT_EQ(counts.relay, fleet.proxy(1).poll_log().relay_refreshes());
  // Relays are not origin polls: the paper's metric stays origin-only.
  EXPECT_EQ(fleet.proxy(1).polls_performed(), counts.total_refreshes());
  EXPECT_EQ(fleet.proxy(1).polls_performed(), 0u);
  // But the evaluation's successful-record series sees the refreshes.
  EXPECT_EQ(completion_times(fleet.proxy(1).poll_log(),
                             id_of(origin.uri_table(), "/a"))
                .size(),
            1u + counts.relay);
  // Channel accounting: applied <= delivered, and proxy 1's records match.
  EXPECT_LE(fleet.relays_applied(), fleet.relays_delivered());
  EXPECT_EQ(fleet.relays_applied(),
            fleet.proxy(0).poll_log().relay_refreshes() +
                fleet.proxy(1).poll_log().relay_refreshes());
}

TEST(ProxyFleet, DeltaGroupTriggersAcrossProxies) {
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 2;
  config.cooperative_push = false;  // isolate the δ-group machinery
  ProxyFleet fleet(sim, origin, config);

  const Duration horizon = 10000.0;
  // /fast updates steadily; /slow never changes, so its LIMD TTR grows and
  // its copy ages far beyond δ between polls.
  const UpdateTrace fast("/fast", generate_periodic(300.0, 40.0, horizon),
                         horizon);
  origin.attach_update_trace("/fast", fast);
  origin.add_object("/slow");

  fleet.add_temporal_object(0, "/fast",
                            std::make_unique<LimdPolicy>(
                                limd_config(120.0, 1200.0)));
  fleet.add_temporal_object(1, "/slow",
                            std::make_unique<LimdPolicy>(
                                limd_config(120.0, 1200.0)));

  const Duration delta_mutual = 60.0;
  TriggeredPollCoordinator& group = fleet.add_delta_group(
      {{0, "/fast"}, {1, "/slow"}}, delta_mutual);
  // Members are interned at registration: the id-keyed dispatch
  // representation, parallel to the uri member list.
  ASSERT_EQ(group.member_ids().size(), 2u);
  EXPECT_EQ(group.member_ids()[0], id_of(origin.uri_table(), "/fast"));
  EXPECT_EQ(group.member_ids()[1], id_of(origin.uri_table(), "/slow"));
  fleet.start();
  sim.run_until(horizon);

  // Updates of /fast observed at proxy 0 must have triggered polls of
  // /slow at proxy 1.
  EXPECT_GT(group.triggers_requested(), 0u);
  const ObjectId slow = id_of(origin.uri_table(), "/slow");
  EXPECT_EQ(fleet.proxy(1).poll_log().triggered_polls(slow),
            group.triggers_requested());
  EXPECT_GT(fleet.proxy(1).poll_log().triggered_polls(slow), 0u);
  // Proxy 0 has no triggered polls: /fast is the group's update source.
  EXPECT_EQ(fleet.proxy(0).triggered_polls(), 0u);

  // Mutual guarantee: after each observed /fast update, /slow's copy at
  // proxy 1 was re-validated within δ.  Check the last /fast poll that
  // observed a modification has a /slow poll within δ after it.
  const auto slow_polls = completion_times(fleet.proxy(1).poll_log(), slow);
  for (const PollRecord& record : fleet.proxy(0).poll_log()) {
    if (record.failed || !record.modified ||
        record.cause == PollCause::kInitial) {
      continue;
    }
    // A /slow poll "within δ ahead" may lie beyond the simulated horizon.
    if (record.snapshot_time + delta_mutual > horizon) continue;
    bool within = false;
    for (const TimePoint t : slow_polls) {
      if (t >= record.snapshot_time - delta_mutual &&
          t <= record.snapshot_time + delta_mutual) {
        within = true;
        break;
      }
    }
    EXPECT_TRUE(within) << "no /slow poll within delta of "
                        << record.snapshot_time;
  }
}

TEST(ProxyFleet, DeltaGroupValidation) {
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 2;
  ProxyFleet fleet(sim, origin, config);
  origin.add_object("/a");
  fleet.add_temporal_object(0, "/a",
                            std::make_unique<LimdPolicy>(
                                limd_config(60.0, 600.0)));

  // Unknown proxy index and untracked member both fail fast.
  EXPECT_THROW(fleet.add_delta_group({{0, "/a"}, {5, "/a"}}, 60.0),
               CheckFailure);
  EXPECT_THROW(fleet.add_delta_group({{0, "/a"}, {1, "/a"}}, 60.0),
               CheckFailure);
  EXPECT_THROW(fleet.add_delta_group({{0, "/a"}, {0, "/a"}}, 60.0),
               CheckFailure);
  // Non-temporal members are rejected at registration, not first trigger.
  origin.add_value_object("/v", 1.0);
  AdaptiveValueTtrPolicy::Config value_config;
  fleet.add_value_object(1, "/v", value_config);
  EXPECT_TRUE(
      fleet.proxy(1).relay_eligible(id_of(origin.uri_table(), "/v")));
  EXPECT_THROW(fleet.add_delta_group({{0, "/a"}, {1, "/v"}}, 60.0),
               CheckFailure);
}

TEST(ProxyFleet, FleetValidation) {
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 0;
  EXPECT_THROW(ProxyFleet(sim, origin, config), CheckFailure);
  config.proxies = 1;
  config.relay_latency = -1.0;
  EXPECT_THROW(ProxyFleet(sim, origin, config), CheckFailure);
}

TEST(ProxyFleet, RelayLatencyStillConverges) {
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 2;
  config.relay_latency = 1.0;
  ProxyFleet fleet(sim, origin, config);

  const Duration horizon = 4000.0;
  const UpdateTrace trace("/a", generate_periodic(250.0, 30.0, horizon),
                          horizon);
  origin.attach_update_trace("/a", trace);
  // Different bounds per proxy break the lockstep, so relays genuinely
  // carry information the receiver has not seen yet (a relay that merely
  // repeats the receiver's own simultaneous observation is rejected).
  fleet.add_temporal_object(0, "/a",
                            std::make_unique<LimdPolicy>(
                                limd_config(60.0, 600.0)));
  fleet.add_temporal_object(1, "/a",
                            std::make_unique<LimdPolicy>(
                                limd_config(90.0, 900.0)));
  fleet.start();
  sim.run_until(horizon);

  // With a delivery delay the receiver still polls on its own at times,
  // but relays must carry refreshes, and every relayed record must be
  // stamped with a snapshot one latency older than its visibility.
  EXPECT_GT(fleet.proxy(1).poll_log().relay_refreshes(
                id_of(origin.uri_table(), "/a")),
            0u);
  for (const PollRecord& record : fleet.proxy(1).poll_log()) {
    if (record.cause != PollCause::kRelay) continue;
    EXPECT_DOUBLE_EQ(record.complete_time,
                     record.snapshot_time + config.relay_latency);
  }
  const auto report = evaluate_temporal_fidelity(
      trace, successful_polls(fleet.proxy(1).poll_log(), "/a"), 90.0,
      horizon);
  EXPECT_GT(report.fidelity_time(), 0.5);
}

// The relay-latency edge in the counters: a sweep (or a sharded barrier)
// that stops while messages are on the wire must see exact accounting —
// sent == delivered + in_flight at every horizon, in-flight relays
// drained (never silently dropped) when the run extends, and
// FleetOriginLoad identical to a run that never paused.
TEST(ProxyFleet, InFlightRelaysAreCountedAndDrainedExactly) {
  const Duration horizon = 4000.0;
  const UpdateTrace trace("/a", generate_periodic(250.0, 30.0, horizon),
                          horizon);

  auto build = [&](Simulator& sim, OriginServer& origin) {
    FleetConfig config;
    config.proxies = 3;
    config.relay_latency = 5.0;  // long enough to catch messages mid-air
    auto fleet = std::make_unique<ProxyFleet>(sim, origin, config);
    origin.attach_update_trace("/a", trace);
    for (std::size_t p = 0; p < 3; ++p) {
      fleet->add_temporal_object(p, "/a",
                                 std::make_unique<LimdPolicy>(limd_config(
                                     60.0 + 15.0 * p, 600.0 + 100.0 * p)));
    }
    fleet->start();
    return fleet;
  };

  // Paused run: stop at every relay-sized step and require the counter
  // identity to hold at each horizon.
  Simulator sim;
  OriginServer origin(sim);
  auto fleet = build(sim, origin);
  bool saw_in_flight = false;
  for (TimePoint h = 97.0; h < horizon; h += 97.0) {  // never a multiple
    sim.run_until(h);
    EXPECT_TRUE(fleet->relays().balanced());
    EXPECT_EQ(fleet->relays().lost, 0u);
    saw_in_flight = saw_in_flight || fleet->relays().in_flight > 0;
  }
  sim.run_until(horizon + 10.0);  // past the last send + latency
  EXPECT_TRUE(saw_in_flight);
  const RelayLedger drained = fleet->relays();
  EXPECT_TRUE(drained.balanced());
  EXPECT_EQ(drained.lost, 0u);
  EXPECT_EQ(drained.in_flight, 0u);
  EXPECT_GT(drained.delivered, 0u);

  // Ground truth: the same fleet run straight through.
  Simulator control_sim;
  OriginServer control_origin(control_sim);
  auto control = build(control_sim, control_origin);
  control_sim.run_until(horizon + 10.0);
  EXPECT_EQ(control->relays(), drained);
  const FleetOriginLoad control_load = control->origin_load();
  const FleetOriginLoad paused_load = fleet->origin_load();
  EXPECT_EQ(control_load.origin_messages, paused_load.origin_messages);
  EXPECT_EQ(control_load.origin_polls, paused_load.origin_polls);
  EXPECT_EQ(control_load.relay_refreshes, paused_load.relay_refreshes);
  EXPECT_EQ(control_load.failed, paused_load.failed);
}

// FleetConfig::poll_log_retention forwards to every engine's
// set_poll_log_retention.  Truncation must shorten the per-object record
// series without perturbing a single fleet counter: an identical run with
// unlimited logs is the ground truth.
TEST(ProxyFleet, PollLogRetentionKeepsFleetCountersExact) {
  const Duration horizon = 12000.0;
  std::vector<UpdateTrace> traces;
  for (int i = 0; i < 3; ++i) {
    traces.emplace_back("/object/" + std::to_string(i),
                        generate_periodic(120.0 + 40.0 * i, 15.0, horizon),
                        horizon);
  }

  const auto run = [&](std::size_t retention) {
    auto sim = std::make_unique<Simulator>();
    auto origin = std::make_unique<OriginServer>(*sim);
    FleetConfig config;
    config.proxies = 3;
    config.cooperative_push = true;
    config.engine.loss_probability = 0.05;
    config.engine.retry_delay = 2.0;
    config.poll_log_retention = retention;
    auto fleet = std::make_unique<ProxyFleet>(*sim, *origin, config);
    for (const UpdateTrace& trace : traces) {
      origin->attach_update_trace(trace.name(), trace);
      fleet->add_temporal_object_everywhere(trace.name(),
                                            limd_factory(60.0, 600.0));
    }
    fleet->start();
    sim->run_until(horizon);
    struct Result {
      std::unique_ptr<Simulator> sim;
      std::unique_ptr<OriginServer> origin;
      std::unique_ptr<ProxyFleet> fleet;
    };
    return Result{std::move(sim), std::move(origin), std::move(fleet)};
  };

  const auto unlimited = run(0);
  const auto truncated = run(4);

  // Counters: exact, fleet-wide and per object, per proxy.
  EXPECT_EQ(truncated.fleet->origin_polls(), unlimited.fleet->origin_polls());
  EXPECT_EQ(truncated.fleet->relays_delivered(),
            unlimited.fleet->relays_delivered());
  EXPECT_EQ(truncated.fleet->relays_applied(),
            unlimited.fleet->relays_applied());
  const FleetOriginLoad unlimited_load = unlimited.fleet->origin_load();
  const FleetOriginLoad truncated_load = truncated.fleet->origin_load();
  EXPECT_EQ(truncated_load.origin_messages, unlimited_load.origin_messages);
  EXPECT_EQ(truncated_load.origin_polls, unlimited_load.origin_polls);
  for (std::size_t p = 0; p < truncated.fleet->size(); ++p) {
    const PollingEngine& engine = truncated.fleet->proxy(p);
    const PollingEngine& reference = unlimited.fleet->proxy(p);
    EXPECT_EQ(engine.poll_log().retention_window(), 4u);
    EXPECT_EQ(engine.failed_polls(), reference.failed_polls());
    for (const UpdateTrace& trace : traces) {
      SCOPED_TRACE("proxy " + std::to_string(p) + " " + trace.name());
      const PollLog& log = engine.poll_log();
      const PollLog& reference_log = reference.poll_log();
      const ObjectId id = id_of(engine.uri_table(), trace.name());
      const ObjectId reference_id = id_of(reference.uri_table(), trace.name());
      EXPECT_EQ(log.polls_performed(id),
                reference_log.polls_performed(reference_id));
      EXPECT_EQ(log.relay_refreshes(id),
                reference_log.relay_refreshes(reference_id));
      // The record series genuinely truncated (eviction is amortized, so
      // the instantaneous length may sit a little above the window)...
      const auto series = snapshot_times(log, id);
      const auto full = snapshot_times(reference_log, reference_id);
      ASSERT_LT(series.size(), full.size());
      // ...and what remains is the newest suffix of the reference series.
      EXPECT_TRUE(std::equal(series.begin(), series.end(),
                             full.end() - static_cast<std::ptrdiff_t>(
                                              series.size())));
    }
    EXPECT_LT(engine.poll_log().size(), reference.poll_log().size());
  }
}

}  // namespace
}  // namespace broadway
