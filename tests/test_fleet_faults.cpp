// Fleet-level fault injection (fleet/faults.h): proxy crash/recovery,
// relay loss with capped-backoff retries, dark-window client service and
// δ-group sibling failover, all on the single-simulator ProxyFleet (the
// sharded differentials pin that every behavior here survives sharding
// byte-for-byte).
#include "fleet/faults.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "client/client_traffic.h"
#include "consistency/limd.h"
#include "consistency/triggered.h"
#include "fleet/proxy_fleet.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/update_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

LimdPolicy::Config limd_config(Duration delta = 600.0,
                               Duration ttr_max = 3600.0) {
  return LimdPolicy::Config::paper_defaults(delta, ttr_max);
}

ProxyFleet::PolicyFactory limd_factory(Duration delta = 600.0,
                                       Duration ttr_max = 3600.0) {
  return [delta, ttr_max] {
    return std::make_unique<LimdPolicy>(limd_config(delta, ttr_max));
  };
}

UpdateTrace irregular_trace(const std::string& name, std::uint64_t seed,
                            Duration horizon) {
  Rng rng(seed);
  std::vector<TimePoint> updates;
  TimePoint t = 0.0;
  for (;;) {
    t += rng.uniform(40.0, 500.0);
    if (t >= horizon) break;
    updates.push_back(t);
  }
  return UpdateTrace(name, std::move(updates), horizon);
}

// ---- schedule validation ---------------------------------------------------

TEST(FaultSchedule, ValidateRejectsMalformedSchedules) {
  {
    FaultSchedule faults;
    faults.relay_loss = 1.0;  // certain loss would retry forever
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.relay_loss = -0.1;
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.relay_jitter_max = -1.0;
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.retry_backoff_base = 0.0;
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.retry_backoff_base = 2.0;
    faults.retry_backoff_cap = 1.0;  // cap below base
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.crashes.push_back({7, {{100.0, 200.0}}});  // proxy out of range
    EXPECT_THROW(faults.validate(4), CheckFailure);
    EXPECT_NO_THROW(faults.validate(8));
    EXPECT_NO_THROW(faults.validate(SIZE_MAX));  // slice view: ids unknown
  }
  {
    FaultSchedule faults;
    faults.crashes.push_back({0, {{0.0, 200.0}}});  // crash at t=0
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.crashes.push_back({0, {{200.0, 100.0}}});  // empty window
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.crashes.push_back({0, {{100.0, 300.0}, {250.0, 400.0}}});
    EXPECT_THROW(faults.validate(4), CheckFailure);  // overlapping
  }
  {
    FaultSchedule faults;
    faults.crashes.push_back({0, {{100.0, 200.0}}});
    faults.crashes.push_back({0, {{300.0, 400.0}}});  // duplicate proxy
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  // Non-finite timings: a one-simulator run would throw at its first
  // delayed relay or retry, a sharded one park messages at t = inf.
  {
    FaultSchedule faults;
    faults.relay_jitter_max = kTimeInfinity;
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;
    faults.retry_backoff_base = kTimeInfinity;
    faults.retry_backoff_cap = kTimeInfinity;
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;  // never recovers: end the window past the horizon
    faults.crashes.push_back({0, {{100.0, kTimeInfinity}}});
    EXPECT_THROW(faults.validate(4), CheckFailure);
  }
  {
    FaultSchedule faults;  // a clean schedule passes
    faults.crashes.push_back({1, {{100.0, 200.0}, {200.0, 250.0}}});
    faults.relay_loss = 0.2;
    faults.relay_jitter_max = 0.5;
    faults.relay_retry_limit = 4;
    EXPECT_NO_THROW(faults.validate(4));
  }
}

TEST(FleetFaults, NonFiniteRelayLatencyIsRejected) {
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.relay_latency = kTimeInfinity;
  EXPECT_THROW(ProxyFleet(sim, origin, config), CheckFailure);
}

TEST(FaultSchedule, DarknessAndTransitionsArePureTimeFunctions) {
  FaultSchedule faults;
  faults.crashes.push_back({1, {{100.0, 200.0}, {300.0, 450.0}}});
  EXPECT_FALSE(faults.dark(1, 99.9));
  EXPECT_TRUE(faults.dark(1, 100.0));  // [crash_at, recover_at)
  EXPECT_TRUE(faults.dark(1, 199.9));
  EXPECT_FALSE(faults.dark(1, 200.0));
  EXPECT_TRUE(faults.dark(1, 350.0));
  EXPECT_FALSE(faults.dark(1, 450.0));
  EXPECT_FALSE(faults.dark(0, 150.0));  // other proxies never dark

  EXPECT_EQ(faults.next_transition_after(1, 0.0), 100.0);
  EXPECT_EQ(faults.next_transition_after(1, 100.0), 200.0);
  EXPECT_EQ(faults.next_transition_after(1, 250.0), 300.0);
  EXPECT_EQ(faults.next_transition_after(1, 450.0), kTimeInfinity);
  EXPECT_EQ(faults.next_transition_after(0, 0.0), kTimeInfinity);

  EXPECT_EQ(faults.total_dark_time(1000.0), 250.0);
  EXPECT_EQ(faults.total_dark_time(350.0), 150.0);  // clamped per window

  // Backoff: base * 2^k, capped.
  FaultSchedule backoff;
  backoff.retry_backoff_base = 1.5;
  backoff.retry_backoff_cap = 10.0;
  EXPECT_EQ(backoff.retry_backoff(0), 1.5);
  EXPECT_EQ(backoff.retry_backoff(1), 3.0);
  EXPECT_EQ(backoff.retry_backoff(2), 6.0);
  EXPECT_EQ(backoff.retry_backoff(3), 10.0);
  EXPECT_EQ(backoff.retry_backoff(20), 10.0);
}

// ---- the relay fault ledger ------------------------------------------------

// Under relay loss + jitter + retries, the ledger invariant
//   sent == delivered + in_flight + lost   (RelayLedger::balanced)
// holds at *every* paused horizon, not just at the end, and every loss is
// eventually retried (the backoff cap bounds how long a retry can lag its
// loss, so running one cap past the measurement point drains them).
TEST(FleetFaults, RelayLedgerBalancesAtEveryPauseAndLossesRetry) {
  const Duration horizon = 8000.0;
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 3;
  config.cooperative_push = true;
  config.relay_latency = 0.7;
  config.engine.rtt = 0.1;
  config.faults.relay_loss = 0.15;
  config.faults.relay_jitter_max = 0.4;
  config.faults.retry_backoff_base = 0.9;
  config.faults.retry_backoff_cap = 7.2;
  config.faults.relay_retry_limit = 8;
  ProxyFleet fleet(sim, origin, config);
  const auto factory = limd_factory(400.0, 1200.0);
  for (int i = 0; i < 6; ++i) {
    const std::string uri = "/obj/" + std::to_string(i);
    origin.attach_update_trace(uri,
                               irregular_trace(uri, 900 + i, horizon));
    fleet.add_temporal_object_everywhere(uri, factory);
  }
  fleet.start();

  // Deliberately non-harmonic pause instants: relays and retries are
  // routinely mid-flight at the pause.
  bool paused_with_in_flight = false;
  for (TimePoint h = 97.0; h < horizon; h += 97.0) {
    sim.run_until(h);
    EXPECT_TRUE(fleet.relays().balanced())
        << "ledger out of balance at t=" << h;
    if (fleet.relays_in_flight() > 0) paused_with_in_flight = true;
  }
  EXPECT_TRUE(paused_with_in_flight);

  sim.run_until(horizon);
  const std::size_t lost_at_horizon = fleet.relays_lost();
  EXPECT_GT(lost_at_horizon, 0u);
  EXPECT_GT(fleet.relays_retried(), 0u);
  EXPECT_GT(fleet.relays_delivered(), 0u);
  // A retry is an attempt like any other: it was counted in sent, so
  // retried can never exceed sent, and only losses spawn retries.
  EXPECT_LE(fleet.relays_retried(), fleet.relays_lost());

  // Every loss up to the horizon has fired its retry one backoff cap
  // later (with the retry limit at 8 and loss at 0.15, abandoning a relay
  // takes nine consecutive losses — it does not happen in this run).
  sim.run_until(horizon + config.faults.retry_backoff_cap + 0.1);
  EXPECT_GE(fleet.relays_retried(), lost_at_horizon);
  EXPECT_TRUE(fleet.relays().balanced());
}

// ---- crash / recovery ------------------------------------------------------

// A crashed proxy polls nothing inside its window; recovery re-arms every
// schedule at the policy's *initial* TTR (§3.1: recovering from a proxy
// failure resets the TTRs of all objects to their starting value), so the
// first post-recovery poll fires exactly initial_ttr after recover_at.
TEST(FleetFaults, CrashStopsPollingAndRecoveryResetsTtr) {
  const Duration horizon = 9000.0;
  const TimePoint crash_at = 4000.0;
  const TimePoint recover_at = 5200.0;
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 2;
  config.cooperative_push = true;
  config.relay_latency = 0.7;
  // No uri is shared, so no relays interfere with the poll schedules.
  config.faults.crashes.push_back({0, {{crash_at, recover_at}}});
  ProxyFleet fleet(sim, origin, config);
  origin.attach_update_trace(
      "/solo", UpdateTrace("/solo", generate_periodic(180.0, 35.0, horizon),
                           horizon));
  origin.attach_update_trace(
      "/other", UpdateTrace("/other",
                            generate_periodic(220.0, 60.0, horizon), horizon));
  fleet.add_temporal_object(0, "/solo",
                            std::make_unique<LimdPolicy>(limd_config()));
  fleet.add_temporal_object(1, "/other",
                            std::make_unique<LimdPolicy>(limd_config()));
  fleet.start();
  sim.run_until(horizon);

  const auto& records = fleet.proxy(0).poll_log().records();
  ASSERT_FALSE(records.empty());
  bool before = false;
  const PollRecord* first_after = nullptr;
  for (const PollRecord& record : records) {
    EXPECT_FALSE(record.snapshot_time >= crash_at &&
                 record.snapshot_time < recover_at)
        << "dark proxy polled at t=" << record.snapshot_time;
    if (record.snapshot_time < crash_at) before = true;
    if (record.snapshot_time >= recover_at && first_after == nullptr) {
      first_after = &record;
    }
  }
  EXPECT_TRUE(before);
  ASSERT_NE(first_after, nullptr) << "proxy never resumed after recovery";
  const Duration initial =
      LimdPolicy(limd_config()).initial_ttr();
  EXPECT_DOUBLE_EQ(first_after->snapshot_time, recover_at + initial);
  EXPECT_EQ(first_after->cause, PollCause::kScheduled);

  // The sibling never notices: proxy 1 keeps polling through the window.
  bool sibling_polled_inside = false;
  for (const PollRecord& record : fleet.proxy(1).poll_log().records()) {
    if (record.snapshot_time >= crash_at && record.snapshot_time < recover_at)
      sibling_polled_inside = true;
  }
  EXPECT_TRUE(sibling_polled_inside);
}

// Relays addressed to a dark proxy are dropped on the floor: the channel
// delivered them (they leave in_flight into delivered), the destination
// never applies them, and the drop is attributed in relays_dropped_dark.
TEST(FleetFaults, RelaysToDarkProxyAreDroppedAndAttributed) {
  const Duration horizon = 9000.0;
  const TimePoint crash_at = 3000.0;
  const TimePoint recover_at = 6000.0;
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 3;
  config.cooperative_push = true;
  config.relay_latency = 0.7;
  config.faults.crashes.push_back({2, {{crash_at, recover_at}}});
  ProxyFleet fleet(sim, origin, config);
  const auto factory = limd_factory(400.0, 1200.0);
  for (int i = 0; i < 4; ++i) {
    const std::string uri = "/obj/" + std::to_string(i);
    origin.attach_update_trace(uri,
                               irregular_trace(uri, 1700 + i, horizon));
    fleet.add_temporal_object_everywhere(uri, factory);
  }
  fleet.start();
  sim.run_until(horizon);

  EXPECT_GT(fleet.relays_dropped_dark(), 0u);
  // Dropped relays are still deliveries, never applications.
  EXPECT_TRUE(fleet.relays().balanced());
  EXPECT_LE(fleet.relays_applied(),
            fleet.relays_delivered() - fleet.relays_dropped_dark());
  // Nothing lands in the dark proxy's log during the outage: no own
  // polls (timers stopped) and no relay records (drops are unrecorded).
  for (const PollRecord& record : fleet.proxy(2).poll_log().records()) {
    EXPECT_FALSE(record.snapshot_time >= crash_at &&
                 record.snapshot_time < recover_at)
        << to_string(record.cause) << " at t=" << record.snapshot_time;
  }
}

// ---- dark-window client service --------------------------------------------

// Client reads at a dark proxy are served stale-or-miss from the disk
// cache: each one is flagged dark, a dark miss is classified
// MissReason::kProxyDark and never demand-fills, and the degradation
// counters (dark_reads / dark_stale / dark_misses) attribute exactly the
// reads served inside outage windows of the crashed proxy.
TEST(FleetFaults, DarkClientReadsAreClassifiedAndNeverFill) {
  const Duration horizon = 9000.0;
  const TimePoint crash_at = 2500.0;
  const TimePoint recover_at = 4800.0;
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 3;
  config.cooperative_push = true;
  config.relay_latency = 0.7;
  config.engine.rtt = 0.1;
  // Lossy demand-fill setup (the client-differential constants): initial
  // fetches and fills get lost and retry slowly, so some objects are
  // still uncached when the outage begins — those reads become dark
  // misses rather than stale hits.
  config.engine.demand_fill = true;
  config.engine.loss_probability = 0.25;
  config.engine.retry_delay = 600.0;
  ClientTrafficConfig traffic;
  traffic.request_rate = 1.5;
  traffic.zipf_exponent = 0.9;
  traffic.seed = 17;
  traffic.record_requests = true;
  traffic.session_locality = 0.3;
  traffic.session_objects = 3;
  config.client_traffic = traffic;
  config.faults.crashes.push_back({0, {{crash_at, recover_at}}});
  ProxyFleet fleet(sim, origin, config);
  const auto factory = limd_factory();
  for (int i = 0; i < 4; ++i) {
    const std::string uri = "/obj/" + std::to_string(i);
    origin.attach_update_trace(uri,
                               irregular_trace(uri, 4200 + i, horizon));
    fleet.add_temporal_object_everywhere(uri, factory);
  }
  fleet.start();
  sim.run_until(horizon);

  const ClientMetrics merged = fleet.merged_client_metrics();
  EXPECT_GT(merged.dark_reads, 0u);
  EXPECT_GT(merged.dark_stale, 0u);
  EXPECT_LE(merged.dark_stale + merged.dark_misses, merged.dark_reads);
  EXPECT_LE(merged.dark_reads, merged.requests);

  // Only the crashed proxy accumulates dark metrics.
  for (std::size_t p = 1; p < fleet.size(); ++p) {
    const ClientMetrics metrics = fleet.client_traffic().metrics(p);
    EXPECT_EQ(metrics.dark_reads, 0u) << "proxy " << p;
    EXPECT_EQ(metrics.dark_stale, 0u) << "proxy " << p;
    EXPECT_EQ(metrics.dark_misses, 0u) << "proxy " << p;
  }

  // Record-level cross-check: a read is flagged dark exactly when proxy 0
  // served it inside the window, and dark reads never fill.
  std::uint64_t dark_records = 0;
  for (const ClientRequestRecord& record : fleet.merged_client_records()) {
    const bool in_window = record.proxy == 0 && record.time >= crash_at &&
                           record.time < recover_at;
    EXPECT_EQ(record.read.dark, in_window) << "read at t=" << record.time;
    if (record.read.dark) {
      ++dark_records;
      EXPECT_FALSE(record.read.filled);
    }
  }
  EXPECT_EQ(dark_records, merged.dark_reads);
}

// The distinct miss classification: a tracked object with no cached copy
// misses with MissReason::kUncached on a live proxy but
// MissReason::kProxyDark on a dark one — and a dark miss never
// demand-fills even with fills enabled.  Poll loss with a long retry
// delay keeps some initial fetches unresolved past the crash (the crash
// then kills the pending retries), so uncached objects provably exist on
// both sides of the crash instant.
TEST(FleetFaults, UncachedDarkReadsMissWithProxyDarkReason) {
  const Duration horizon = 6000.0;
  const TimePoint crash_at = 500.0;
  const TimePoint recover_at = 1700.0;
  Simulator sim;
  OriginServer origin(sim);
  FleetConfig config;
  config.proxies = 2;
  config.cooperative_push = false;  // no relays: only own fetches cache
  config.engine.loss_probability = 0.5;
  config.engine.retry_delay = 900.0;
  config.faults.crashes.push_back({0, {{crash_at, recover_at}}});
  ProxyFleet fleet(sim, origin, config);
  const auto factory = limd_factory();
  std::vector<std::string> uris;
  for (int i = 0; i < 6; ++i) {
    const std::string uri = "/obj/" + std::to_string(i);
    origin.attach_update_trace(uri, irregular_trace(uri, 77 + i, horizon));
    fleet.add_temporal_object_everywhere(uri, factory);
    uris.push_back(uri);
  }
  fleet.start();

  // Before the crash: some initial fetches were lost and wait on their
  // 900 s retries, so their objects miss with kUncached.
  sim.run_until(450.0);
  std::vector<ObjectId> uncached;
  for (const std::string& uri : uris) {
    const ObjectId id = fleet.proxy(0).uri_table().find(uri);
    const auto read = fleet.proxy(0).serve_client_read(id);
    EXPECT_FALSE(read.dark);
    if (!read.hit) {
      EXPECT_EQ(read.miss_reason,
                PollingEngine::ClientRead::MissReason::kUncached);
      uncached.push_back(id);
    }
  }
  ASSERT_FALSE(uncached.empty()) << "no initial fetch was lost";

  // Inside the window the same objects still miss — the crash killed the
  // pending retries — but now with the outage classification, and they
  // never demand-fill.
  sim.run_until(600.0);
  EXPECT_TRUE(fleet.proxy(0).dark());
  for (const ObjectId id : uncached) {
    const auto read = fleet.proxy(0).serve_client_read(id);
    EXPECT_TRUE(read.dark);
    EXPECT_FALSE(read.hit);
    EXPECT_FALSE(read.filled);
    EXPECT_EQ(read.miss_reason,
              PollingEngine::ClientRead::MissReason::kProxyDark);
  }

  // After recovery the re-armed schedules fetch them: the same reads hit.
  sim.run_until(horizon);
  EXPECT_FALSE(fleet.proxy(0).dark());
  for (const ObjectId id : uncached) {
    const auto read = fleet.proxy(0).serve_client_read(id);
    EXPECT_FALSE(read.dark);
    EXPECT_TRUE(read.hit);
  }
}

// ---- sibling failover ------------------------------------------------------

// While a δ-group member's proxy is dark, the deterministic designated
// sibling absorbs its poll responsibility (failover_triggers counts those
// redirected triggers); on recovery the owner re-homes and the counter
// freezes.  A control fleet without the crash never fails over, and its
// sibling's poll log is identical to the faulty run's up to the crash.
//
// Topology: the group couples (0, "/a") with (1, "/b").  "/b" updates
// fast, so proxy 1's polls keep requesting "/a" refreshes within δ; "/a"
// updates rarely, so its trackers' LIMD TTRs grow past δ and the
// requests actually trigger.  Proxy 2 also tracks "/a" — it is the
// designated failover tracker while proxy 0 (the owner) is dark.
TEST(FleetFaults, SiblingFailoverAbsorbsDarkOwnerAndHandsBack) {
  const Duration horizon = 9000.0;
  const TimePoint crash_at = 3000.0;
  const TimePoint recover_at = 5000.0;
  const Duration delta = 300.0;

  struct Run {
    Simulator sim;
    OriginServer origin;
    std::unique_ptr<ProxyFleet> fleet;
    TriggeredPollCoordinator* group = nullptr;
    Run() : origin(sim) {}
  };
  const auto build = [&](Run& run, bool crashed) {
    FleetConfig config;
    config.proxies = 3;
    config.cooperative_push = true;
    config.relay_latency = 0.7;
    if (crashed) {
      config.faults.crashes.push_back({0, {{crash_at, recover_at}}});
    }
    run.fleet = std::make_unique<ProxyFleet>(run.sim, run.origin, config);
    // "/a" updates exactly once, early: afterwards its trackers' TTRs
    // climb to ttr_max (2400 s), so the responsible proxy's copy spends
    // most of each poll gap more than δ away from both its last and its
    // next refresh — the condition a trigger requires.
    run.origin.attach_update_trace(
        "/a", UpdateTrace("/a", {500.0}, horizon));
    run.origin.attach_update_trace(
        "/b", UpdateTrace("/b", generate_periodic(120.0, 15.0, horizon),
                          horizon));
    run.fleet->add_temporal_object(
        0, "/a", std::make_unique<LimdPolicy>(limd_config(delta, 2400.0)));
    run.fleet->add_temporal_object(
        2, "/a", std::make_unique<LimdPolicy>(limd_config(delta, 2400.0)));
    run.fleet->add_temporal_object(
        1, "/b", std::make_unique<LimdPolicy>(limd_config(delta, 1200.0)));
    run.group = &run.fleet->add_delta_group({{0, "/a"}, {1, "/b"}}, delta);
    run.fleet->start();
  };

  Run faulty;
  build(faulty, /*crashed=*/true);
  Run control;
  build(control, /*crashed=*/false);

  // Before the crash: no failover anywhere.
  faulty.sim.run_until(crash_at);
  control.sim.run_until(crash_at);
  EXPECT_EQ(faulty.group->failover_triggers(), 0u);

  // Identical sibling logs up to the crash instant.
  const auto& faulty_log = faulty.fleet->proxy(1).poll_log().records();
  const auto& control_log = control.fleet->proxy(1).poll_log().records();
  ASSERT_EQ(faulty_log.size(), control_log.size());
  for (std::size_t i = 0; i < faulty_log.size(); ++i) {
    EXPECT_EQ(faulty_log[i].snapshot_time, control_log[i].snapshot_time);
    EXPECT_EQ(faulty_log[i].cause, control_log[i].cause);
    EXPECT_EQ(faulty_log[i].uri.get(), control_log[i].uri.get());
  }

  // During the outage the sibling absorbs the owner's responsibility.
  faulty.sim.run_until(recover_at);
  const std::size_t during = faulty.group->failover_triggers();
  EXPECT_GT(during, 0u);

  // After recovery the owner re-homes: the counter freezes and the owner
  // polls again.
  faulty.sim.run_until(horizon);
  EXPECT_EQ(faulty.group->failover_triggers(), during);
  bool owner_resumed = false;
  for (const PollRecord& record :
       faulty.fleet->proxy(0).poll_log().records()) {
    if (record.snapshot_time >= recover_at) owner_resumed = true;
  }
  EXPECT_TRUE(owner_resumed);

  // The control never fails over at all.
  control.sim.run_until(horizon);
  EXPECT_EQ(control.group->failover_triggers(), 0u);
}

}  // namespace
}  // namespace broadway
