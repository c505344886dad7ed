// Golden digests of trace replay.
//
// The origin replays its update traces lazily: a trace is queued on its
// object and applied when something reads the object (see
// origin/origin_server.h).  That changes *when* updates are applied and
// must change nothing about *what* the simulation computes.  These tests
// run a lossy cooperative-push fleet and a lossy value-domain engine and
// compare a bit-exact digest of their poll logs, TTR series and counters
// with the values the eager replay (one simulator event per trace update)
// produced for the same scenarios (see golden_digest.h).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "consistency/limd.h"
#include "fleet/proxy_fleet.h"
#include "golden_digest.h"
#include "id_of.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

UpdateTrace irregular_trace(const std::string& name, std::uint64_t seed,
                            Duration horizon) {
  Rng rng(seed);
  std::vector<TimePoint> updates;
  TimePoint t = 0.0;
  for (;;) {
    t += rng.uniform(40.0, 900.0);
    if (t >= horizon) break;
    updates.push_back(t);
  }
  return UpdateTrace(name, std::move(updates), horizon);
}

ValueTrace wiggly_trace(const std::string& name, std::uint64_t seed,
                        Duration horizon) {
  Rng rng(seed);
  std::vector<ValueTrace::Step> steps;
  TimePoint t = 0.0;
  double value = 100.0;
  for (;;) {
    t += rng.uniform(5.0, 30.0);
    if (t >= horizon) break;
    value += rng.uniform(-0.4, 0.4);
    steps.push_back({t, value});
  }
  return ValueTrace(name, 100.0, std::move(steps), horizon);
}

// ---- cooperative fleet -----------------------------------------------------

TEST(TraceReplayGolden, CooperativeFleet) {
  constexpr Duration kHorizon = 25000.0;
  std::vector<UpdateTrace> traces;
  for (int i = 0; i < 5; ++i) {
    traces.push_back(
        irregular_trace("/object/" + std::to_string(i), 300 + i, kHorizon));
  }

  Simulator sim;
  OriginServer origin(sim);
  for (const UpdateTrace& trace : traces) {
    origin.attach_update_trace(trace.name(), trace);
  }
  FleetConfig config;
  config.proxies = 3;
  config.cooperative_push = true;
  config.relay_latency = 0.5;
  config.engine.rtt = 0.1;
  config.engine.loss_probability = 0.03;
  config.engine.retry_delay = 2.0;
  ProxyFleet fleet(sim, origin, config);
  for (const UpdateTrace& trace : traces) {
    fleet.add_temporal_object_everywhere(trace.name(), [] {
      return std::make_unique<LimdPolicy>(
          LimdPolicy::Config::paper_defaults(600.0));
    });
  }
  fleet.start();
  sim.run_until(kHorizon);

  Digest digest;
  std::size_t records = 0;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    digest.records(fleet.proxy(p).poll_log().records());
    records += fleet.proxy(p).poll_log().records().size();
    for (const UpdateTrace& trace : traces) {
      digest.series(fleet.proxy(p).ttr_series(
          id_of(fleet.proxy(p).uri_table(), trace.name())));
    }
  }
  digest.u64(origin.requests_served());
  digest.u64(fleet.origin_polls());
  digest.u64(fleet.relays_delivered());
  digest.u64(fleet.relays_applied());

  ASSERT_GT(records, 0u);
  EXPECT_GT(fleet.relays_delivered(), 0u);
  EXPECT_EQ(digest.value(), 0x628b9ccadb1e0d50ULL);
}

// ---- value domain ----------------------------------------------------------

TEST(TraceReplayGolden, ValueDomainEngine) {
  constexpr Duration kHorizon = 8000.0;
  const ValueTrace trace = wiggly_trace("/stock/x", 77, kHorizon);

  Simulator sim;
  OriginServer origin(sim);
  origin.attach_value_trace(trace.name(), trace);
  EngineConfig engine;
  engine.rtt = 0.05;
  engine.loss_probability = 0.02;
  engine.retry_delay = 1.5;
  PollingEngine proxy(sim, origin, engine);
  AdaptiveValueTtrPolicy::Config policy;
  policy.delta = 0.5;
  policy.bounds = {1.0, 300.0};
  proxy.add_value_object(trace.name(), policy);
  proxy.start();
  sim.run_until(kHorizon);

  Digest digest;
  digest.records(proxy.poll_log().records());
  digest.series(
      proxy.ttr_series(id_of(proxy.uri_table(), trace.name())));
  digest.u64(proxy.polls_performed());
  digest.u64(origin.requests_served());

  ASSERT_FALSE(proxy.poll_log().records().empty());
  EXPECT_EQ(digest.value(), 0x7c97e1c785be13b9ULL);
}

}  // namespace
}  // namespace broadway
