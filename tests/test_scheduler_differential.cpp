// Batch-vs-per-update trace attachment differential.
//
// Batch trace attachment (OriginServer::Config::batch_trace_attachment)
// replaces one pre-scheduled simulator event per trace update with one
// self-rechaining event per trace.  It changes *how* update events are
// created and must change nothing about *what* the simulation computes.
// These tests run a lossy cooperative-push fleet and a lossy value-domain
// engine with the origin in each attachment mode and assert byte-identical
// poll logs, TTR series and counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "consistency/limd.h"
#include "fleet/proxy_fleet.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

OriginServer::Config attachment(bool batch) {
  OriginServer::Config config;
  config.batch_trace_attachment = batch;
  return config;
}

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

void expect_records_identical(const std::vector<PollRecord>& a,
                              const std::vector<PollRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].uri, b[i].uri);
    EXPECT_EQ(a[i].object, b[i].object);
    EXPECT_EQ(a[i].cause, b[i].cause);
    EXPECT_EQ(a[i].modified, b[i].modified);
    EXPECT_EQ(a[i].failed, b[i].failed);
    EXPECT_EQ(a[i].snapshot_time, b[i].snapshot_time);
    EXPECT_EQ(a[i].complete_time, b[i].complete_time);
  }
}

// ---- cooperative fleet -----------------------------------------------------

std::vector<UpdateTrace> fleet_traces(Duration horizon) {
  std::vector<UpdateTrace> traces;
  for (int i = 0; i < 5; ++i) {
    traces.push_back(
        irregular_trace("/object/" + std::to_string(i), 300 + i, horizon));
  }
  return traces;
}

struct FleetArtifacts {
  std::vector<PollRecord> records;  // all proxies, proxy-major
  std::vector<std::vector<std::pair<TimePoint, Duration>>> ttr_series;
  std::size_t origin_requests = 0;
  std::size_t origin_polls = 0;
  std::size_t relays_delivered = 0;
  std::size_t relays_applied = 0;
};

FleetArtifacts run_fleet(bool batch) {
  constexpr Duration kHorizon = 25000.0;
  const std::vector<UpdateTrace> traces = fleet_traces(kHorizon);

  Simulator sim;
  OriginServer origin(sim, attachment(batch));
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

  FleetArtifacts artifacts;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    const auto& records = fleet.proxy(p).poll_log().records();
    artifacts.records.insert(artifacts.records.end(), records.begin(),
                             records.end());
    for (const UpdateTrace& trace : traces) {
      artifacts.ttr_series.push_back(fleet.proxy(p).ttr_series(trace.name()));
    }
  }
  artifacts.origin_requests = origin.requests_served();
  artifacts.origin_polls = fleet.origin_polls();
  artifacts.relays_delivered = fleet.relays_delivered();
  artifacts.relays_applied = fleet.relays_applied();
  return artifacts;
}

TEST(AttachmentDifferential, FleetRunsAreByteIdentical) {
  const FleetArtifacts per_update = run_fleet(/*batch=*/false);
  const FleetArtifacts batch = run_fleet(/*batch=*/true);
  ASSERT_FALSE(per_update.records.empty());
  EXPECT_GT(per_update.relays_delivered, 0u);
  expect_records_identical(per_update.records, batch.records);
  EXPECT_EQ(per_update.ttr_series, batch.ttr_series);
  EXPECT_EQ(per_update.origin_requests, batch.origin_requests);
  EXPECT_EQ(per_update.origin_polls, batch.origin_polls);
  EXPECT_EQ(per_update.relays_delivered, batch.relays_delivered);
  EXPECT_EQ(per_update.relays_applied, batch.relays_applied);
}

// ---- value domain ----------------------------------------------------------

struct ValueArtifacts {
  std::vector<PollRecord> records;
  std::vector<std::pair<TimePoint, Duration>> ttr_series;
  std::size_t polls = 0;
  std::size_t origin_requests = 0;
};

ValueArtifacts run_value(bool batch) {
  constexpr Duration kHorizon = 8000.0;
  const ValueTrace trace = wiggly_trace("/stock/x", 77, kHorizon);

  Simulator sim;
  OriginServer origin(sim, attachment(batch));
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

  ValueArtifacts artifacts;
  artifacts.records = proxy.poll_log().records();
  artifacts.ttr_series = proxy.ttr_series(trace.name());
  artifacts.polls = proxy.polls_performed();
  artifacts.origin_requests = origin.requests_served();
  return artifacts;
}

TEST(AttachmentDifferential, ValueRunsAreByteIdentical) {
  const ValueArtifacts per_update = run_value(/*batch=*/false);
  const ValueArtifacts batch = run_value(/*batch=*/true);
  ASSERT_FALSE(per_update.records.empty());
  expect_records_identical(per_update.records, batch.records);
  EXPECT_EQ(per_update.ttr_series, batch.ttr_series);
  EXPECT_EQ(per_update.polls, batch.polls);
  EXPECT_EQ(per_update.origin_requests, batch.origin_requests);
}

TEST(AttachmentDifferential, BatchIsTheDefault) {
  EXPECT_TRUE(OriginServer::Config().batch_trace_attachment);
}

}  // namespace
}  // namespace broadway
