// Typed-wire tests: the poll hot path exchanges typed metadata
// (RequestMeta/ResponseMeta); real HTTP renders and parses header strings.
//  * At the origin, for every status/extension combination, the typed
//    response carries exactly the values a proxy would parse back out of
//    the rendered headers (and materialize_headers reproduces those
//    headers byte for byte).  The origin keeps its header path because
//    the codec, PushChannel and TraceCollector use it.
//  * Over full simulations — temporal LIMD + triggered coordinator +
//    value objects + virtual and partitioned groups + loss injection +
//    crash recovery + a cooperative-push fleet with relay latency — a
//    golden digest pins the poll logs, TTR series, fidelity reports and
//    cache contents.  Each digest was captured when the engine could
//    still render header strings per poll, and the typed and string runs
//    hashed to the same value.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "consistency/function.h"
#include "consistency/limd.h"
#include "consistency/triggered.h"
#include "fleet/proxy_fleet.h"
#include "golden_digest.h"
#include "http/codec.h"
#include "http/extensions.h"
#include "metrics/fidelity.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

// ---- origin-level matrix ---------------------------------------------------

Request typed_request(const OriginServer& origin, const std::string& uri,
                      std::optional<TimePoint> ims) {
  Request request;
  request.method = Method::kGet;
  request.object = origin.object_id(uri);
  request.uri = uri;  // exercised when the id is unknown
  request.meta.active = true;
  if (ims) request.meta.if_modified_since = quantize_wire_seconds(*ims);
  return request;
}

Request string_request(const std::string& uri, std::optional<TimePoint> ims) {
  Request request;
  request.method = Method::kGet;
  request.uri = uri;
  if (ims) set_if_modified_since(request.headers, *ims);
  return request;
}

// Every value a proxy can read from a response must match between the
// typed and string representations, and materialising the typed response
// must reproduce the string response's extension headers byte for byte.
void expect_equivalent(OriginServer& origin, const std::string& uri,
                       std::optional<TimePoint> ims) {
  SCOPED_TRACE(uri + (ims ? " ims=" + std::to_string(*ims) : " unconditional"));
  Response typed = origin.handle(typed_request(origin, uri, ims));
  const Response wire = origin.handle(string_request(uri, ims));

  ASSERT_EQ(typed.status, wire.status);
  EXPECT_TRUE(typed.meta.active);
  EXPECT_EQ(wire_last_modified(typed), wire_last_modified(wire));
  EXPECT_EQ(wire_object_value(typed), wire_object_value(wire));
  std::vector<TimePoint> typed_history;
  std::vector<TimePoint> wire_history;
  EXPECT_TRUE(wire_modification_history(typed, typed_history));
  EXPECT_TRUE(wire_modification_history(wire, wire_history));
  EXPECT_EQ(typed_history, wire_history);
  EXPECT_EQ(typed.body, wire.body);

  // Full wire form: serialising the typed message lazily materialises its
  // headers and yields the same bytes as the string path (including
  // Content-Type and Content-Length framing).  The test instants sit away
  // from RFC-1123 whole-second truncation edges, where only the redundant
  // coarse date — never the authoritative precise header — could differ.
  EXPECT_EQ(serialize(typed), serialize(wire));
  EXPECT_EQ(serialize(typed_request(origin, uri, ims)),
            serialize(string_request(uri, ims)));

  // And the materialised headers match name for name.
  materialize_headers(typed);
  for (const std::string_view name :
       {kHdrLastModified, kHdrLastModifiedPrecise, kHdrModificationHistory,
        kHdrObjectValue, std::string_view("Content-Type")}) {
    SCOPED_TRACE(std::string(name));
    EXPECT_EQ(typed.headers.get(name), wire.headers.get(name));
  }
}

TEST(WireDifferential, OriginMatrix) {
  for (const bool history_enabled : {true, false}) {
    for (const bool render_bodies : {true, false}) {
      Simulator sim;
      OriginServer::Config config;
      config.history_enabled = history_enabled;
      config.history_limit = 3;  // exercise capping
      config.render_bodies = render_bodies;
      OriginServer origin(sim, config);
      origin.attach_update_trace(
          "/page",
          UpdateTrace("/page", {100.125, 200.25, 300.0009, 300.5}, 400.0));
      origin.attach_value_trace(
          "/stock", ValueTrace("/stock", 160.0625, {{350.0, 161.75}}, 400.0));
      sim.run_until(400.0);

      for (const std::string uri : {"/page", "/stock"}) {
        expect_equivalent(origin, uri, std::nullopt);       // 200, full history
        expect_equivalent(origin, uri, 150.0);              // 200, partial
        expect_equivalent(origin, uri, 250.3333333);        // 200, sub-ms ims
        expect_equivalent(origin, uri, 399.0);              // 304
      }
      expect_equivalent(origin, "/ghost", std::nullopt);    // 404
      expect_equivalent(origin, "/ghost", 10.0);            // 404 conditional
    }
  }
}

TEST(WireDifferential, QuantizerMatchesPrintfEverywhere) {
  // The arithmetic fast path must equal the authoritative %.3f + strtod
  // round trip bit for bit — including printf's ties-to-even on exact
  // .5 ties (representable only at odd/16, odd/32, ... grids).
  const auto printf_quantize = [](double t) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", t);
    return std::strtod(buf, nullptr);
  };
  std::vector<double> cases = {0.0,    0.0005, 0.0015, 0.0625, 0.1875,
                               1.0 / 3.0, 2.5e-4, 86399.9995, 1234567.8905};
  for (int i = 1; i < 4000; ++i) {
    cases.push_back(static_cast<double>(2 * i + 1) / 16.0);   // exact ties
    cases.push_back(static_cast<double>(2 * i + 1) / 2000.0);  // near-tie grid
  }
  // Large-magnitude ties and offsets: the fast path must hold (and stay a
  // fast path) at year-scale horizons, not just bench-scale ones.
  for (const double base : {1.0e5, 3.1e7, 1.0e9, 4.0e12}) {
    for (int j = 0; j < 64; ++j) {
      cases.push_back(base + static_cast<double>(2 * j + 1) / 16.0);
      cases.push_back(base + static_cast<double>(j) * 0.3335);
    }
  }
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    cases.push_back(rng.uniform(0.0, 2.0e6));
  }
  for (int i = 0; i < 20000; ++i) {
    cases.push_back(rng.uniform(0.0, 4.0e12));
  }
  for (const double t : cases) {
    const double fast = quantize_wire_seconds(t);
    const double slow = printf_quantize(t);
    ASSERT_EQ(fast, slow) << "t=" << t;
  }
}

// ---- full-simulation differential ------------------------------------------

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

// Everything the consistency machinery can observe about a run: poll
// logs, TTR series, cache contents, one fidelity report and the origin's
// request count.
struct RunDigest {
  Digest digest;
  std::size_t records = 0;

  void add_engine(const PollingEngine& engine,
                  const std::vector<std::string>& series_uris) {
    digest.records(engine.poll_log().records());
    records += engine.poll_log().records().size();
    for (const std::string& uri : series_uris) {
      digest.series(engine.ttr_series(uri));
    }
    for (const std::string& uri : engine.cache().uris()) {
      const CacheEntry& entry = engine.cache().at(uri);
      digest.text(entry.uri);
      digest.text(entry.body);
      digest.f64(entry.snapshot_time);
      digest.f64(entry.stored_time);
      digest.u64(entry.last_modified.has_value());
      digest.f64(entry.last_modified.value_or(0.0));
      digest.u64(entry.value.has_value());
      digest.f64(entry.value.value_or(0.0));
      digest.u64(entry.refresh_count);
    }
  }
  void add_fidelity(const TemporalFidelityReport& fidelity) {
    digest.u64(fidelity.windows);
    digest.u64(fidelity.violations);
    digest.f64(fidelity.out_sync_time);
    digest.f64(fidelity.fidelity_time());
  }
};

// One proxy exercising every object kind, with losses and a mid-run crash.
RunDigest run_single_proxy() {
  constexpr Duration kHorizon = 30000.0;
  const UpdateTrace trace_a = irregular_trace("/news/a", 11, kHorizon);
  const UpdateTrace trace_b = irregular_trace("/news/b", 12, kHorizon);
  const ValueTrace stock_a = wiggly_trace("/stock/a", 13, kHorizon);
  const ValueTrace stock_b = wiggly_trace("/stock/b", 14, kHorizon);
  const ValueTrace stock_c = wiggly_trace("/stock/c", 15, kHorizon);
  const ValueTrace stock_d = wiggly_trace("/stock/d", 16, kHorizon);
  const ValueTrace stock_e = wiggly_trace("/stock/e", 17, kHorizon);

  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/news/a", trace_a);
  origin.attach_update_trace("/news/b", trace_b);
  origin.attach_value_trace("/stock/a", stock_a);
  origin.attach_value_trace("/stock/b", stock_b);
  origin.attach_value_trace("/stock/c", stock_c);
  origin.attach_value_trace("/stock/d", stock_d);
  origin.attach_value_trace("/stock/e", stock_e);

  EngineConfig config;
  config.rtt = 0.25;
  config.loss_probability = 0.05;
  config.retry_delay = 3.0;
  config.seed = 99;
  PollingEngine proxy(sim, origin, config);
  proxy.add_temporal_object(
      "/news/a",
      std::make_unique<LimdPolicy>(LimdPolicy::Config::paper_defaults(600.0)));
  proxy.add_temporal_object(
      "/news/b",
      std::make_unique<LimdPolicy>(LimdPolicy::Config::paper_defaults(600.0)));
  proxy.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/news/a", "/news/b"}, 300.0));
  AdaptiveValueTtrPolicy::Config value_config;
  value_config.delta = 0.5;
  value_config.bounds = {1.0, 300.0};
  proxy.add_value_object("/stock/a", value_config);
  VirtualObjectPolicy::Config virtual_config;
  virtual_config.delta = 0.75;
  virtual_config.bounds = {5.0, 300.0};
  proxy.add_virtual_group(
      {"/stock/b", "/stock/c"},
      std::make_unique<VirtualObjectPolicy>(
          std::make_unique<DifferenceFunction>(), virtual_config));
  PartitionedTolerancePolicy::Config partitioned_config;
  partitioned_config.delta = 0.75;
  partitioned_config.bounds = {5.0, 300.0};
  proxy.add_partitioned_group(
      {"/stock/d", "/stock/e"},
      std::make_unique<PartitionedTolerancePolicy>(
          std::make_unique<DifferenceFunction>(), partitioned_config));

  proxy.start();
  sim.run_until(kHorizon / 2);
  proxy.crash_and_recover();
  sim.run_until(kHorizon);

  RunDigest run;
  run.add_engine(proxy, {"/news/a", "/news/b", "/stock/a", "/stock/d"});
  run.add_fidelity(evaluate_temporal_fidelity(
      trace_a, successful_polls(proxy.poll_log(), "/news/a"), 600.0,
      kHorizon));
  run.digest.u64(origin.requests_served());
  return run;
}

TEST(WireDifferential, SingleProxyRunMatchesGolden) {
  const RunDigest run = run_single_proxy();
  ASSERT_GT(run.records, 0u);
  EXPECT_EQ(run.digest.value(), 0xc84ded7af8558d93ULL);
}

// A cooperative-push fleet with relay latency: relays carry responses
// across proxies (including the history restriction on apply).
RunDigest run_fleet() {
  constexpr Duration kHorizon = 30000.0;
  std::vector<UpdateTrace> traces;
  for (int i = 0; i < 6; ++i) {
    traces.push_back(irregular_trace("/object/" + std::to_string(i),
                                     100 + i, kHorizon));
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
  ProxyFleet fleet(sim, origin, config);
  for (const UpdateTrace& trace : traces) {
    fleet.add_temporal_object_everywhere(trace.name(), [] {
      return std::make_unique<LimdPolicy>(
          LimdPolicy::Config::paper_defaults(600.0));
    });
  }
  fleet.add_delta_group({{0, "/object/0"}, {1, "/object/1"}, {2, "/object/2"}},
                        300.0);
  fleet.start();
  sim.run_until(kHorizon);

  RunDigest run;
  std::vector<std::string> series_uris;
  for (const UpdateTrace& trace : traces) series_uris.push_back(trace.name());
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    run.add_engine(fleet.proxy(p), series_uris);
  }
  run.add_fidelity(evaluate_temporal_fidelity(
      traces[0], successful_polls(fleet.proxy(1).poll_log(), "/object/0"),
      600.0, kHorizon));
  run.digest.u64(origin.requests_served());
  run.digest.u64(fleet.relays_delivered());
  run.digest.u64(fleet.relays_applied());
  return run;
}

TEST(WireDifferential, CooperativeFleetRunMatchesGolden) {
  const RunDigest run = run_fleet();
  ASSERT_GT(run.records, 0u);
  EXPECT_EQ(run.digest.value(), 0x7661540ea8c6392fULL);
}

}  // namespace
}  // namespace broadway
