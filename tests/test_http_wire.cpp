// Wire-level loopback: every proxy<->origin exchange serialised through
// the HTTP codec and re-parsed on each side, proving the typed in-memory
// path and the RFC-2616 text path carry identical information.
#include <gtest/gtest.h>

#include "http/codec.h"
#include "http/extensions.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"

namespace broadway {
namespace {

// Round-trips a request through the codec, hands it to the origin, and
// round-trips the response back — the loopback "network".
Response loopback_exchange(OriginServer& origin, const Request& request) {
  const std::string request_wire = serialize(request);
  const Request at_server = parse_request(request_wire);
  const Response response = origin.handle(at_server);
  const std::string response_wire = serialize(response);
  return parse_response(response_wire);
}

TEST(WireLoopback, ConditionalGetFreshness) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/page", UpdateTrace("/page", {100.0}, 200.0));
  sim.run_until(99.0);

  const Response fresh =
      loopback_exchange(origin, Request::conditional_get("/page", 50.0));
  EXPECT_TRUE(fresh.not_modified());

  sim.run_until(100.0);
  const Response stale =
      loopback_exchange(origin, Request::conditional_get("/page", 50.0));
  EXPECT_TRUE(stale.ok());
  EXPECT_DOUBLE_EQ(*get_last_modified(stale.headers), 100.0);
  EXPECT_FALSE(stale.body.empty());
}

TEST(WireLoopback, HistoryExtensionSurvivesTheWire) {
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace(
      "/page", UpdateTrace("/page", {100.0, 200.0, 300.0}, 400.0));
  sim.run_until(400.0);

  const Response response =
      loopback_exchange(origin, Request::conditional_get("/page", 150.0));
  const auto history = get_modification_history(response.headers);
  ASSERT_TRUE(history.has_value());
  ASSERT_EQ(history->size(), 2u);
  EXPECT_NEAR((*history)[0], 200.0, 1e-3);
  EXPECT_NEAR((*history)[1], 300.0, 1e-3);
}

TEST(WireLoopback, ValueObjectSurvivesTheWire) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_value_object("/stock", 160.0625);
  Request request;
  request.uri = "/stock";
  const Response response = loopback_exchange(origin, request);
  EXPECT_DOUBLE_EQ(*get_object_value(response.headers), 160.0625);
}

TEST(WireLoopback, ToleranceDirectivesSurviveTheWire) {
  // The §5.1 cache-control-style extensions: a downstream proxy states
  // its tolerances; the (future) origin can shed updates accordingly.
  Request request = Request::conditional_get("/page", 10.0);
  set_delta_tolerance(request.headers, 300.0);
  set_group(request.headers, "breaking-news", 120.0);

  const Request parsed = parse_request(serialize(request));
  EXPECT_NEAR(*get_delta_tolerance(parsed.headers), 300.0, 1e-3);
  EXPECT_EQ(*get_group_id(parsed.headers), "breaking-news");
  EXPECT_NEAR(*get_group_delta(parsed.headers), 120.0, 1e-3);
}

TEST(WireLoopback, NotFoundSurvivesTheWire) {
  Simulator sim;
  OriginServer origin(sim);
  Request request;
  request.uri = "/ghost";
  const Response response = loopback_exchange(origin, request);
  EXPECT_EQ(response.status, StatusCode::kNotFound);
}

TEST(WireLoopback, SubSecondPrecisionPreserved) {
  // RFC 1123 dates truncate to seconds; the precise-time extension keeps
  // the simulation's sub-second validators intact across the wire.
  Simulator sim;
  OriginServer origin(sim);
  origin.attach_update_trace("/page", UpdateTrace("/page", {3.625}, 10.0));
  sim.run_until(100.0);

  const Response response =
      loopback_exchange(origin, Request::conditional_get("/page", 1.25));
  EXPECT_TRUE(response.ok());
  EXPECT_NEAR(*get_last_modified(response.headers), 3.625, 1e-3);

  // And the validator in the other direction: 3.625 counts as fresh for a
  // client whose copy is from 3.7 — only with sub-second precision.
  const Response fresh =
      loopback_exchange(origin, Request::conditional_get("/page", 3.7));
  EXPECT_TRUE(fresh.not_modified());
}

}  // namespace
}  // namespace broadway
