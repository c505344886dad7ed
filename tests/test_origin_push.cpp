#include "origin/push.h"

#include <gtest/gtest.h>

#include "http/extensions.h"
#include "metrics/fidelity.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "util/check.h"

namespace broadway {
namespace {

struct PushRig {
  Simulator sim;
  OriginServer origin{sim};
  std::vector<std::pair<TimePoint, std::string>> deliveries;

  PushChannel::Delivery recorder() {
    return [this](const std::string& uri, const Response& response) {
      EXPECT_TRUE(response.ok());
      deliveries.emplace_back(sim.now(), uri);
    };
  }
};

TEST(PushChannel, DeliversEveryUpdateImmediately) {
  PushRig rig;
  PushChannel channel(rig.sim, rig.origin, 0.0);
  rig.origin.add_object("/a");
  channel.subscribe("/a", rig.recorder());
  const UpdateTrace trace("/a", {10.0, 20.0, 30.0}, 100.0);
  channel.attach_pushed_trace("/a", trace);
  rig.sim.run_until(100.0);
  ASSERT_EQ(rig.deliveries.size(), 3u);
  EXPECT_DOUBLE_EQ(rig.deliveries[0].first, 10.0);
  EXPECT_DOUBLE_EQ(rig.deliveries[2].first, 30.0);
  EXPECT_EQ(channel.pushes_delivered(), 3u);
  EXPECT_EQ(channel.updates_coalesced(), 0u);
}

TEST(PushChannel, PushCarriesCurrentVersion) {
  PushRig rig;
  PushChannel channel(rig.sim, rig.origin, 0.0);
  rig.origin.add_object("/a");
  std::vector<TimePoint> last_modified_seen;
  channel.subscribe("/a", [&](const std::string&, const Response& response) {
    last_modified_seen.push_back(*get_last_modified(response.headers));
  });
  const UpdateTrace trace("/a", {10.0, 20.0}, 100.0);
  channel.attach_pushed_trace("/a", trace);
  rig.sim.run_until(100.0);
  ASSERT_EQ(last_modified_seen.size(), 2u);
  EXPECT_DOUBLE_EQ(last_modified_seen[0], 10.0);
  EXPECT_DOUBLE_EQ(last_modified_seen[1], 20.0);
}

TEST(PushChannel, CoalescesBursts) {
  PushRig rig;
  PushChannel channel(rig.sim, rig.origin, 30.0);
  rig.origin.add_object("/a");
  channel.subscribe("/a", rig.recorder());
  // A burst of four updates within one coalescing window, then a lone one.
  const UpdateTrace trace("/a", {10.0, 12.0, 20.0, 35.0, 80.0}, 200.0);
  channel.attach_pushed_trace("/a", trace);
  rig.sim.run_until(200.0);
  // Burst: push pending from t=10 delivers at 40 carrying 10/12/20/35;
  // t=80 update delivers at 110.
  ASSERT_EQ(rig.deliveries.size(), 2u);
  EXPECT_DOUBLE_EQ(rig.deliveries[0].first, 40.0);
  EXPECT_DOUBLE_EQ(rig.deliveries[1].first, 110.0);
  EXPECT_EQ(channel.updates_coalesced(), 3u);
}

TEST(PushChannel, CoalescedPushPreservesDeltaBound) {
  // With a coalescing window w <= Delta, the first unseen update is always
  // delivered within Delta: fidelity stays perfect.
  PushRig rig;
  const Duration delta = 50.0;
  PushChannel channel(rig.sim, rig.origin, 0.9 * delta);
  rig.origin.add_object("/a");
  std::vector<PollInstant> deliveries = {{0.0, 0.0}};
  channel.subscribe("/a", [&](const std::string&, const Response&) {
    deliveries.push_back(PollInstant{rig.sim.now(), rig.sim.now()});
  });
  const UpdateTrace trace(
      "/a", {10.0, 15.0, 100.0, 300.0, 301.0, 302.0, 500.0}, 1000.0);
  channel.attach_pushed_trace("/a", trace);
  rig.sim.run_until(1000.0);
  const auto report =
      evaluate_temporal_fidelity(trace, deliveries, delta, 1000.0);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_DOUBLE_EQ(report.fidelity_time(), 1.0);
}

TEST(PushChannel, CoalescedPushDeliversHistoryNewestLast) {
  // Delivery-ordering pin: a coalesced push must carry every update that
  // rode along, newest-last in X-Modification-History — exactly what a
  // poll at the delivery instant would have returned.
  PushRig rig;
  PushChannel channel(rig.sim, rig.origin, 30.0);
  rig.origin.add_object("/a");
  std::vector<std::vector<TimePoint>> histories;
  channel.subscribe("/a", [&](const std::string&, const Response& response) {
    const auto history = get_modification_history(response.headers);
    ASSERT_TRUE(history.has_value());
    histories.push_back(*history);
  });
  const UpdateTrace trace("/a", {10.0, 12.0, 20.0, 35.0, 80.0}, 200.0);
  channel.attach_pushed_trace("/a", trace);
  rig.sim.run_until(200.0);

  // Push 1 (delivered at 40) coalesces 10/12/20/35; push 2 (at 110)
  // additionally reports 80.  Each history is strictly ascending — the
  // newest update is last, never first.
  ASSERT_EQ(histories.size(), 2u);
  EXPECT_EQ(histories[0], (std::vector<TimePoint>{10.0, 12.0, 20.0, 35.0}));
  for (const auto& history : histories) {
    for (std::size_t i = 1; i < history.size(); ++i) {
      EXPECT_LT(history[i - 1], history[i]);
    }
  }

  // Cross-check against a poll at the same instant: the delivered payload
  // must match what the origin would have answered.
  Request request;
  request.uri = "/a";
  const Response polled = rig.origin.handle(request);
  const auto poll_history = get_modification_history(polled.headers);
  ASSERT_TRUE(poll_history.has_value());
  EXPECT_EQ(histories.back().back(), poll_history->back());
}

TEST(PushChannel, UnsubscribedObjectsIgnored) {
  PushRig rig;
  PushChannel channel(rig.sim, rig.origin, 0.0);
  rig.origin.add_object("/quiet");
  // No subscription: updates flow to the origin but no pushes happen.
  const UpdateTrace trace("/quiet", {10.0}, 100.0);
  channel.attach_pushed_trace("/quiet", trace);
  rig.sim.run_until(100.0);
  EXPECT_EQ(channel.pushes_delivered(), 0u);
  EXPECT_EQ(rig.origin.read(rig.origin.object_id("/quiet"))->version(), 1u);
}

TEST(PushChannel, Validation) {
  PushRig rig;
  PushChannel channel(rig.sim, rig.origin, 0.0);
  EXPECT_THROW(channel.subscribe("/missing", rig.recorder()), CheckFailure);
  rig.origin.add_object("/a");
  channel.subscribe("/a", rig.recorder());
  EXPECT_THROW(channel.subscribe("/a", rig.recorder()), CheckFailure);
}

}  // namespace
}  // namespace broadway
