// Coordinator dispatch: id-keyed, subscription-routed notification.
//
// The engine notifies only the coordinators subscribed to the polled
// object.  Two references check it over seeded random group topologies —
// multiple triggered and rate-heuristic coordinators, overlapping member
// sets, ungrouped bystander objects, loss injection and a mid-run crash:
//  * a golden digest per topology of the poll log, TTR series, triggered
//    count and fidelity, captured when the engine could still broadcast
//    every poll to every coordinator through the string-keyed wrapper,
//    and both dispatch modes hashed to the same value;
//  * a naive dispatch model: a recording decorator around every
//    coordinator logs each on_poll it receives, and the log must equal
//    what the poll log says the coordinator should hear — every
//    successful non-initial poll of a member, in poll-log order.
// A second set of pins covers the mechanism itself: the per-object
// subscriber index, and that an engine with zero coordinators performs
// zero notify work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "consistency/fixed_poll.h"
#include "consistency/heuristic.h"
#include "consistency/limd.h"
#include "consistency/triggered.h"
#include "golden_digest.h"
#include "id_of.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "origin/origin_server.h"
#include "proxy/poll_log.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/update_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

constexpr Duration kHorizon = 20000.0;

UpdateTrace irregular_trace(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<TimePoint> updates;
  TimePoint t = 0.0;
  for (;;) {
    t += rng.uniform(60.0, 900.0);
    if (t >= kHorizon) break;
    updates.push_back(t);
  }
  return UpdateTrace(name, std::move(updates), kHorizon);
}

// One seeded random topology: every object temporal under LIMD, a random
// mix of triggered / heuristic coordinators over random (overlapping)
// member subsets, with at least one ungrouped bystander.
struct Topology {
  std::vector<UpdateTrace> traces;
  struct Group {
    bool heuristic = false;
    Duration delta = 0.0;
    std::vector<std::string> members;
  };
  std::vector<Group> groups;
};

Topology make_topology(std::uint64_t seed) {
  Rng rng(seed * 7919 + 17);
  Topology topology;
  const std::size_t objects =
      static_cast<std::size_t>(rng.uniform_int(5, 9));
  for (std::size_t i = 0; i < objects; ++i) {
    topology.traces.push_back(irregular_trace(
        "/object/" + std::to_string(i), 1000 * seed + i));
  }
  const std::size_t groups =
      static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t g = 0; g < groups; ++g) {
    Topology::Group group;
    group.heuristic = rng.bernoulli(0.4);
    group.delta = rng.uniform(60.0, 600.0);
    // Sample 2–4 distinct members; objects - 1 keeps at least one
    // bystander outside every group.
    const std::size_t wanted =
        static_cast<std::size_t>(rng.uniform_int(2, 4));
    std::vector<std::size_t> candidates;
    for (std::size_t i = 0; i + 1 < objects; ++i) candidates.push_back(i);
    for (std::size_t pick = 0; pick < wanted && !candidates.empty();
         ++pick) {
      const std::size_t at = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1));
      group.members.push_back(topology.traces[candidates[at]].name());
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(at));
    }
    if (group.members.size() >= 2) topology.groups.push_back(group);
  }
  return topology;
}

// One on_poll call as a coordinator received it.
struct Received {
  ObjectId object = kInvalidObjectId;
  TimePoint poll_time = 0.0;
  bool modified = false;
};

// Transparent decorator that logs every on_poll before forwarding it
// (shaped like bench/e2e's TimedCoordinator).  Triggered polls re-enter
// through the inner coordinator's hooks, so nested calls land in the log
// in arrival order.
class RecordingCoordinator final : public MutualCoordinator {
 public:
  RecordingCoordinator(std::unique_ptr<MutualCoordinator> inner,
                       std::vector<Received>& log)
      : inner_(std::move(inner)), log_(log) {}

  void on_poll(ObjectId object, const TemporalPollObservation& obs) override {
    log_.push_back({object, obs.poll_time, obs.modified});
    inner_->on_poll(object, obs);
  }
  std::vector<ObjectId> subscriptions() const override {
    return inner_->subscriptions();
  }
  void reset() override { inner_->reset(); }

 protected:
  void on_bind() override { inner_->bind(hooks_); }

 private:
  std::unique_ptr<MutualCoordinator> inner_;
  std::vector<Received>& log_;
};

// The naive dispatch model.  Coordinator c must hear, for each of its
// members, exactly that member's successful non-initial polls, each
// matching its poll record, in poll-log order.  Across members the
// arrival order is poll-log order too, except that a poll triggered from
// inside a dispatch reaches the later subscribers of the triggering poll
// before that poll does (dispatch is depth-first).  So an arrival may
// precede an earlier-logged one only when it is a triggered poll.  Every
// on_poll is one counted notify.
void expect_dispatch_matches_model(
    const std::vector<PollRecord>& records,
    const std::vector<std::vector<ObjectId>>& members,
    const std::vector<std::vector<Received>>& received,
    std::uint64_t notifies) {
  std::uint64_t calls = 0;
  for (std::size_t c = 0; c < members.size(); ++c) {
    SCOPED_TRACE("coordinator " + std::to_string(c));
    const auto is_member = [&](ObjectId object) {
      return std::find(members[c].begin(), members[c].end(), object) !=
             members[c].end();
    };
    // Expected arrivals per member, as poll-log indices in log order.
    std::vector<std::vector<std::size_t>> by_object(
        *std::max_element(members[c].begin(), members[c].end()) + 1);
    for (std::size_t i = 0; i < records.size(); ++i) {
      const PollRecord& record = records[i];
      if (!record.failed && record.cause != PollCause::kInitial &&
          is_member(record.object)) {
        by_object[record.object].push_back(i);
      }
    }
    std::vector<std::size_t> cursor(by_object.size(), 0);
    std::size_t latest = 0;  // highest log index delivered so far
    for (std::size_t k = 0; k < received[c].size(); ++k) {
      const Received& call = received[c][k];
      SCOPED_TRACE("arrival " + std::to_string(k));
      ASSERT_TRUE(is_member(call.object)) << "object " << call.object;
      ASSERT_LT(cursor[call.object], by_object[call.object].size())
          << "more calls than polls for object " << call.object;
      const std::size_t index = by_object[call.object][cursor[call.object]++];
      EXPECT_EQ(call.poll_time, records[index].snapshot_time);
      EXPECT_EQ(call.modified, records[index].modified);
      if (index < latest) {
        EXPECT_EQ(records[latest].cause, PollCause::kTriggered)
            << "record " << latest << " overtook record " << index;
      }
      latest = std::max(latest, index);
    }
    for (const ObjectId object : members[c]) {
      EXPECT_EQ(cursor[object], by_object[object].size())
          << "object " << object;
    }
    calls += received[c].size();
  }
  EXPECT_EQ(calls, notifies);
}

struct TopologyRun {
  Digest digest;
  std::size_t records = 0;
  std::size_t triggered = 0;
};

// Runs one topology with every coordinator wrapped in a recorder, checks
// the dispatch against the naive model and digests the run.
TopologyRun run_topology(const Topology& topology) {
  Simulator sim;
  OriginServer origin(sim);

  EngineConfig config;
  config.rtt = 0.25;
  config.loss_probability = 0.05;
  config.retry_delay = 4.0;
  config.seed = 77;
  PollingEngine engine(sim, origin, config);

  for (const UpdateTrace& trace : topology.traces) {
    origin.attach_update_trace(trace.name(), trace);
    engine.add_temporal_object(
        trace.name(), std::make_unique<LimdPolicy>(
                          LimdPolicy::Config::paper_defaults(300.0)));
  }
  std::vector<std::vector<Received>> received(topology.groups.size());
  std::vector<std::vector<ObjectId>> members;
  for (std::size_t g = 0; g < topology.groups.size(); ++g) {
    const Topology::Group& group = topology.groups[g];
    std::unique_ptr<MutualCoordinator> coordinator;
    if (group.heuristic) {
      RateHeuristicCoordinator::Config heuristic;
      heuristic.delta_mutual = group.delta;
      coordinator = std::make_unique<RateHeuristicCoordinator>(group.members,
                                                               heuristic);
    } else {
      coordinator = std::make_unique<TriggeredPollCoordinator>(group.members,
                                                               group.delta);
    }
    engine.add_coordinator(std::make_unique<RecordingCoordinator>(
        std::move(coordinator), received[g]));
    members.emplace_back();
    for (const std::string& uri : group.members) {
      members.back().push_back(origin.object_id(uri));
    }
  }

  engine.start();
  sim.run_until(kHorizon / 2);
  engine.crash_and_recover();  // coordinator reset is part of the contract
  sim.run_until(kHorizon);

  const std::vector<PollRecord>& records = engine.poll_log().records();
  expect_dispatch_matches_model(records, members, received,
                                engine.coordinator_notifies());

  TopologyRun run;
  run.records = records.size();
  run.triggered = engine.triggered_polls();
  run.digest.records(records);
  for (const UpdateTrace& trace : topology.traces) {
    run.digest.series(engine.ttr_series(trace.name()));
  }
  run.digest.u64(engine.triggered_polls());
  const auto polls_a =
      successful_polls(engine.poll_log(), topology.traces[0].name());
  const auto polls_b =
      successful_polls(engine.poll_log(), topology.traces[1].name());
  run.digest.f64(evaluate_temporal_fidelity(topology.traces[0], polls_a,
                                            300.0, kHorizon)
                     .fidelity_time());
  run.digest.f64(evaluate_mutual_temporal(topology.traces[0], polls_a,
                                          topology.traces[1], polls_b, 300.0,
                                          kHorizon)
                     .fidelity_time());
  return run;
}

TEST(DispatchDifferential, RoutedMatchesLegacyOverRandomTopologies) {
  constexpr std::uint64_t kGolden[] = {
      0x01f69eb47a60e948ULL, 0x35605f5fea5313e1ULL, 0xa4a9803b085814c9ULL,
      0xc2b9a9bb58f8dfc3ULL, 0x87107ab00c073dddULL, 0xa5495b93b70a46d3ULL,
  };
  std::size_t triggered = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const Topology topology = make_topology(seed);
    ASSERT_FALSE(topology.groups.empty());
    SCOPED_TRACE("seed " + std::to_string(seed));
    const TopologyRun run = run_topology(topology);
    ASSERT_GT(run.records, 0u);
    triggered += run.triggered;
    EXPECT_EQ(run.digest.value(), kGolden[seed - 1]);
  }
  // The topologies exercise nested dispatch, not just plain fan-out.
  EXPECT_GT(triggered, 0u);
}

TEST(DispatchDifferential, ZeroCoordinatorEngineDoesNoNotifyWork) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  for (int i = 0; i < 4; ++i) {
    const UpdateTrace trace =
        irregular_trace("/object/" + std::to_string(i), 400 + i);
    origin.attach_update_trace(trace.name(), trace);
    engine.add_temporal_object(
        trace.name(), std::make_unique<LimdPolicy>(
                          LimdPolicy::Config::paper_defaults(300.0)));
  }
  engine.start();
  sim.run_until(kHorizon);
  EXPECT_GT(engine.polls_performed(), 0u);
  // The subscriber index is empty, so stage 6 never dispatches.
  EXPECT_EQ(engine.coordinator_notifies(), 0u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.subscriber_count(id_of(
                  engine.uri_table(), "/object/" + std::to_string(i))),
              0u);
  }
}

TEST(DispatchDifferential, SubscriberIndexFollowsGroupMembership) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  for (const char* uri : {"/a", "/b", "/c"}) {
    origin.add_object(uri);
    engine.add_temporal_object(uri,
                               std::make_unique<FixedPollPolicy>(100.0));
  }
  engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/a", "/b"}, 60.0));
  engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/b", "/c"}, 60.0));
  // A null coordinator subscribes to nothing.
  engine.add_coordinator(std::make_unique<NullCoordinator>());

  const UriTable& table = engine.uri_table();
  EXPECT_EQ(engine.subscriber_count(id_of(table, "/a")), 1u);
  EXPECT_EQ(engine.subscriber_count(id_of(table, "/b")), 2u);  // overlapping
  EXPECT_EQ(engine.subscriber_count(id_of(table, "/c")), 1u);
  EXPECT_EQ(engine.subscriber_count(kInvalidObjectId), 0u);
}

TEST(DispatchDifferential, UnknownMemberFailsAtRegistration) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine engine(sim, origin);
  origin.add_object("/a");
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(10.0));
  // Member interning happens at add_coordinator, so a bad member list
  // fails fast instead of aborting mid-simulation on the first trigger.
  EXPECT_THROW(
      engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
          std::vector<std::string>{"/a", "/ghost"}, 60.0)),
      CheckFailure);
}

}  // namespace
}  // namespace broadway
