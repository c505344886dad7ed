#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <vector>

#include "util/check.h"

namespace broadway {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(3.0, [&] { order.push_back(3); });
  sim.schedule_at(1.0, [&] { order.push_back(1); });
  sim.schedule_at(2.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), 3.0);
}

TEST(Simulator, EqualTimesFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(5.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1.0;
  sim.schedule_at(42.5, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 42.5);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  double seen = -1.0;
  sim.schedule_after(5.0, [&] { seen = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(seen, 15.0);
}

TEST(Simulator, RejectsPastAndBadSchedules) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5.0, [] {}), CheckFailure);
  EXPECT_THROW(sim.schedule_after(-1.0, [] {}), CheckFailure);
  EXPECT_THROW(sim.schedule_at(kTimeInfinity, [] {}), CheckFailure);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule_at(1.0, [&] {
    times.push_back(sim.now());
    sim.schedule_after(1.0, [&] { times.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 2.0}));
}

TEST(Simulator, EventAtCurrentInstantRunsAfterEarlierScheduled) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(1.0, [&] {
    order.push_back(1);
    // Same-instant event lands after the other t=1 event already queued.
    sim.schedule_at(1.0, [&] { order.push_back(3); });
  });
  sim.schedule_at(1.0, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_at(1.0, [&] { ran = true; });
  EXPECT_TRUE(sim.is_pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.is_pending(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceIsHarmless) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(999999));
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const EventId id = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, FireTimeReportsSchedule) {
  Simulator sim;
  const EventId id = sim.schedule_at(7.5, [] {});
  EXPECT_DOUBLE_EQ(sim.fire_time(id), 7.5);
  EXPECT_EQ(sim.fire_time(424242), kTimeInfinity);
}

TEST(Simulator, StepRunsExactlyOne) {
  Simulator sim;
  int count = 0;
  sim.schedule_at(1.0, [&] { ++count; });
  sim.schedule_at(2.0, [&] { ++count; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, RunLimitStopsEarly) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 5; ++i) {
    sim.schedule_at(i, [&] { ++count; });
  }
  EXPECT_EQ(sim.run(3), 3u);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 2.5);
  EXPECT_EQ(sim.pending(), 2u);
  sim.run();
  EXPECT_EQ(fired.size(), 4u);
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(100.0);
  EXPECT_DOUBLE_EQ(sim.now(), 100.0);
}

TEST(Simulator, RunUntilInclusiveOfHorizonEvents) {
  Simulator sim;
  bool ran = false;
  sim.schedule_at(2.5, [&] { ran = true; });
  sim.run_until(2.5);
  EXPECT_TRUE(ran);
}

TEST(Simulator, ExecutedCounter) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.schedule_at(i + 1.0, [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 7u);
}

TEST(Simulator, CurrentEventIdentifiesTheRunningCallback) {
  Simulator sim;
  EXPECT_EQ(sim.current_event(), kInvalidEventId);
  EventId seen_first = kInvalidEventId;
  EventId seen_second = kInvalidEventId;
  const EventId first = sim.schedule_at(1.0, [&] {
    seen_first = sim.current_event();
  });
  const EventId second = sim.schedule_at(2.0, [&] {
    seen_second = sim.current_event();
  });
  sim.run();
  EXPECT_EQ(seen_first, first);
  EXPECT_EQ(seen_second, second);
  EXPECT_EQ(sim.current_event(), kInvalidEventId);
}

TEST(Simulator, EventIdsAreNeverRevivedBySlotReuse) {
  // Slot-pool ids carry a generation: after an event fires (or is
  // cancelled), its id must stay dead even though the slot is reused by
  // later schedules.
  Simulator sim;
  const EventId first = sim.schedule_at(1.0, [] {});
  sim.run();
  EXPECT_FALSE(sim.is_pending(first));
  std::vector<EventId> later;
  for (int i = 0; i < 64; ++i) {
    later.push_back(sim.schedule_at(10.0 + i, [] {}));
  }
  // The old id addresses a reused slot now, but a stale generation.
  EXPECT_FALSE(sim.is_pending(first));
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.fire_time(first), kTimeInfinity);
  for (const EventId id : later) EXPECT_TRUE(sim.is_pending(id));
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, ManyEventsStaySorted) {
  Simulator sim;
  std::vector<double> fired;
  // Insert in a scrambled deterministic order.
  for (int i = 0; i < 1000; ++i) {
    const double t = ((i * 7919) % 1000) + 1.0;
    sim.schedule_at(t, [&fired, &sim] { fired.push_back(sim.now()); });
  }
  sim.run();
  EXPECT_EQ(fired.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

TEST(Simulator, ReachedTracksEnteredInstants) {
  Simulator sim;
  // At time 0 but nothing has run there yet.
  EXPECT_FALSE(sim.reached(0.0));
  bool inside = false;
  sim.schedule_at(0.0, [&] { inside = sim.reached(0.0); });
  sim.schedule_at(5.0, [] {});
  sim.step();
  EXPECT_TRUE(inside);  // firing an event enters its instant
  EXPECT_TRUE(sim.reached(0.0));
  EXPECT_FALSE(sim.reached(5.0));
  sim.step();
  EXPECT_TRUE(sim.reached(5.0));
  EXPECT_FALSE(sim.reached(5.5));
  sim.advance_clock(7.0);
  EXPECT_TRUE(sim.reached(7.0));
  sim.run_until(9.0);  // no event at 9: the horizon itself is entered
  EXPECT_TRUE(sim.reached(9.0));
  EXPECT_FALSE(sim.reached(9.0 + 1e-9));

  Simulator idle;
  idle.run_until(0.0);
  EXPECT_TRUE(idle.reached(0.0));
}

}  // namespace
}  // namespace broadway
