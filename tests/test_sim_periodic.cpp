// Owner-held timers (sim/simulator.h): the repeating-task idiom every
// periodic owner in the library follows (poll timers, client streams, the
// trace collector), re-keys in place, and owner dispatch by kind and
// subject.
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "util/check.h"

namespace broadway {
namespace {

// A repeating task built on one Timer: each firing runs `body`, whose
// return value is the delay to the next firing (negative stops).  When
// the body re-arms or stops the timer itself, that wins over the return
// value — exactly how the engine's poll timers (which always re-arm
// explicitly) and the client streams (which re-arm with the returned gap)
// use their timers.
class Repeater : private TimerOwner {
 public:
  Repeater(Simulator& sim, std::function<Duration()> body)
      : body_(std::move(body)) {
    timer.bind(sim, *this);
  }

  Timer timer;

 private:
  void on_timer(Timer&) override {
    const Duration next = body_();
    if (next >= 0.0 && !timer.active()) timer.reschedule(next);
  }

  std::function<Duration()> body_;
};

TEST(Timer, FixedPeriodFiresRepeatedly) {
  Simulator sim;
  std::vector<double> fires;
  Repeater task(sim, [&] {
    fires.push_back(sim.now());
    return 10.0;
  });
  task.timer.start(10.0);
  sim.run_until(45.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0, 20.0, 30.0, 40.0}));
}

TEST(Timer, VariablePeriodFollowsBodyReturn) {
  Simulator sim;
  std::vector<double> fires;
  double next = 1.0;
  Repeater task(sim, [&] {
    fires.push_back(sim.now());
    next *= 2.0;  // 2, 4, 8 ... like LIMD growth
    return next;
  });
  task.timer.start(1.0);
  sim.run_until(16.0);
  EXPECT_EQ(fires, (std::vector<double>{1.0, 3.0, 7.0, 15.0}));
}

TEST(Timer, NegativeReturnStops) {
  Simulator sim;
  int count = 0;
  Repeater task(sim, [&] {
    ++count;
    return count < 3 ? 1.0 : -1.0;
  });
  task.timer.start(1.0);
  sim.run();
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(task.timer.active());
}

TEST(Timer, StopCancelsPendingFire) {
  Simulator sim;
  int count = 0;
  Repeater task(sim, [&] {
    ++count;
    return 5.0;
  });
  task.timer.start(5.0);
  sim.run_until(6.0);
  EXPECT_EQ(count, 1);
  task.timer.stop();
  EXPECT_EQ(sim.pending(), 0u);  // removed in place, no tombstone
  sim.run_until(100.0);
  EXPECT_EQ(count, 1);
}

TEST(Timer, RescheduleReplacesPendingFire) {
  Simulator sim;
  std::vector<double> fires;
  Repeater task(sim, [&] {
    fires.push_back(sim.now());
    return 100.0;
  });
  task.timer.start(50.0);
  // Pull the poll forward, as a triggered poll does.
  sim.schedule_at(10.0, [&] {
    task.timer.reschedule(0.0);
    EXPECT_EQ(sim.pending(), 1u);  // the same entry, moved
  });
  sim.run_until(20.0);
  EXPECT_EQ(fires, (std::vector<double>{10.0}));
  EXPECT_TRUE(task.timer.active());
  EXPECT_DOUBLE_EQ(task.timer.next_fire_time(), 110.0);
}

TEST(Timer, RescheduleInsideBodyWins) {
  Simulator sim;
  std::vector<double> fires;
  Repeater* handle = nullptr;
  Repeater task(sim, [&] {
    fires.push_back(sim.now());
    if (fires.size() == 1) {
      handle->timer.reschedule(2.0);  // explicit reschedule overrides
      return 50.0;
    }
    return -1.0;
  });
  handle = &task;
  task.timer.start(1.0);
  sim.run();
  EXPECT_EQ(fires, (std::vector<double>{1.0, 3.0}));
}

TEST(Timer, NextFireTimeInfinityWhenInactive) {
  Simulator sim;
  Repeater task(sim, [] { return -1.0; });
  EXPECT_FALSE(task.timer.active());
  EXPECT_EQ(task.timer.next_fire_time(), kTimeInfinity);
}

TEST(Timer, DoubleStartThrows) {
  Simulator sim;
  Repeater task(sim, [] { return 1.0; });
  task.timer.start(1.0);
  EXPECT_THROW(task.timer.start(1.0), CheckFailure);
}

TEST(Timer, DestructorCancelsCleanly) {
  Simulator sim;
  int count = 0;
  {
    Repeater task(sim, [&] {
      ++count;
      return 1.0;
    });
    task.timer.start(1.0);
    sim.run_until(2.5);
    EXPECT_EQ(count, 2);
  }
  EXPECT_EQ(sim.pending(), 0u);
  sim.run_until(10.0);  // must not crash dereferencing a dead timer
  EXPECT_EQ(count, 2);
}

TEST(Timer, UnboundTimerRefusesToArm) {
  Timer timer;
  EXPECT_FALSE(timer.bound());
  EXPECT_THROW(timer.start(1.0), CheckFailure);
  timer.stop();  // a no-op, like stopping any idle timer
  EXPECT_EQ(timer.next_fire_time(), kTimeInfinity);
}

TEST(Timer, RejectsNegativeDelays) {
  Simulator sim;
  Repeater task(sim, [] { return 1.0; });
  EXPECT_THROW(task.timer.start(-1.0), CheckFailure);
  EXPECT_FALSE(task.timer.active());
}

TEST(Timer, OwnerDispatchesByKindAndSubject) {
  struct Owner : TimerOwner {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> fired;
    void on_timer(Timer& timer) override {
      fired.emplace_back(timer.kind(), timer.subject());
    }
  } owner;
  Simulator sim;
  Timer a;
  Timer b;
  a.bind(sim, owner, /*kind=*/1, /*subject=*/7);
  b.bind(sim, owner, /*kind=*/2, /*subject=*/9);
  b.start(1.0);
  a.start(2.0);
  sim.run();
  using Fire = std::pair<std::uint32_t, std::uint32_t>;
  EXPECT_EQ(owner.fired, (std::vector<Fire>{{2, 9}, {1, 7}}));
}

TEST(Timer, OwnerMayOutliveTheSimulator) {
  struct Owner : TimerOwner {
    void on_timer(Timer&) override {}
  } owner;
  Timer timer;
  {
    Simulator sim;
    timer.bind(sim, owner);
    timer.start(5.0);
    EXPECT_TRUE(timer.active());
  }
  // The dying simulator detached the pending timer.
  EXPECT_FALSE(timer.active());
}

TEST(Timer, FiringCarriesTheTagItWasArmedUnder) {
  struct Owner : TimerOwner {
    Simulator* sim = nullptr;
    std::vector<std::uint32_t> tags;
    void on_timer(Timer&) override { tags.push_back(sim->schedule_tag()); }
  } owner;
  Simulator sim;
  owner.sim = &sim;
  Timer timer;
  timer.bind(sim, owner);
  sim.set_schedule_tag(4);
  timer.start(1.0);
  sim.set_schedule_tag(9);
  const Simulator::NextEvent head = sim.next_event_info();
  EXPECT_TRUE(head.valid);
  EXPECT_EQ(head.tag, 4u);
  EXPECT_EQ(head.scheduled_at, 0.0);
  sim.run();
  EXPECT_EQ(owner.tags, (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(sim.schedule_tag(), 9u);  // restored after the firing
}

}  // namespace
}  // namespace broadway
