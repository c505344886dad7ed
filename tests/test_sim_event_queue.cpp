// Ordering contract of the Simulator's event queue: a naive
// scan-for-the-minimum model as the ordering oracle for random op mixes.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

// ---- ordering oracle -------------------------------------------------------

// Reference model of the ordering contract: a flat vector of live
// (time, seq, tag) entries, and firing scans for the (time, seq) minimum.
// No heap, no slot pool, no tombstones — too slow for real runs, and
// obviously correct.  Sequence numbers advance exactly as the Simulator's
// do (one per schedule), so the model and the engine agree on every
// same-instant tie-break.
class NaiveScheduler {
 public:
  using FireFn = std::function<void(int tag)>;

  TimePoint now() const { return now_; }
  std::size_t pending() const { return entries_.size(); }
  std::uint64_t executed() const { return executed_; }
  /// Whether the clock's instant has been entered (an event fired there
  /// or run_until ended there).
  bool entered_now() const { return entered_ && entered_at_ == now_; }

  void schedule(TimePoint t, int tag) {
    entries_.push_back({t, next_seq_++, tag});
  }

  bool is_pending(int tag) const { return find(tag) != entries_.end(); }

  bool cancel(int tag) {
    const auto it = find(tag);
    if (it == entries_.end()) return false;
    entries_.erase(it);
    return true;
  }

  std::size_t run(std::size_t limit, const FireFn& fire) {
    std::size_t fired = 0;
    while (fired < limit && fire_next(kTimeInfinity, fire)) ++fired;
    return fired;
  }

  std::size_t run_until(TimePoint horizon, const FireFn& fire) {
    std::size_t fired = 0;
    while (fire_next(horizon, fire)) ++fired;
    now_ = horizon;
    enter();
    return fired;
  }

 private:
  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    int tag;
  };

  std::vector<Entry>::const_iterator find(int tag) const {
    return std::find_if(entries_.begin(), entries_.end(),
                        [tag](const Entry& e) { return e.tag == tag; });
  }

  // Fire the earliest entry if it is due by `horizon`.
  bool fire_next(TimePoint horizon, const FireFn& fire) {
    if (entries_.empty()) return false;
    auto min = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->time < min->time ||
          (it->time == min->time && it->seq < min->seq)) {
        min = it;
      }
    }
    if (min->time > horizon) return false;
    const Entry entry = *min;
    entries_.erase(min);
    now_ = entry.time;
    enter();
    ++executed_;
    fire(entry.tag);
    return true;
  }

  void enter() {
    entered_ = true;
    entered_at_ = now_;
  }

  TimePoint now_ = 0.0;
  bool entered_ = false;
  TimePoint entered_at_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> entries_;
};

// One recorded firing: (time, script tag).  EventIds are engine-internal,
// so identity is asserted over what an observer of the simulation sees.
using FireLog = std::vector<std::pair<TimePoint, int>>;

// Tags at or above this mark follow-up events scheduled from inside a
// firing callback; they never chain further.
constexpr int kFollowUpTag = 1 << 20;

// Drive a Simulator and the naive model in lockstep through one seeded op
// mix — schedules with quantised delays (same-instant ties), cancels,
// reschedules, same-instant bursts, callbacks that schedule follow-ups
// (some at the current instant), and advances by step count or to a horizon that often
// lands exactly on pending event times.  Every cancel, is_pending and
// fire_time answer and every phase-end clock / pending / executed reading
// is compared on the way; the two fire logs are returned for comparison.
std::pair<FireLog, FireLog> run_lockstep(std::uint64_t seed) {
  Simulator sim;
  NaiveScheduler model;
  FireLog sim_log;
  FireLog model_log;
  Rng rng(seed);
  std::vector<std::pair<EventId, int>> pending;  // (engine id, script tag)
  int next_tag = 0;

  // Every 5th script event schedules a follow-up from its callback, at
  // delay 0, 0.25 or 0.5 — the chained-timer pattern.
  const auto follows_up = [](int tag) {
    return tag < kFollowUpTag && tag % 5 == 0;
  };
  const auto follow_up_delay = [](int tag) { return (tag % 3) * 0.25; };

  std::function<void(int)> sim_fire = [&](int tag) {
    BROADWAY_CHECK(sim.current_event() != kInvalidEventId);
    sim_log.emplace_back(sim.now(), tag);
    if (follows_up(tag)) {
      const int child = tag + kFollowUpTag;
      sim.schedule_after(follow_up_delay(tag),
                         [&sim_fire, child] { sim_fire(child); });
    }
  };
  const NaiveScheduler::FireFn model_fire = [&](int tag) {
    model_log.emplace_back(model.now(), tag);
    if (follows_up(tag)) {
      model.schedule(model.now() + follow_up_delay(tag), tag + kFollowUpTag);
    }
  };

  const auto schedule = [&](TimePoint t) {
    const int tag = next_tag++;
    const EventId id = sim.schedule_at(t, [&sim_fire, tag] { sim_fire(tag); });
    pending.emplace_back(id, tag);
    model.schedule(t, tag);
  };
  const auto cancel_random = [&] {
    const std::size_t victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
    const auto [id, tag] = pending[victim];
    EXPECT_EQ(sim.fire_time(id) == kTimeInfinity, !model.is_pending(tag));
    EXPECT_EQ(sim.cancel(id), model.cancel(tag));
    EXPECT_FALSE(sim.cancel(id));  // cancelling twice is a no-op
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
  };

  for (int phase = 0; phase < 30; ++phase) {
    const int ops = static_cast<int>(rng.uniform_int(5, 40));
    for (int op = 0; op < ops; ++op) {
      // Scaled so every op keeps its original share of the mix.
      const double dice = rng.uniform01() * 0.87;
      if (dice < 0.45 || pending.empty()) {
        schedule(sim.now() + rng.uniform_int(0, 40) * 0.25);
      } else if (dice < 0.62) {
        cancel_random();
      } else if (dice < 0.77) {
        // Reschedule: cancel + schedule at a fresh instant, like
        // PeriodicTask::reschedule does.
        cancel_random();
        schedule(sim.now() + rng.uniform_int(0, 40) * 0.25);
      } else {
        // Burst: several events at one shared instant.
        const double t = sim.now() + rng.uniform_int(0, 20) * 0.5;
        const int burst = static_cast<int>(rng.uniform_int(2, 6));
        for (int i = 0; i < burst; ++i) schedule(t);
      }
    }
    if (rng.bernoulli(0.5)) {
      const std::size_t limit =
          static_cast<std::size_t>(rng.uniform_int(1, 30));
      EXPECT_EQ(sim.run(limit), model.run(limit, model_fire));
    } else {
      // Integral horizons on a 0.25 grid: often exactly an event time,
      // sometimes the current instant itself.
      const TimePoint horizon = sim.now() + rng.uniform_int(0, 12) * 1.0;
      EXPECT_EQ(sim.run_until(horizon), model.run_until(horizon, model_fire));
    }
    EXPECT_EQ(sim.now(), model.now()) << "phase " << phase;
    EXPECT_EQ(sim.pending(), model.pending()) << "phase " << phase;
    EXPECT_EQ(sim.executed(), model.executed()) << "phase " << phase;
    EXPECT_EQ(sim.reached(sim.now()), model.entered_now()) << "phase "
                                                           << phase;
    const auto fired = [&](const std::pair<EventId, int>& entry) {
      const bool live = sim.is_pending(entry.first);
      EXPECT_EQ(live, model.is_pending(entry.second));
      return !live;
    };
    pending.erase(std::remove_if(pending.begin(), pending.end(), fired),
                  pending.end());
  }
  EXPECT_EQ(sim.run(), model.run(SIZE_MAX, model_fire));
  EXPECT_EQ(sim.pending(), 0u);
  return {sim_log, model_log};
}

TEST(SimulatorOracle, RandomOpMixFiresLikeTheNaiveModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto [sim_log, model_log] = run_lockstep(seed);
    ASSERT_FALSE(model_log.empty());
    EXPECT_EQ(sim_log, model_log) << "fire sequences diverged for seed "
                                  << seed;
  }
}

TEST(SimulatorOracle, CountersAgreeWithTheNaiveModel) {
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    Simulator sim;
    NaiveScheduler model;
    Rng rng(seed);
    for (int i = 0; i < 500; ++i) {
      const TimePoint t = rng.uniform_int(0, 200) * 0.5;
      const EventId id = sim.schedule_at(t, [] {});
      model.schedule(t, i);
      if (rng.bernoulli(0.3)) {
        EXPECT_TRUE(sim.cancel(id));
        EXPECT_TRUE(model.cancel(i));
      }
    }
    sim.run_until(60.0);
    model.run_until(60.0, [](int) {});
    EXPECT_EQ(sim.pending(), model.pending());
    EXPECT_EQ(sim.executed(), model.executed());
    EXPECT_DOUBLE_EQ(sim.now(), model.now());
  }
}

}  // namespace
}  // namespace broadway
