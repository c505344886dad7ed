// Ordering contract of the Simulator's event queue: a naive
// scan-for-the-minimum model as the ordering oracle for random op mixes,
// including bounded runs (run_until, run_before) and run-ahead
// (try_advance) from inside firing callbacks.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
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
    while (fired < limit && fire_next(kTimeInfinity, true, fire)) ++fired;
    return fired;
  }

  std::size_t run_until(TimePoint horizon, const FireFn& fire) {
    std::size_t fired = 0;
    bounded_ = true;
    bound_ = horizon;
    while (fire_next(horizon, true, fire)) ++fired;
    bounded_ = false;
    now_ = horizon;
    enter();
    return fired;
  }

  std::size_t run_before(TimePoint fence, const FireFn& fire) {
    std::size_t fired = 0;
    bounded_ = true;
    bound_ = fence;
    while (fire_next(fence, false, fire)) ++fired;
    bounded_ = false;
    return fired;
  }

  /// The run-ahead contract, stated directly: inside a bounded run, move
  /// to `t` iff `t` is strictly before both the earliest live entry and
  /// the run's bound.
  bool try_advance(TimePoint t) {
    if (!bounded_) return false;
    TimePoint next = kTimeInfinity;
    for (const Entry& entry : entries_) next = std::min(next, entry.time);
    if (!(t < next && t < bound_)) return false;
    now_ = t;
    enter();
    return true;
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

  // Fire the earliest entry if it is due by `horizon` (strictly before
  // it when not `inclusive`).
  bool fire_next(TimePoint horizon, bool inclusive, const FireFn& fire) {
    if (entries_.empty()) return false;
    auto min = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->time < min->time ||
          (it->time == min->time && it->seq < min->seq)) {
        min = it;
      }
    }
    if (inclusive ? min->time > horizon : min->time >= horizon) {
      return false;
    }
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
  bool bounded_ = false;  // inside run_until / run_before
  TimePoint bound_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> entries_;
};

// One observation: a firing, or a run-ahead attempt from inside one.
// EventIds are engine-internal, so identity is asserted over what an
// observer of the simulation sees: the clock, the script tag, what the
// attempt answered and whether the clock's instant counts as reached.
struct Observation {
  enum Kind { kFired, kAdvanced, kRefused };
  TimePoint now = 0.0;
  int tag = 0;
  Kind kind = kFired;
  bool reached = false;
  bool operator==(const Observation&) const = default;
};
using FireLog = std::vector<Observation>;

// Tags at or above this mark follow-up events scheduled from inside a
// firing callback; they never chain further.
constexpr int kFollowUpTag = 1 << 20;

// Drive a Simulator and the naive model in lockstep through one seeded op
// mix — schedules with quantised delays (same-instant ties), cancels,
// reschedules, same-instant bursts, callbacks that schedule follow-ups
// (some at the current instant) and try to run ahead, and advances by
// step count, to a horizon or to a fence that often lands exactly on
// pending event times.  Every cancel, is_pending and fire_time answer
// and every phase-end clock / pending / executed / reached reading is
// compared on the way; the two observation logs are returned for
// comparison.
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
  // Two of three script events then try to run ahead, up to three times,
  // by gaps on the same 0.25 grid as every schedule and bound — so the
  // target often ties the queue head or the run's bound exactly, and a
  // 0 gap targets the current instant.  A follow-up at delay 0 makes the
  // head tie the clock itself.
  const auto runs_ahead = [](int tag) {
    return tag < kFollowUpTag && tag % 3 != 2;
  };
  const auto advance_gap = [](int tag, int attempt) {
    return ((tag + 3 * attempt) % 6) * 0.25;
  };

  std::function<void(int)> sim_fire = [&](int tag) {
    BROADWAY_CHECK(sim.current_event() != kInvalidEventId);
    sim_log.push_back({sim.now(), tag, Observation::kFired,
                       sim.reached(sim.now())});
    if (follows_up(tag)) {
      const int child = tag + kFollowUpTag;
      sim.schedule_after(follow_up_delay(tag),
                         [&sim_fire, child] { sim_fire(child); });
    }
    if (!runs_ahead(tag)) return;
    for (int attempt = 0; attempt < 3; ++attempt) {
      const bool advanced =
          sim.try_advance(sim.now() + advance_gap(tag, attempt));
      sim_log.push_back(
          {sim.now(), tag,
           advanced ? Observation::kAdvanced : Observation::kRefused,
           sim.reached(sim.now())});
      if (!advanced) break;
    }
  };
  const NaiveScheduler::FireFn model_fire = [&](int tag) {
    model_log.push_back({model.now(), tag, Observation::kFired,
                         model.entered_now()});
    if (follows_up(tag)) {
      model.schedule(model.now() + follow_up_delay(tag), tag + kFollowUpTag);
    }
    if (!runs_ahead(tag)) return;
    for (int attempt = 0; attempt < 3; ++attempt) {
      const bool advanced =
          model.try_advance(model.now() + advance_gap(tag, attempt));
      model_log.push_back(
          {model.now(), tag,
           advanced ? Observation::kAdvanced : Observation::kRefused,
           model.entered_now()});
      if (!advanced) break;
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
    // Outside a bounded run, run-ahead is always refused.
    EXPECT_FALSE(sim.try_advance(sim.now() + rng.uniform_int(0, 4) * 0.25));
    const double mode = rng.uniform01();
    if (mode < 0.4) {
      const std::size_t limit =
          static_cast<std::size_t>(rng.uniform_int(1, 30));
      EXPECT_EQ(sim.run(limit), model.run(limit, model_fire));
    } else if (mode < 0.75) {
      // Integral horizons on a 0.25 grid: often exactly an event time,
      // sometimes the current instant itself.
      const TimePoint horizon = sim.now() + rng.uniform_int(0, 12) * 1.0;
      EXPECT_EQ(sim.run_until(horizon), model.run_until(horizon, model_fire));
    } else {
      // Fences on the 0.5 grid: events at the fence itself stay pending.
      const TimePoint fence = sim.now() + rng.uniform_int(0, 12) * 0.5;
      EXPECT_EQ(sim.run_before(fence), model.run_before(fence, model_fire));
      EXPECT_LE(sim.now(), fence);
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
  std::size_t advanced = 0;
  std::size_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto [sim_log, model_log] = run_lockstep(seed);
    ASSERT_FALSE(model_log.empty());
    EXPECT_EQ(sim_log, model_log) << "fire sequences diverged for seed "
                                  << seed;
    for (const Observation& seen : model_log) {
      advanced += seen.kind == Observation::kAdvanced;
      refused += seen.kind == Observation::kRefused;
    }
  }
  // The mix must exercise both answers of the run-ahead contract.
  EXPECT_GT(advanced, 50u);
  EXPECT_GT(refused, 50u);
}

// ---- run-ahead edges -------------------------------------------------------

TEST(SimulatorRunAhead, RefusesATieWithTheQueueHead) {
  Simulator sim;
  sim.schedule_at(3.0, [] {});
  sim.schedule_at(1.0, [&] {
    EXPECT_TRUE(sim.try_advance(1.0));  // the current instant itself
    EXPECT_TRUE(sim.try_advance(2.5));
    EXPECT_EQ(sim.now(), 2.5);
    EXPECT_TRUE(sim.reached(2.5));
    EXPECT_FALSE(sim.try_advance(3.0));  // ties the head: the queue decides
    EXPECT_FALSE(sim.try_advance(4.0));
    EXPECT_EQ(sim.now(), 2.5);
  });
  EXPECT_EQ(sim.run_until(10.0), 2u);
  EXPECT_EQ(sim.executed(), 2u);  // running ahead is not an event
}

TEST(SimulatorRunAhead, RefusesTheBoundOfTheRunInProgress) {
  Simulator sim;
  sim.schedule_at(1.0, [&] {
    EXPECT_FALSE(sim.try_advance(2.0));  // run_until's horizon
    EXPECT_TRUE(sim.try_advance(1.5));
  });
  sim.run_until(2.0);
  EXPECT_EQ(sim.now(), 2.0);

  sim.schedule_at(4.0, [] {});
  sim.schedule_at(3.0, [&] {
    EXPECT_FALSE(sim.try_advance(3.5));  // run_before's fence
    EXPECT_TRUE(sim.try_advance(3.25));
  });
  EXPECT_EQ(sim.run_before(3.5), 1u);
  // The clock stays where the run left it, short of the fence, and the
  // event at 4.0 (past the fence) is still pending.
  EXPECT_EQ(sim.now(), 3.25);
  EXPECT_TRUE(sim.reached(3.25));
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run_before(4.0), 0u);  // an event at the fence stays
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(SimulatorRunAhead, RefusedOutsideABoundedRun) {
  Simulator sim;
  EXPECT_FALSE(sim.try_advance(1.0));
  EXPECT_EQ(sim.now(), 0.0);
  EXPECT_FALSE(sim.reached(0.0));
  bool inside = false;
  sim.schedule_at(1.0, [&] {
    inside = true;
    EXPECT_FALSE(sim.try_advance(1.5));  // step() runs exactly one event
  });
  EXPECT_TRUE(sim.step());
  EXPECT_TRUE(inside);
  sim.schedule_at(2.0, [&] { EXPECT_FALSE(sim.try_advance(2.5)); });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(sim.now(), 2.0);
  // A throwing callback cannot leave run-ahead enabled.
  sim.schedule_at(3.0, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(sim.run_until(5.0), std::runtime_error);
  EXPECT_FALSE(sim.try_advance(3.5));
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
