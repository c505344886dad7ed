// Outside-in layer timing for the end-to-end benchmark.
//
// The benchmark never edits the library to measure it.  It times each call
// into a layer from the outside instead:
//   * TimedPolicy wraps a RefreshPolicy (handed to the engine through the
//     policy factory) and counts next_ttr() calls and their wall time;
//   * TimedCoordinator wraps a MutualCoordinator.  It binds the inner
//     coordinator in on_bind() with a trigger_poll hook that is timed too,
//     so the coordinator's *self* time excludes the triggered polls it
//     causes (a per-thread stack of open coordinator calls collects the
//     nested time);
//   * SpanLog keeps phase spans in memory and writes them as Chrome
//     trace-event JSON once the run is over.
// Counters live in one CallStats slot per decorator instance, and a slot is
// only ever touched by the thread that runs its shard, so sharded runs need
// no atomics.  Slots are summed after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "consistency/coordinator.h"
#include "consistency/types.h"

namespace broadway::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

/// Calls into one decorated layer instance and the wall time they took.
struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
};

/// Stable storage for per-instance CallStats (slots never move, so the
/// decorators may keep references).  Slots are created during set-up on
/// one thread; summed after the run.
class CallStatsPool {
 public:
  CallStats& add() { return slots_.emplace_back(); }
  CallStats total() const;

 private:
  std::deque<CallStats> slots_;
};

/// RefreshPolicy decorator that times next_ttr().
class TimedPolicy final : public RefreshPolicy {
 public:
  TimedPolicy(std::unique_ptr<RefreshPolicy> inner, CallStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  Duration initial_ttr() const override { return inner_->initial_ttr(); }
  Duration next_ttr(const TemporalPollObservation& obs) override;
  void reset() override { inner_->reset(); }
  Duration current_ttr() const override { return inner_->current_ttr(); }

 private:
  std::unique_ptr<RefreshPolicy> inner_;
  CallStats& stats_;
};

/// MutualCoordinator decorator that times on_poll() minus the triggered
/// polls issued from inside it.
class TimedCoordinator final : public MutualCoordinator {
 public:
  TimedCoordinator(std::unique_ptr<MutualCoordinator> inner, CallStats& stats)
      : inner_(std::move(inner)), stats_(stats) {}

  using MutualCoordinator::on_poll;
  void on_poll(ObjectId object, const TemporalPollObservation& obs) override;
  std::vector<ObjectId> subscriptions() const override {
    return inner_->subscriptions();
  }
  void reset() override { inner_->reset(); }

 protected:
  void on_bind() override;

 private:
  std::unique_ptr<MutualCoordinator> inner_;
  CallStats& stats_;
};

/// Phase spans of one traced repetition, kept in memory and written at the
/// end.  `track` becomes the Chrome trace thread id, one row per
/// repetition; timestamps count from `origin`.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, int track)
      : origin_(origin), track_(track) {}

  void add(std::string name, Clock::time_point begin, Clock::time_point end);

  /// Append this log's spans as Chrome trace events ("ph": "X"); `first`
  /// says whether the output has no event yet.
  void write_events(std::ostream& out, bool first) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double duration_us = 0.0;
  };
  Clock::time_point origin_;
  int track_;
  std::vector<Span> spans_;
};

}  // namespace broadway::e2e
