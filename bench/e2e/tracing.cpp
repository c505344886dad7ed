#include "tracing.h"

#include <iomanip>

namespace broadway::e2e {

namespace {

std::uint64_t elapsed_ns(Clock::time_point begin) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           begin)
          .count());
}

// Nested-time accumulators of the coordinator calls open on this thread,
// innermost last.  A triggered poll charges its duration to the innermost
// open call, whose self time then excludes it.
thread_local std::vector<std::uint64_t> open_coordinator_calls;

}  // namespace

CallStats CallStatsPool::total() const {
  CallStats sum;
  for (const CallStats& slot : slots_) {
    sum.calls += slot.calls;
    sum.ns += slot.ns;
  }
  return sum;
}

Duration TimedPolicy::next_ttr(const TemporalPollObservation& obs) {
  const Clock::time_point begin = Clock::now();
  const Duration ttr = inner_->next_ttr(obs);
  stats_.ns += elapsed_ns(begin);
  ++stats_.calls;
  return ttr;
}

void TimedCoordinator::on_poll(ObjectId object,
                               const TemporalPollObservation& obs) {
  open_coordinator_calls.push_back(0);
  const Clock::time_point begin = Clock::now();
  inner_->on_poll(object, obs);
  const std::uint64_t total = elapsed_ns(begin);
  const std::uint64_t nested = open_coordinator_calls.back();
  open_coordinator_calls.pop_back();
  stats_.ns += total > nested ? total - nested : 0;
  ++stats_.calls;
}

void TimedCoordinator::on_bind() {
  CoordinatorHooks hooks = hooks_;
  hooks.trigger_poll = [trigger = hooks_.trigger_poll](ObjectId object) {
    const Clock::time_point begin = Clock::now();
    trigger(object);
    if (!open_coordinator_calls.empty()) {
      open_coordinator_calls.back() += elapsed_ns(begin);
    }
  };
  inner_->bind(std::move(hooks));
}

void SpanLog::add(std::string name, Clock::time_point begin,
                  Clock::time_point end) {
  spans_.push_back({std::move(name), seconds_between(origin_, begin) * 1e6,
                    seconds_between(begin, end) * 1e6});
}

void SpanLog::write_events(std::ostream& out, bool first) const {
  out << std::fixed << std::setprecision(3);
  for (const Span& span : spans_) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"ts\":"
        << span.start_us << ",\"dur\":" << span.duration_us
        << ",\"pid\":1,\"tid\":" << track_ << "}";
  }
}

}  // namespace broadway::e2e
