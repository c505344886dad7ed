#include "trace/value_trace.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace broadway {

ValueTrace::ValueTrace(std::string name, double initial_value,
                       std::vector<Step> steps, Duration duration)
    : name_(std::move(name)),
      initial_value_(initial_value),
      steps_(std::move(steps)),
      duration_(duration),
      min_value_(initial_value),
      max_value_(initial_value) {
  // A finite duration bounds every step time below (NaN fails every
  // comparison, so the strict-increase check rejects it too).
  BROADWAY_CHECK_MSG(std::isfinite(duration_) && duration_ > 0.0,
                     "trace duration " << duration_);
  TimePoint prev = -1.0;
  for (const Step& s : steps_) {
    BROADWAY_CHECK_MSG(s.time > prev, "steps not strictly increasing at t="
                                          << s.time);
    BROADWAY_CHECK_MSG(s.time >= 0.0 && s.time < duration_,
                       "step outside [0, duration) at t=" << s.time);
    BROADWAY_CHECK_MSG(std::isfinite(s.value), "non-finite step value");
    prev = s.time;
    min_value_ = std::min(min_value_, s.value);
    max_value_ = std::max(max_value_, s.value);
  }
}

std::size_t ValueTrace::governing_step(TimePoint t) const {
  // First step with time > t, minus one.
  auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t,
      [](TimePoint lhs, const Step& rhs) { return lhs < rhs.time; });
  if (it == steps_.begin()) return SIZE_MAX;
  return static_cast<std::size_t>(it - steps_.begin()) - 1;
}

double ValueTrace::value_at(TimePoint t) const {
  const std::size_t i = governing_step(t);
  return i == SIZE_MAX ? initial_value_ : steps_[i].value;
}

std::size_t ValueTrace::version_at(TimePoint t) const {
  const std::size_t i = governing_step(t);
  return i == SIZE_MAX ? 0 : i + 1;
}

double ValueTrace::max_abs_deviation(TimePoint t0, TimePoint t1,
                                     double ref) const {
  BROADWAY_CHECK_MSG(t0 <= t1, "interval (" << t0 << ", " << t1 << "]");
  if (t0 == t1) return 0.0;
  // Value just after t0 (right-continuity: the value at t0+ is value_at(t0)
  // unless a step lands exactly in (t0, t1]).
  double worst = std::abs(value_at(t1) - ref);
  worst = std::max(worst, std::abs(value_at(t0) - ref));
  auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t0,
      [](TimePoint lhs, const Step& rhs) { return lhs < rhs.time; });
  for (; it != steps_.end() && it->time <= t1; ++it) {
    worst = std::max(worst, std::abs(it->value - ref));
  }
  return worst;
}

Duration ValueTrace::time_deviation_at_least(TimePoint t0, TimePoint t1,
                                             double ref,
                                             double bound) const {
  BROADWAY_CHECK_MSG(t0 <= t1, "interval (" << t0 << ", " << t1 << "]");
  BROADWAY_CHECK_MSG(bound >= 0.0, "bound " << bound);
  if (t0 == t1) return 0.0;
  Duration total = 0.0;
  TimePoint cursor = t0;
  double current = value_at(t0);
  auto it = std::upper_bound(
      steps_.begin(), steps_.end(), t0,
      [](TimePoint lhs, const Step& rhs) { return lhs < rhs.time; });
  while (cursor < t1) {
    const TimePoint next =
        (it != steps_.end() && it->time <= t1) ? it->time : t1;
    if (std::abs(current - ref) >= bound) total += next - cursor;
    cursor = next;
    if (it != steps_.end() && it->time <= t1) {
      current = it->value;
      ++it;
    }
  }
  return total;
}

std::vector<TimePoint> ValueTrace::update_times() const {
  std::vector<TimePoint> out;
  out.reserve(steps_.size());
  for (const Step& s : steps_) out.push_back(s.time);
  return out;
}

}  // namespace broadway
