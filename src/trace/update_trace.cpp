#include "trace/update_trace.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace broadway {

Duration interval_gap(const ValidityInterval& a, const ValidityInterval& b) {
  if (a.begin >= b.end) return a.begin - b.end;
  if (b.begin >= a.end) return b.begin - a.end;
  return 0.0;  // overlap
}

UpdateTrace::UpdateTrace(std::string name, std::vector<TimePoint> updates,
                         Duration duration, double start_hour)
    : name_(std::move(name)),
      updates_(std::move(updates)),
      duration_(duration),
      start_hour_(start_hour) {
  BROADWAY_CHECK_MSG(std::isfinite(duration_) && duration_ > 0.0,
                     "trace duration " << duration_);
  // NaN compares false both ways, so is_sorted alone would let it through.
  BROADWAY_CHECK_MSG(std::all_of(updates_.begin(), updates_.end(),
                                 [](TimePoint t) { return std::isfinite(t); }),
                     "non-finite update time");
  BROADWAY_CHECK(std::is_sorted(updates_.begin(), updates_.end()));
  BROADWAY_CHECK(std::adjacent_find(updates_.begin(), updates_.end()) ==
                 updates_.end());
  if (!updates_.empty()) {
    BROADWAY_CHECK_MSG(updates_.front() >= 0.0 &&
                           updates_.back() < duration_,
                       "updates outside [0, duration)");
  }
}

Duration UpdateTrace::mean_update_interval() const {
  if (updates_.empty()) return kTimeInfinity;
  return duration_ / static_cast<double>(updates_.size());
}

std::size_t UpdateTrace::version_at(TimePoint t) const {
  // Number of updates with time <= t.
  return static_cast<std::size_t>(
      std::upper_bound(updates_.begin(), updates_.end(), t) -
      updates_.begin());
}

std::optional<TimePoint> UpdateTrace::last_update_at_or_before(
    TimePoint t) const {
  const std::size_t v = version_at(t);
  if (v == 0) return std::nullopt;
  return updates_[v - 1];
}

std::optional<TimePoint> UpdateTrace::first_update_after(TimePoint t) const {
  auto it = std::upper_bound(updates_.begin(), updates_.end(), t);
  if (it == updates_.end()) return std::nullopt;
  return *it;
}

std::size_t UpdateTrace::updates_in(TimePoint t0, TimePoint t1) const {
  BROADWAY_CHECK_MSG(t0 <= t1, "updates_in(" << t0 << ", " << t1 << ")");
  return version_at(t1) - version_at(t0);
}

ValidityInterval UpdateTrace::validity_at(TimePoint t) const {
  return validity_of_version(version_at(t));
}

ValidityInterval UpdateTrace::validity_of_version(std::size_t version) const {
  BROADWAY_CHECK_MSG(version <= updates_.size(),
                     "version " << version << " of " << updates_.size());
  ValidityInterval out;
  out.begin = version == 0 ? 0.0 : updates_[version - 1];
  out.end =
      version == updates_.size() ? kTimeInfinity : updates_[version];
  return out;
}

std::vector<std::size_t> UpdateTrace::bucket_counts(Duration bucket) const {
  BROADWAY_CHECK_MSG(bucket > 0.0, "bucket " << bucket);
  const std::size_t buckets =
      static_cast<std::size_t>(std::ceil(duration_ / bucket));
  std::vector<std::size_t> counts(buckets, 0);
  for (TimePoint u : updates_) {
    const std::size_t i = std::min(
        buckets - 1, static_cast<std::size_t>(u / bucket));
    ++counts[i];
  }
  return counts;
}

}  // namespace broadway
