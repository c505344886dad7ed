#include "metrics/mutual_fidelity.h"

#include <algorithm>

#include "util/check.h"
#include "util/gallop.h"

namespace broadway {

double MutualTemporalReport::fidelity_violations() const {
  if (polls == 0) return 1.0;
  return 1.0 -
         static_cast<double>(violations) / static_cast<double>(polls);
}

double MutualTemporalReport::fidelity_time() const {
  if (horizon <= 0.0) return 1.0;
  return 1.0 - out_sync_time / horizon;
}

namespace {

void check_completion_order(const std::vector<PollInstant>& polls) {
  for (std::size_t k = 1; k < polls.size(); ++k) {
    BROADWAY_CHECK_MSG(polls[k].complete >= polls[k - 1].complete,
                       "polls out of order");
  }
}

// One object's side of the sweep: the latest poll whose copy is visible
// at the sweep's instant (polls sorted by completion) and the validity
// interval of the version that poll captured.
class HeldCopy {
 public:
  HeldCopy(const UpdateTrace& trace, const std::vector<PollInstant>& polls,
           TimePoint start)
      : trace_(trace), polls_(polls) {
    step_to(start);
    refresh();
  }

  const ValidityInterval& validity() const { return validity_; }

  /// Completion of the next poll; kTimeInfinity after the last.
  TimePoint next_completion() const {
    return poll_ + 1 < polls_.size() ? polls_[poll_ + 1].complete
                                     : kTimeInfinity;
  }

  /// Move to the latest poll completed at or before `t`; the validity is
  /// recomputed only when the held copy changes.
  void advance_to(TimePoint t) {
    if (step_to(t)) refresh();
  }

 private:
  /// Move the poll cursor; true when it moved.
  bool step_to(TimePoint t) {
    const std::size_t held = poll_;
    while (poll_ + 1 < polls_.size() && polls_[poll_ + 1].complete <= t) {
      ++poll_;
    }
    return poll_ != held;
  }

  void refresh() {
    // Snapshots can step back (a relayed copy older than the one before
    // it), so the version cursor gallops either way.
    version_ = upper_bound_from(trace_.updates(), version_,
                                polls_[poll_].snapshot);
    validity_ = trace_.validity_of_version(version_);
  }

  const UpdateTrace& trace_;
  const std::vector<PollInstant>& polls_;
  std::size_t poll_ = 0;
  std::size_t version_ = 0;
  ValidityInterval validity_;
};

}  // namespace

MutualTemporalReport evaluate_mutual_temporal(
    const UpdateTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const UpdateTrace& trace_b, const std::vector<PollInstant>& polls_b,
    Duration delta_mutual, Duration horizon) {
  BROADWAY_CHECK_MSG(!polls_a.empty() && !polls_b.empty(),
                     "both objects need at least the initial fetch");
  BROADWAY_CHECK_MSG(delta_mutual >= 0.0, "delta " << delta_mutual);
  BROADWAY_CHECK_MSG(horizon > 0.0, "horizon " << horizon);
  check_completion_order(polls_a);
  check_completion_order(polls_b);

  MutualTemporalReport report;
  report.horizon = horizon;
  report.polls = polls_a.size() + polls_b.size();

  // Segments run between consecutive distinct completions of either
  // schedule within (start, horizon); the pair state is constant on each.
  // Merge cursors walk both schedules in completion order.
  const TimePoint start =
      std::max(polls_a.front().complete, polls_b.front().complete);
  BROADWAY_CHECK_MSG(start <= horizon,
                     "first fetch at " << start << " after the horizon");
  HeldCopy a(trace_a, polls_a, start);
  HeldCopy b(trace_b, polls_b, start);
  bool previously_violated = false;
  for (TimePoint t0 = start; t0 < horizon;) {
    const TimePoint t1 =
        std::min({a.next_completion(), b.next_completion(), horizon});
    const bool violated =
        interval_gap(a.validity(), b.validity()) > delta_mutual;
    if (violated) {
      report.out_sync_time += t1 - t0;
      if (!previously_violated) ++report.violations;
    }
    previously_violated = violated;
    t0 = t1;
    a.advance_to(t0);
    b.advance_to(t0);
  }
  return report;
}

}  // namespace broadway
