#include "metrics/fidelity.h"

#include <algorithm>

#include "util/check.h"
#include "util/gallop.h"

namespace broadway {

std::vector<PollInstant> successful_polls(const std::vector<PollRecord>& log,
                                          const std::string& uri) {
  std::vector<PollInstant> out;
  for (const PollRecord& record : log) {
    if (record.failed || record.uri != uri) continue;
    out.push_back(PollInstant{record.snapshot_time, record.complete_time});
  }
  return out;
}

std::vector<PollInstant> successful_polls(const PollLog& log,
                                          const std::string& uri) {
  const std::vector<std::size_t>& indices =
      log.successful_records(log.uri_table().find(uri));
  std::vector<PollInstant> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) {
    const PollRecord& record = log.records()[i];
    out.push_back(PollInstant{record.snapshot_time, record.complete_time});
  }
  return out;
}

double TemporalFidelityReport::fidelity_violations() const {
  if (windows == 0) return 1.0;
  return 1.0 - static_cast<double>(violations) /
                   static_cast<double>(windows);
}

double TemporalFidelityReport::fidelity_time() const {
  if (horizon <= 0.0) return 1.0;
  return 1.0 - out_sync_time / horizon;
}

TemporalFidelityReport evaluate_temporal_fidelity(
    const UpdateTrace& trace, const std::vector<PollInstant>& polls,
    Duration delta, Duration horizon) {
  BROADWAY_CHECK_MSG(!polls.empty(), "no polls to evaluate");
  BROADWAY_CHECK_MSG(delta > 0.0, "delta " << delta);
  BROADWAY_CHECK_MSG(horizon > 0.0, "horizon " << horizon);

  TemporalFidelityReport report;
  report.horizon = horizon;

  const std::vector<TimePoint>& updates = trace.updates();
  // Cursor: the first update after the last evaluated snapshot.
  std::size_t unseen = 0;
  for (std::size_t k = 0; k < polls.size(); ++k) {
    BROADWAY_CHECK_MSG(
        k == 0 || polls[k].complete >= polls[k - 1].complete,
        "polls out of order");
    const TimePoint window_begin = polls[k].complete;
    const TimePoint window_end =
        k + 1 < polls.size() ? polls[k + 1].complete : horizon;
    if (window_begin >= window_end) {
      // Triggered polls can coincide with scheduled ones; an empty window
      // still counts as a poll that could not violate.
      ++report.windows;
      continue;
    }
    ++report.windows;

    // First update the fetched copy does not reflect.  Snapshots mostly
    // rise with completion, but a relayed copy can be older than the one
    // before it, so the cursor gallops either way.
    unseen = upper_bound_from(updates, unseen, polls[k].snapshot);
    if (unseen == updates.size()) continue;  // newest version forever

    // The copy becomes out of sync (beyond tolerance) at u* + delta.
    const TimePoint stale_from = updates[unseen] + delta;
    const Duration span =
        std::max(0.0, window_end - std::max(stale_from, window_begin));
    if (span > 0.0) {
      ++report.violations;
      report.out_sync_time += span;
    }
  }
  return report;
}

}  // namespace broadway
