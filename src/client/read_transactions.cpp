#include "client/read_transactions.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "util/check.h"
#include "util/id_slots.h"
#include "util/rng.h"

namespace broadway {

namespace {

/// Serve history of one (proxy, object) pair: (visible-at, snapshot)
/// entries sorted by visibility, with snapshots running-max'd so a lookup
/// never reads an older snapshot than one already visible (in-log order
/// is not visibility-sorted: an own poll's record completes rtt after its
/// append, while a relay delivered in between is appended later but
/// visible earlier).
struct ServeSeries {
  std::vector<std::pair<TimePoint, TimePoint>> entries;

  /// Snapshot of the copy served at `t`; nullopt before the first fetch
  /// became visible (a client read at that instant is a miss).
  std::optional<TimePoint> served_at(TimePoint t) const {
    auto it = std::upper_bound(
        entries.begin(), entries.end(), t,
        [](TimePoint value, const std::pair<TimePoint, TimePoint>& entry) {
          return value < entry.first;
        });
    if (it == entries.begin()) return std::nullopt;
    return std::prev(it)->second;
  }
};

}  // namespace

TransactionStats evaluate_read_transactions(
    const std::vector<const PollLog*>& logs,
    const ReadTransactionConfig& config, Duration horizon) {
  TransactionStats stats;
  if (config.rate <= 0.0) return stats;
  BROADWAY_CHECK_MSG(config.objects >= 1,
                     "transactions need >= 1 object, got " << config.objects);
  BROADWAY_CHECK_MSG(config.delta >= 0.0, "delta " << config.delta);

  // Reconstruct each (proxy, object) serve history from the successful
  // records.  The eligible-pair list is deterministic: proxies in the
  // caller's (ascending global id) order, objects in first-record order
  // within each proxy.
  std::vector<ServeSeries> series;
  for (const PollLog* log : logs) {
    BROADWAY_CHECK(log != nullptr);
    // Windowed retention silently drops the oldest records, and a serve
    // history reconstructed from a truncated log mis-scores every
    // transaction that lands before the window: reads look incomplete (or
    // are served a too-new snapshot) even though the proxy held a copy.
    // Refuse truncated input instead of returning plausible-but-wrong
    // counts — run with poll-log retention 0 when transactions are on.
    BROADWAY_CHECK_MSG(log->dropped_records() == 0,
                       "poll log dropped " << log->dropped_records()
                                           << " records under retention; "
                                              "transactions need full logs");
    IdSlots<std::size_t> slot;  // object id -> series index
    for (const PollRecord& record : log->records()) {
      if (record.failed) continue;
      auto [index, inserted] = slot.try_emplace(record.object);
      if (inserted) {
        index = series.size();
        series.emplace_back();
      }
      series[index].entries.emplace_back(record.complete_time,
                                         record.snapshot_time);
    }
  }
  for (ServeSeries& s : series) {
    std::stable_sort(s.entries.begin(), s.entries.end(),
                     [](const std::pair<TimePoint, TimePoint>& a,
                        const std::pair<TimePoint, TimePoint>& b) {
                       return a.first < b.first;
                     });
    TimePoint newest = s.entries.front().second;
    for (auto& [visible, snapshot] : s.entries) {
      newest = std::max(newest, snapshot);
      snapshot = newest;
    }
  }
  if (series.empty()) return stats;

  Rng rng(config.seed);
  std::vector<std::size_t> picks;
  const std::size_t k = std::min(config.objects, series.size());
  TimePoint t = 0.0;
  for (t += rng.exponential(config.rate); t < horizon;
       t += rng.exponential(config.rate)) {
    ++stats.transactions;
    // k distinct pairs, uniform without replacement (k is small: the
    // linear duplicate check beats any set machinery).
    picks.clear();
    while (picks.size() < k) {
      const std::size_t pick = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(series.size()) - 1));
      if (std::find(picks.begin(), picks.end(), pick) == picks.end()) {
        picks.push_back(pick);
      }
    }
    TimePoint oldest = kTimeInfinity;
    TimePoint newest = -kTimeInfinity;
    bool complete = true;
    for (std::size_t pick : picks) {
      const std::optional<TimePoint> snapshot = series[pick].served_at(t);
      if (!snapshot) {
        complete = false;
        break;
      }
      oldest = std::min(oldest, *snapshot);
      newest = std::max(newest, *snapshot);
    }
    if (!complete) {
      ++stats.incomplete;
      continue;
    }
    ++stats.complete;
    const Duration spread = newest - oldest;
    stats.spread.add(spread);
    if (spread > config.delta) ++stats.violations;
  }
  return stats;
}

}  // namespace broadway
