#include "metrics/accounting.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace broadway {

PollCauseCounts count_by_cause(const std::vector<PollRecord>& log) {
  PollCauseCounts counts;
  for (const PollRecord& record : log) {
    if (record.failed) {
      ++counts.failed;
      continue;
    }
    switch (record.cause) {
      case PollCause::kInitial:
        ++counts.initial;
        break;
      case PollCause::kScheduled:
        ++counts.scheduled;
        break;
      case PollCause::kTriggered:
        ++counts.triggered;
        break;
      case PollCause::kRetry:
        ++counts.retry;
        break;
      case PollCause::kRelay:
        ++counts.relay;
        break;
      case PollCause::kClientMiss:
        ++counts.client_miss;
        break;
    }
  }
  return counts;
}

PollCauseCounts count_by_cause(const PollLog& log) {
  return count_by_cause(log.records());
}

double FleetOriginLoad::polls_per_second(Duration horizon) const {
  if (horizon <= 0.0) return 0.0;
  return static_cast<double>(origin_polls) / horizon;
}

FleetOriginLoad fleet_origin_load(const std::vector<const PollLog*>& logs) {
  FleetOriginLoad load;
  for (const PollLog* log : logs) {
    BROADWAY_CHECK(log != nullptr);
    // The logs' running counters: O(1) per log, and exact even when a
    // retention window has evicted old records.
    load.origin_messages += log->initial_polls() + log->polls_performed();
    load.origin_polls += log->polls_performed();
    load.relay_refreshes += log->relay_refreshes();
    load.demand_fills += log->demand_fills();
    load.failed += log->failed_polls();
  }
  return load;
}

std::vector<PollRecord> merge_poll_records(
    std::vector<ProxyPollRecords> logs) {
  // Proxy-ascending concatenation + stable sort by snapshot time gives
  // the (snapshot_time, proxy, in-log position) order independent of the
  // order the caller listed the logs in.
  std::sort(logs.begin(), logs.end(),
            [](const ProxyPollRecords& a, const ProxyPollRecords& b) {
              return a.proxy < b.proxy;
            });
  std::size_t total = 0;
  for (const ProxyPollRecords& log : logs) {
    BROADWAY_CHECK(log.records != nullptr);
    total += log.records->size();
  }
  std::vector<PollRecord> merged;
  merged.reserve(total);
  for (const ProxyPollRecords& log : logs) {
    merged.insert(merged.end(), log.records->begin(), log.records->end());
  }
  order_merged_poll_records(merged);
  return merged;
}

void order_merged_poll_records(std::vector<PollRecord>& concatenation) {
  std::stable_sort(concatenation.begin(), concatenation.end(),
                   [](const PollRecord& a, const PollRecord& b) {
                     return a.snapshot_time < b.snapshot_time;
                   });
}

std::vector<std::size_t> polls_per_bucket(const std::vector<PollRecord>& log,
                                          Duration bucket, Duration horizon,
                                          std::optional<PollCause> cause,
                                          const std::string& uri) {
  BROADWAY_CHECK_MSG(bucket > 0.0 && horizon > 0.0,
                     "bucket " << bucket << " horizon " << horizon);
  const std::size_t buckets =
      static_cast<std::size_t>(std::ceil(horizon / bucket));
  std::vector<std::size_t> counts(buckets, 0);
  for (const PollRecord& record : log) {
    if (record.failed) continue;
    if (!uri.empty() && record.uri != uri) continue;
    if (cause && record.cause != *cause) continue;
    if (record.complete_time >= horizon) continue;
    ++counts[std::min(buckets - 1, static_cast<std::size_t>(
                                       record.complete_time / bucket))];
  }
  return counts;
}

}  // namespace broadway
