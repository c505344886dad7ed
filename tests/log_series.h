// Per-object time series of a PollLog, read through its index.
//
// The library's evaluation reads a log's successful records directly
// (metrics/fidelity.h); tests that pin exact poll instants read them as
// plain series here, built on PollLog::successful_records and records().
#pragma once

#include <cstdint>
#include <vector>

#include "proxy/poll_log.h"
#include "util/time.h"

namespace broadway {

/// The `field` of each successful record of `object`, ascending, including
/// the initial fetch.  Empty for an object the log has never seen.
inline std::vector<TimePoint> record_times(const PollLog& log,
                                           ObjectId object,
                                           TimePoint PollRecord::*field) {
  const std::vector<std::uint32_t>& indices = log.successful_records(object);
  std::vector<TimePoint> out;
  out.reserve(indices.size());
  for (const std::uint32_t i : indices) out.push_back(log[i].*field);
  return out;
}

/// Completion instants of the successful polls of `object`.
inline std::vector<TimePoint> completion_times(const PollLog& log,
                                               ObjectId object) {
  return record_times(log, object, &PollRecord::complete_time);
}

/// Snapshot instants of the successful polls of `object` (same indexing
/// as completion_times).
inline std::vector<TimePoint> snapshot_times(const PollLog& log,
                                             ObjectId object) {
  return record_times(log, object, &PollRecord::snapshot_time);
}

}  // namespace broadway
