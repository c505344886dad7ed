// Ground-truth Δt-consistency evaluation (paper §6.1.3).
//
// The trace-driven simulation knows the exact update stream, so fidelity is
// computed from what *actually* happened, independent of what the proxy
// could observe.  Both of the paper's fidelity metrics are produced:
//
//   Eq. 13:  f = 1 − violations / polls
//   Eq. 14:  f = 1 − out-of-sync time / trace duration
//
// Semantics (DESIGN.md §5): the copy fetched at snapshot instant s_k is
// visible from completion c_k until the next completion.  With u* the first
// update after s_k, the copy violates Δt-consistency at any instant
// t ≥ u* + Δ within its visibility window.
#pragma once

#include <string>
#include <vector>

#include "proxy/poll_log.h"
#include "trace/update_trace.h"
#include "util/time.h"

namespace broadway {

/// One successful poll: the server state it captured and when the copy
/// became visible at the proxy.  With zero RTT the two coincide.
struct PollInstant {
  TimePoint snapshot = 0.0;
  TimePoint complete = 0.0;
};

/// Extract the successful polls of `object` from a record vector,
/// ascending.  O(total records); prefer the PollLog overload for engine
/// logs.
std::vector<PollInstant> successful_polls(const std::vector<PollRecord>& log,
                                          ObjectId object);

/// Extract the successful polls of `uri` through the log's per-object
/// index (the uri is resolved once through the log's table) —
/// O(records-for-object) instead of a scan of every object's records.
std::vector<PollInstant> successful_polls(const PollLog& log,
                                          const std::string& uri);

/// Result of evaluating one object's poll schedule against its trace.
struct TemporalFidelityReport {
  /// Number of visibility windows examined (= number of successful polls;
  /// the final window extends to the horizon).
  std::size_t windows = 0;
  /// Windows in which the Δ bound was exceeded.
  std::size_t violations = 0;
  /// Total time the bound was exceeded.
  Duration out_sync_time = 0.0;
  /// Evaluation horizon (trace duration).
  Duration horizon = 0.0;

  /// Eq. 13 fidelity.  1.0 when no windows were evaluated.
  double fidelity_violations() const;
  /// Eq. 14 fidelity.
  double fidelity_time() const;
};

/// Evaluate Δt fidelity.  `polls` must be non-empty (the initial fetch) and
/// sorted; the object is assumed unwatched after `horizon`.
TemporalFidelityReport evaluate_temporal_fidelity(
    const UpdateTrace& trace, const std::vector<PollInstant>& polls,
    Duration delta, Duration horizon);

}  // namespace broadway
