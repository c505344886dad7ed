// Ground-truth Mt-consistency evaluation (paper Eq. 4).
//
// The copy of `a` held at time t was current at the server over a validity
// interval; likewise `b`.  The pair is mutually consistent at t iff those
// validity intervals come within δ of each other (they overlap when δ = 0
// suffices: "the objects should have simultaneously existed on the
// server").  Held versions change only at poll completions, so the pair
// state is piecewise constant and evaluated by one merge walk over both
// poll schedules.
#pragma once

#include <vector>

#include "metrics/fidelity.h"
#include "trace/update_trace.h"
#include "util/time.h"

namespace broadway {

/// Result of evaluating a pair of poll schedules against a pair of traces.
struct MutualTemporalReport {
  /// Total successful polls across both objects (Eq. 13 denominator).
  std::size_t polls = 0;
  /// Entries into a mutually-inconsistent state.
  std::size_t violations = 0;
  /// Total time the pair spent outside δ.
  Duration out_sync_time = 0.0;
  Duration horizon = 0.0;

  double fidelity_violations() const;
  double fidelity_time() const;
};

/// Evaluate Mt fidelity of two objects.  Both poll vectors must be
/// non-empty and sorted by completion (checked).  Evaluation starts once
/// both objects are cached (max of the first completions, which must not
/// lie past `horizon`) and runs to `horizon`.
MutualTemporalReport evaluate_mutual_temporal(
    const UpdateTrace& trace_a, const std::vector<PollInstant>& polls_a,
    const UpdateTrace& trace_b, const std::vector<PollInstant>& polls_b,
    Duration delta_mutual, Duration horizon);

}  // namespace broadway
