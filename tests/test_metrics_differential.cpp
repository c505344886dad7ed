// The cursor-walking fidelity evaluators against the binary-search
// evaluators they replaced, kept here verbatim as oracles: on seeded random
// traces and poll schedules the two must produce bit-identical reports.
// The schedules stress what a cursor can get wrong — coincident
// completions within and across schedules, snapshots that step back in
// time (relayed copies), snapshots exactly at update instants, polls at
// or past the horizon, and traces with no update or only one.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "trace/update_trace.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

// ---- oracles: the binary-search evaluators ------------------------------

TemporalFidelityReport oracle_temporal(const UpdateTrace& trace,
                                       const std::vector<PollInstant>& polls,
                                       Duration delta, Duration horizon) {
  TemporalFidelityReport report;
  report.horizon = horizon;
  for (std::size_t k = 0; k < polls.size(); ++k) {
    const TimePoint window_begin = polls[k].complete;
    const TimePoint window_end =
        k + 1 < polls.size() ? polls[k + 1].complete : horizon;
    if (window_begin >= window_end) {
      ++report.windows;
      continue;
    }
    ++report.windows;
    const auto first_unseen = trace.first_update_after(polls[k].snapshot);
    if (!first_unseen) continue;
    const TimePoint stale_from = *first_unseen + delta;
    const Duration span =
        std::max(0.0, window_end - std::max(stale_from, window_begin));
    if (span > 0.0) {
      ++report.violations;
      report.out_sync_time += span;
    }
  }
  return report;
}

ValidityInterval oracle_held_validity(const UpdateTrace& trace,
                                      const std::vector<PollInstant>& polls,
                                      TimePoint t) {
  auto it = std::upper_bound(
      polls.begin(), polls.end(), t,
      [](TimePoint lhs, const PollInstant& rhs) { return lhs < rhs.complete; });
  BROADWAY_CHECK_MSG(it != polls.begin(), "queried before the first fetch");
  return trace.validity_at((it - 1)->snapshot);
}

MutualTemporalReport oracle_mutual(const UpdateTrace& trace_a,
                                   const std::vector<PollInstant>& polls_a,
                                   const UpdateTrace& trace_b,
                                   const std::vector<PollInstant>& polls_b,
                                   Duration delta_mutual, Duration horizon) {
  MutualTemporalReport report;
  report.horizon = horizon;
  report.polls = polls_a.size() + polls_b.size();
  const TimePoint start =
      std::max(polls_a.front().complete, polls_b.front().complete);
  std::vector<TimePoint> boundaries;
  boundaries.push_back(start);
  for (const auto& poll : polls_a) {
    if (poll.complete > start && poll.complete < horizon) {
      boundaries.push_back(poll.complete);
    }
  }
  for (const auto& poll : polls_b) {
    if (poll.complete > start && poll.complete < horizon) {
      boundaries.push_back(poll.complete);
    }
  }
  boundaries.push_back(horizon);
  std::sort(boundaries.begin(), boundaries.end());
  boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                   boundaries.end());
  bool previously_violated = false;
  for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
    const TimePoint t0 = boundaries[i];
    const TimePoint t1 = boundaries[i + 1];
    if (t1 <= t0) continue;
    const ValidityInterval va = oracle_held_validity(trace_a, polls_a, t0);
    const ValidityInterval vb = oracle_held_validity(trace_b, polls_b, t0);
    const bool violated = interval_gap(va, vb) > delta_mutual;
    if (violated) {
      report.out_sync_time += t1 - t0;
      if (!previously_violated) ++report.violations;
    }
    previously_violated = violated;
  }
  return report;
}

// ---- random inputs -------------------------------------------------------

constexpr Duration kDuration = 100.0;

// Instants on a 0.5 s grid, so updates, snapshots and completions collide.
TimePoint grid(Rng& rng, TimePoint lo, TimePoint hi) {
  return 0.5 * static_cast<double>(rng.uniform_int(
                   static_cast<std::int64_t>(lo * 2.0),
                   static_cast<std::int64_t>(hi * 2.0)));
}

UpdateTrace random_trace(Rng& rng) {
  // A quarter of the traces have no update or just one.
  const std::int64_t shape = rng.uniform_int(0, 7);
  const std::size_t count =
      shape <= 1 ? static_cast<std::size_t>(shape)
                 : static_cast<std::size_t>(rng.uniform_int(2, 60));
  std::vector<TimePoint> updates;
  for (std::size_t i = 0; i < count; ++i) {
    updates.push_back(grid(rng, 0.0, kDuration - 0.5));
  }
  std::sort(updates.begin(), updates.end());
  updates.erase(std::unique(updates.begin(), updates.end()), updates.end());
  return UpdateTrace("t", std::move(updates), kDuration);
}

// Completions sorted, some coincident and some at or past `horizon`;
// snapshots at or before their completion, often an update instant, and
// sometimes older than the previous poll's (a relayed copy).
std::vector<PollInstant> random_polls(Rng& rng, const UpdateTrace& trace,
                                      Duration horizon) {
  const auto count = static_cast<std::size_t>(rng.uniform_int(1, 40));
  std::vector<TimePoint> completes;
  for (std::size_t i = 0; i < count; ++i) {
    completes.push_back(grid(rng, 0.0, horizon + 10.0));
  }
  if (rng.bernoulli(0.5)) completes.push_back(completes.front());
  std::sort(completes.begin(), completes.end());
  std::vector<PollInstant> polls;
  for (const TimePoint complete : completes) {
    TimePoint snapshot = complete - grid(rng, 0.0, 30.0);
    const std::vector<TimePoint>& updates = trace.updates();
    if (!updates.empty() && rng.bernoulli(0.3)) {
      snapshot = updates[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(updates.size()) - 1))];
    }
    polls.push_back(PollInstant{std::min(snapshot, complete), complete});
  }
  return polls;
}

Duration random_horizon(Rng& rng) {
  return rng.bernoulli(0.5) ? kDuration : grid(rng, 1.0, kDuration + 20.0);
}

TEST(EvaluatorDifferential, TemporalMatchesTheBinarySearchOracle) {
  Rng rng(20011);
  for (int trial = 0; trial < 4000; ++trial) {
    const UpdateTrace trace = random_trace(rng);
    const Duration horizon = random_horizon(rng);
    const std::vector<PollInstant> polls = random_polls(rng, trace, horizon);
    const Duration delta = rng.bernoulli(0.2) ? 0.5 : grid(rng, 1.0, 20.0);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    const TemporalFidelityReport want =
        oracle_temporal(trace, polls, delta, horizon);
    const TemporalFidelityReport got =
        evaluate_temporal_fidelity(trace, polls, delta, horizon);
    EXPECT_EQ(got.windows, want.windows);
    EXPECT_EQ(got.violations, want.violations);
    EXPECT_EQ(got.out_sync_time, want.out_sync_time);
    EXPECT_EQ(got.horizon, want.horizon);
  }
}

TEST(EvaluatorDifferential, MutualMatchesTheBinarySearchOracle) {
  Rng rng(9001);
  int evaluated = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const UpdateTrace trace_a = random_trace(rng);
    const UpdateTrace trace_b = random_trace(rng);
    const Duration horizon = random_horizon(rng);
    const std::vector<PollInstant> polls_a =
        random_polls(rng, trace_a, horizon);
    const std::vector<PollInstant> polls_b =
        random_polls(rng, trace_b, horizon);
    const Duration delta = rng.bernoulli(0.3) ? 0.0 : grid(rng, 0.5, 20.0);
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    std::optional<MutualTemporalReport> want;
    try {
      want = oracle_mutual(trace_a, polls_a, trace_b, polls_b, delta,
                           horizon);
    } catch (const CheckFailure&) {
      // Both objects first cached only after the horizon: no answer.
    }
    if (!want) {
      EXPECT_THROW(evaluate_mutual_temporal(trace_a, polls_a, trace_b,
                                            polls_b, delta, horizon),
                   CheckFailure);
      continue;
    }
    ++evaluated;
    const MutualTemporalReport got = evaluate_mutual_temporal(
        trace_a, polls_a, trace_b, polls_b, delta, horizon);
    EXPECT_EQ(got.polls, want->polls);
    EXPECT_EQ(got.violations, want->violations);
    EXPECT_EQ(got.out_sync_time, want->out_sync_time);
    EXPECT_EQ(got.horizon, want->horizon);
  }
  // The schedules must mostly be evaluable, or the comparison is empty.
  EXPECT_GT(evaluated, 3000);
}

}  // namespace
}  // namespace broadway
