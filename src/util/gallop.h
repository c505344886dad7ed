// Galloping search over a sorted sequence, resumed from a hint.
//
// A cursor that walks a sorted sequence — a reader's version in an update
// trace, an evaluator's position in a poll schedule — mostly moves a short
// way from where it last stopped.  Probing outward from that position at
// distances 1, 2, 4, ... and binary-searching only the last gap finds an
// answer d positions away in O(log d) comparisons: O(1) for the usual
// small step, never worse than O(log n) for a jump.  The probes go either
// way, so any hint gives the same answer as a search over the whole
// sequence; a good one only makes it cheaper.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>

#include "util/time.h"

namespace broadway {

/// Partition point of `xs` under `before` (true on a prefix of `xs`, false
/// on the rest), searched from `hint`: equals std::partition_point over
/// all of `xs` for every hint.  A hint past the end counts as the end.
template <typename Before>
std::size_t gallop_partition(std::span<const TimePoint> xs, std::size_t hint,
                             Before before) {
  const std::size_t n = xs.size();
  hint = std::min(hint, n);
  // The answer lies in [lo, hi]; the probes narrow it to one gap.
  std::size_t lo = 0;
  std::size_t hi = n;
  if (hint < n && before(xs[hint])) {
    lo = hint + 1;
    for (std::size_t step = 1; hint + step < n; step *= 2) {
      if (!before(xs[hint + step])) {
        hi = hint + step;
        break;
      }
      lo = hint + step + 1;
    }
  } else {
    hi = hint;
    for (std::size_t step = 1; step <= hint; step *= 2) {
      if (before(xs[hint - step])) {
        lo = hint - step + 1;
        break;
      }
      hi = hint - step;
    }
  }
  const auto first = xs.begin();
  return static_cast<std::size_t>(
      std::partition_point(first + static_cast<std::ptrdiff_t>(lo),
                           first + static_cast<std::ptrdiff_t>(hi), before) -
      first);
}

/// std::upper_bound(xs, t) as an index, galloping from `hint`.
inline std::size_t upper_bound_from(std::span<const TimePoint> xs,
                                    std::size_t hint, TimePoint t) {
  return gallop_partition(xs, hint, [t](TimePoint x) { return x <= t; });
}

/// std::lower_bound(xs, t) as an index, galloping from `hint`.
inline std::size_t lower_bound_from(std::span<const TimePoint> xs,
                                    std::size_t hint, TimePoint t) {
  return gallop_partition(xs, hint, [t](TimePoint x) { return x < t; });
}

}  // namespace broadway
