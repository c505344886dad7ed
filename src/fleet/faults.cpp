#include "fleet/faults.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/rng.h"

namespace broadway {

namespace {

// Distinct hash streams for the loss and jitter draws: the same (object,
// src, dst, counter) key must yield independent decisions for "was it
// lost" and "how late is it".
constexpr std::uint64_t kLossSalt = 0x72656c61796c6f73ULL;    // "relaylos"
constexpr std::uint64_t kJitterSalt = 0x72656c61796a6974ULL;  // "relayjit"

// Packs the relay endpoints and object into one 64-bit hash stream.  The
// golden-ratio multiplier spreads small ids across the word; the salt
// separates the two draw families.  Collisions between distinct triples
// would only correlate two relays' draws, never break determinism.
std::uint64_t relay_stream(std::uint64_t salt, ObjectId object,
                           std::size_t src, std::size_t dst) {
  std::uint64_t stream = salt;
  stream = stream * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(object);
  stream = stream * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(src);
  stream = stream * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(dst);
  return stream;
}

}  // namespace

bool FaultSchedule::any() const {
  return has_crashes() || relay_loss > 0.0 || relay_jitter_max > 0.0;
}

bool FaultSchedule::has_crashes() const {
  for (const ProxyCrashes& entry : crashes) {
    if (!entry.windows.empty()) return true;
  }
  return false;
}

void FaultSchedule::validate(std::size_t proxy_limit) const {
  BROADWAY_CHECK_MSG(relay_loss >= 0.0 && relay_loss < 1.0,
                     "relay_loss=" << relay_loss);
  // Every timing must be finite: an infinite one would make a delivery
  // or retry instant unschedulable (a sharded run would instead park its
  // messages at t = inf and finish silently).
  BROADWAY_CHECK_MSG(
      std::isfinite(relay_jitter_max) && relay_jitter_max >= 0.0,
      "relay_jitter_max=" << relay_jitter_max << " must be finite and >= 0");
  BROADWAY_CHECK_MSG(
      std::isfinite(retry_backoff_base) && retry_backoff_base > 0.0,
      "retry_backoff_base=" << retry_backoff_base
                            << " must be finite and > 0");
  BROADWAY_CHECK_MSG(
      std::isfinite(retry_backoff_cap) &&
          retry_backoff_cap >= retry_backoff_base,
      "retry_backoff_cap=" << retry_backoff_cap
                           << " must be finite and >= retry_backoff_base="
                           << retry_backoff_base);
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    const ProxyCrashes& entry = crashes[i];
    BROADWAY_CHECK_MSG(entry.proxy < proxy_limit,
                       "crash schedule for unknown proxy " << entry.proxy);
    for (std::size_t j = i + 1; j < crashes.size(); ++j) {
      BROADWAY_CHECK_MSG(crashes[j].proxy != entry.proxy,
                         "duplicate crash schedule for proxy " << entry.proxy);
    }
    TimePoint previous_end = 0.0;
    for (const CrashWindow& window : entry.windows) {
      // crash_at == 0 would race the fleet's own start(); outages begin
      // strictly inside the run.
      BROADWAY_CHECK_MSG(window.crash_at > 0.0,
                         "crash_at=" << window.crash_at << " must be > 0");
      BROADWAY_CHECK_MSG(window.recover_at > window.crash_at,
                         "empty crash window [" << window.crash_at << ", "
                                                << window.recover_at << ")");
      // A proxy that never recovers is a window ending past the horizon.
      BROADWAY_CHECK_MSG(std::isfinite(window.recover_at),
                         "recover_at=" << window.recover_at
                                       << " must be finite");
      BROADWAY_CHECK_MSG(window.crash_at >= previous_end,
                         "overlapping or unordered crash windows at t="
                             << window.crash_at);
      previous_end = window.recover_at;
    }
  }
}

const std::vector<CrashWindow>* FaultSchedule::windows_for(
    std::size_t proxy) const {
  for (const ProxyCrashes& entry : crashes) {
    if (entry.proxy == proxy && !entry.windows.empty()) return &entry.windows;
  }
  return nullptr;
}

bool FaultSchedule::dark(std::size_t proxy, TimePoint t) const {
  const std::vector<CrashWindow>* windows = windows_for(proxy);
  if (windows == nullptr) return false;
  for (const CrashWindow& window : *windows) {
    if (t < window.crash_at) return false;  // windows are ordered
    if (t < window.recover_at) return true;
  }
  return false;
}

TimePoint FaultSchedule::next_transition_after(std::size_t proxy,
                                               TimePoint t) const {
  const std::vector<CrashWindow>* windows = windows_for(proxy);
  if (windows == nullptr) return kTimeInfinity;
  for (const CrashWindow& window : *windows) {
    if (window.crash_at > t) return window.crash_at;
    if (window.recover_at > t) return window.recover_at;
  }
  return kTimeInfinity;
}

Duration FaultSchedule::total_dark_time(TimePoint horizon) const {
  Duration total = 0.0;
  for (const ProxyCrashes& entry : crashes) {
    for (const CrashWindow& window : entry.windows) {
      const TimePoint from = std::min(window.crash_at, horizon);
      const TimePoint to = std::min(window.recover_at, horizon);
      total += to - from;
    }
  }
  return total;
}

bool FaultSchedule::relay_lost(ObjectId object, std::size_t src,
                               std::size_t dst,
                               std::uint64_t counter) const {
  if (relay_loss <= 0.0) return false;
  return hash_bernoulli(seed, relay_stream(kLossSalt, object, src, dst),
                        counter, relay_loss);
}

Duration FaultSchedule::relay_jitter(ObjectId object, std::size_t src,
                                     std::size_t dst,
                                     std::uint64_t counter) const {
  if (relay_jitter_max <= 0.0) return 0.0;
  return relay_jitter_max *
         hash_u01(seed, relay_stream(kJitterSalt, object, src, dst), counter);
}

Duration FaultSchedule::retry_backoff(std::size_t attempt) const {
  Duration backoff = retry_backoff_base;
  for (std::size_t i = 0; i < attempt && backoff < retry_backoff_cap; ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, retry_backoff_cap);
}

std::uint64_t FaultSchedule::attempt_counter(std::uint64_t round,
                                             std::size_t attempt) const {
  return round * static_cast<std::uint64_t>(relay_retry_limit + 1) +
         static_cast<std::uint64_t>(attempt);
}

}  // namespace broadway
