// Deterministic fault injection for the proxy fleet.
//
// The cooperative-consistency story of the paper assumes the proxy-proxy
// channel and the proxies themselves are perfect; this layer removes that
// assumption without giving up reproducibility.  A FaultSchedule describes
//   * proxy crash/recovery windows — a proxy is "dark" on [crash_at,
//     recover_at): its timers stop, inbound relays are dropped on the
//     floor, and client reads are served stale-or-miss from whatever the
//     cache held at crash time (paper §3.1: on recovery every TTR resets
//     as if the proxy had just started);
//   * per-relay loss and latency jitter on the proxy-proxy channel; and
//   * relay retry with capped exponential backoff.
//
// Every random decision is a counter-based hash draw (util/rng.h) keyed on
// data that is identical in every execution of the same configuration: the
// object id, the *global* ids of the sending and receiving proxies, and a
// per-(sender, object) fan-out round counter.  No mutable generator state
// is involved, so a faulty run produces byte-identical poll logs, client
// metrics, and fault ledgers whether it executes on one simulator or
// sharded across worker threads — the same trick PR 8 used for the poll
// loss draws.  Crash and recovery are pure functions of simulated time,
// which makes the "is the destination dark?" test at relay delivery immune
// to event-ordering differences between shard layouts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// One scheduled outage: the proxy is dark on [crash_at, recover_at).
struct CrashWindow {
  TimePoint crash_at = 0.0;
  TimePoint recover_at = 0.0;
};

/// The outage schedule of one proxy, keyed by *global* proxy id so the
/// schedule means the same thing inside a sharded slice as in the
/// reference single-simulator run.
struct ProxyCrashes {
  std::size_t proxy = 0;
  std::vector<CrashWindow> windows;
};

/// Immutable description of the faults to inject into a fleet run.  A
/// default-constructed schedule injects nothing and costs nothing on the
/// relay path.
struct FaultSchedule {
  /// Outage windows per proxy; at most one entry per proxy, windows
  /// strictly ordered and non-overlapping (see validate()).
  std::vector<ProxyCrashes> crashes;

  /// Probability that one relay transmission attempt is lost in the
  /// network.  Applies per attempt, so a retried relay re-draws.
  double relay_loss = 0.0;

  /// Each successful relay attempt adds a uniform [0, relay_jitter_max)
  /// delay on top of the fleet's base relay latency.
  Duration relay_jitter_max = 0.0;

  /// Retry attempt k (0-based) is re-sent backoff(k) after the loss, with
  /// backoff(k) = min(retry_backoff_cap, retry_backoff_base * 2^k).
  Duration retry_backoff_base = 1.0;
  Duration retry_backoff_cap = 60.0;

  /// Maximum number of retries per relay; 0 means lost relays are simply
  /// dropped.  With the limit at L an individual relay is transmitted at
  /// most L + 1 times.
  std::size_t relay_retry_limit = 0;

  /// Seed for the loss and jitter hash draws.
  std::uint64_t seed = 0x0fa1751dULL;

  /// True when the schedule injects anything at all (the fleet keeps the
  /// zero-copy fault-free relay path when this is false).
  bool any() const;

  /// True when at least one proxy has a crash window.
  bool has_crashes() const;

  /// Aborts on malformed schedules: overlapping or unordered windows,
  /// non-positive window start, loss outside [0, 1), negative jitter, a
  /// non-positive backoff base, a cap below the base, or (when
  /// `proxy_limit` is finite) a crash entry for a proxy id >= the limit.
  /// Pass SIZE_MAX as the limit when only a slice of the fleet is visible.
  void validate(std::size_t proxy_limit) const;

  /// The crash windows of `proxy`, or nullptr when it never crashes.
  const std::vector<CrashWindow>* windows_for(std::size_t proxy) const;

  /// True when `proxy` is dark at time `t` (t in [crash_at, recover_at)).
  /// Pure in (proxy, t): safe to evaluate from any shard at any point of
  /// the event interleave.
  bool dark(std::size_t proxy, TimePoint t) const;

  /// Earliest crash or recovery boundary of `proxy` strictly after `t`;
  /// kTimeInfinity when none remain.  The sharded driver folds this into
  /// its window send bound: a dark proxy's timers are stopped, so
  /// without this bound the window edge would jump straight past the
  /// recovery and the re-armed polls behind it.
  TimePoint next_transition_after(std::size_t proxy, TimePoint t) const;

  /// Total scheduled dark time across all proxies, clamped to
  /// [0, horizon] per window — the "dark time" reporting row.
  Duration total_dark_time(TimePoint horizon) const;

  /// Loss draw for one transmission attempt of a relay of `object` from
  /// global proxy `src` to global proxy `dst`.  `counter` must be unique
  /// per attempt: use attempt_counter(round, attempt).
  bool relay_lost(ObjectId object, std::size_t src, std::size_t dst,
                  std::uint64_t counter) const;

  /// Latency jitter in [0, relay_jitter_max) for a successful attempt,
  /// keyed like relay_lost but on an independent hash stream.  Never
  /// negative, so jittered deliveries still respect the conservative
  /// window safety argument (delivery >= send + relay_latency).
  Duration relay_jitter(ObjectId object, std::size_t src, std::size_t dst,
                        std::uint64_t counter) const;

  /// Backoff before retry attempt `attempt` (0-based).
  Duration retry_backoff(std::size_t attempt) const;

  /// Unique draw counter for transmission attempt `attempt` of fan-out
  /// round `round`.  Rounds are counted per (sender, object) by the
  /// fleet, so the (stream, counter) pair never repeats.
  std::uint64_t attempt_counter(std::uint64_t round,
                                std::size_t attempt) const;
};

}  // namespace broadway
