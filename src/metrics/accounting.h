// Poll-log accounting: counts by cause and per-bucket time series.
//
// Figures 5–6 of the paper separate the polls a mutual-consistency
// mechanism adds from the baseline's, and Fig. 6(b) plots the *extra*
// (triggered) polls over time; these helpers compute both from the
// engine's poll log.
#pragma once

#include <optional>
#include <vector>

#include "consistency/types.h"
#include "proxy/poll_log.h"
#include "util/time.h"

namespace broadway {

/// Successful-poll counts broken down by cause, plus failures.
struct PollCauseCounts {
  std::size_t initial = 0;
  std::size_t scheduled = 0;
  std::size_t triggered = 0;
  std::size_t retry = 0;
  std::size_t relay = 0;
  std::size_t client_miss = 0;
  std::size_t failed = 0;

  /// The paper's "number of polls": everything except the initial fetches
  /// and failures.  Relay refreshes are excluded too — they refresh the
  /// cached copy over the proxy–proxy channel, not via an origin message.
  /// Demand fills (kClientMiss) *are* origin polls, so they count here;
  /// policy_polls() splits them back out.
  std::size_t total_refreshes() const {
    return scheduled + triggered + retry + client_miss;
  }

  /// Origin polls the refresh policies initiated (TTR expiry, coordinator
  /// triggers, loss retries) — total_refreshes() without the
  /// demand-driven fills.  The fleet invariant is
  ///   origin_polls == policy_polls + demand fills.
  std::size_t policy_polls() const { return scheduled + triggered + retry; }

  /// Fold another log's counts into this one (plain sums).
  PollCauseCounts& merge(const PollCauseCounts& other) {
    initial += other.initial;
    scheduled += other.scheduled;
    triggered += other.triggered;
    retry += other.retry;
    relay += other.relay;
    client_miss += other.client_miss;
    failed += other.failed;
    return *this;
  }
};

PollCauseCounts count_by_cause(const std::vector<PollRecord>& log);
PollCauseCounts count_by_cause(const PollLog& log);

/// Origin load seen across a fleet of proxies sharing one origin: every
/// message the origin answered (initial fetches, scheduled/triggered/retry
/// polls) aggregated over all proxies' logs, plus the relay traffic that
/// replaced origin polls on the proxy–proxy channel.
struct FleetOriginLoad {
  /// Origin messages: successful polls including initial fetches.
  std::size_t origin_messages = 0;
  /// Origin messages excluding the initial fetches (the paper's "number
  /// of polls" summed over the fleet).
  std::size_t origin_polls = 0;
  /// Refreshes served by sibling relays instead of origin polls.
  std::size_t relay_refreshes = 0;
  /// Demand fills: origin polls triggered by client cache misses
  /// (PollCause::kClientMiss).  A subset of origin_polls; the pinned
  /// invariant is origin_polls == policy polls + demand_fills.
  std::size_t demand_fills = 0;
  /// Failed (lost) poll attempts across the fleet.
  std::size_t failed = 0;

  /// Origin polls the refresh policies initiated (everything but the
  /// demand fills).
  std::size_t policy_polls() const { return origin_polls - demand_fills; }

  /// Mean origin polls per second over the horizon (0 for horizon <= 0).
  double polls_per_second(Duration horizon) const;

  /// Fold another fleet's load into this one (shard-local accounting is
  /// merged at sweep end; all counters are plain sums).
  FleetOriginLoad& merge(const FleetOriginLoad& other) {
    origin_messages += other.origin_messages;
    origin_polls += other.origin_polls;
    relay_refreshes += other.relay_refreshes;
    demand_fills += other.demand_fills;
    failed += other.failed;
    return *this;
  }
};

/// The proxy–proxy relay channel's counters.  Every transmission attempt
/// (one per destination per attempt) is counted sent and ends up in
/// exactly one of delivered, in_flight and lost, so balanced() holds at
/// every instant.  Without faults and with zero latency every send is
/// delivered in the same call.  Shard-local ledgers fold with merge().
struct RelayLedger {
  /// Transmission attempts, retransmissions included.
  std::size_t sent = 0;
  /// Attempts that reached the receiving proxy.
  std::size_t delivered = 0;
  /// Deliveries the receiving proxy accepted (refresh or validation).
  std::size_t applied = 0;
  /// Attempts scheduled but not yet delivered.  Never silently dropped:
  /// extending the run delivers them.  A pending retry *wait* is not in
  /// flight — the lost attempt is already counted, and the retry counts
  /// as a fresh attempt once sent.
  std::size_t in_flight = 0;
  /// Attempts eaten by injected loss (fleet/faults.h).  Each lost attempt
  /// below the retry limit schedules a backoff retry; one at the limit
  /// abandons the relay.
  std::size_t lost = 0;
  /// Retransmission attempts (attempt index > 0).  Equals `lost` when the
  /// retry limit is never reached.
  std::size_t retried = 0;
  /// Deliveries to a proxy that was dark (crashed) at the delivery
  /// instant: counted delivered, never applied.
  std::size_t dropped_dark = 0;

  /// The ledger invariant sent == delivered + in_flight + lost.
  bool balanced() const { return sent == delivered + in_flight + lost; }

  /// Fold another ledger into this one (all counters are plain sums).
  RelayLedger& merge(const RelayLedger& other) {
    sent += other.sent;
    delivered += other.delivered;
    applied += other.applied;
    in_flight += other.in_flight;
    lost += other.lost;
    retried += other.retried;
    dropped_dark += other.dropped_dark;
    return *this;
  }

  bool operator==(const RelayLedger&) const = default;
};

/// Aggregate the origin load over any number of proxy poll logs.
FleetOriginLoad fleet_origin_load(const std::vector<const PollLog*>& logs);

/// One proxy's poll records tagged with its (global) proxy id, as input
/// to merge_poll_records.  `records` must outlive the call.
struct ProxyPollRecords {
  std::size_t proxy = 0;
  const std::vector<PollRecord>* records = nullptr;
};

/// Deterministic fleet-wide record stream: the concatenation of every
/// proxy's records ordered by (snapshot_time, proxy, in-log position).
/// In-log order is *not* snapshot-sorted (a relay record carries the
/// sender's earlier poll snapshot but is logged at delivery), so a
/// stable sort over the proxy-ordered concatenation is the defined
/// semantics — the same bytes whether the logs came from one simulator
/// or from per-shard slices, at any thread count.
std::vector<PollRecord> merge_poll_records(
    std::vector<ProxyPollRecords> logs);

/// The ordering step of merge_poll_records, for callers that build the
/// proxy-ascending concatenation themselves (each proxy's records
/// contiguous and in in-log order, proxies ascending): a stable sort by
/// snapshot time, in place.
void order_merged_poll_records(std::vector<PollRecord>& concatenation);

/// Successful polls per time bucket over [0, horizon), optionally filtered
/// by cause and/or uri (empty = all).  The Fig. 6(b) series is
/// polls_per_bucket(log, 2h, horizon, PollCause::kTriggered).
std::vector<std::size_t> polls_per_bucket(
    const std::vector<PollRecord>& log, Duration bucket, Duration horizon,
    std::optional<PollCause> cause = std::nullopt,
    const std::string& uri = "");

}  // namespace broadway
