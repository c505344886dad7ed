// Client-side metrics: what the users of the proxies actually observed.
//
// The paper's evaluation is proxy-centric (poll counts, fidelity of the
// cached copy over time); this module measures the same system from the
// *client's* seat.  A client read is served whatever copy the proxy holds
// at that instant, so the interesting quantities are per-request: was it a
// hit, which server-state snapshot was served, how old that snapshot was
// (client-observed staleness — distinct from proxy-side fidelity, which
// integrates over time regardless of whether anyone looked), and whether
// the copy was behind the origin's ground truth.
//
// ClientMetrics is mergeable: the sharded fleet accumulates one instance
// per proxy and folds them in ascending global proxy id, so the merged
// result — including the floating-point OnlineStats — is byte-identical
// to the single-simulator reference at any thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "origin/object.h"
#include "util/stats.h"
#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// Popularity weight for one interned object.  The id-keyed unit every
/// client-facing popularity surface is built from (PR 3/5 pattern: dense
/// ids on the hot path, string overloads as translating wrappers).
struct ObjectWeight {
  ObjectId object = kInvalidObjectId;
  double weight = 1.0;
};

/// Aggregate view of what clients experienced at one proxy (or, after
/// merge(), across a fleet).
struct ClientMetrics {
  std::uint64_t requests = 0;
  std::uint64_t hits = 0;    ///< served from cache
  std::uint64_t misses = 0;  ///< object not cached at request time
  std::uint64_t fresh = 0;   ///< served copy matched the origin version
  std::uint64_t stale = 0;   ///< served copy lagged the origin
  /// Misses the proxy demand-filled from the origin before answering
  /// (PollingEngine demand_fill on).  A filled read still counts as a
  /// miss — the cache did not have the copy when the client asked — so
  /// hits + misses == requests always holds; fills show up as the
  /// *subsequent* hits they enable.
  std::uint64_t demand_fills = 0;
  /// Age of the served copy: request time minus the snapshot instant the
  /// copy reflects, over all hits.  A relay-delivered copy is aged from
  /// the *relayed* snapshot (the sender's poll fire time), never from its
  /// delivery instant.
  OnlineStats age;
  /// Lag (s) behind the first origin update the served copy missed, over
  /// stale hits only.
  OnlineStats staleness;
  /// Client-observed fill latency: how long the demand fetch took (origin
  /// round-trip plus any lost-poll retries resolved synchronously), over
  /// demand-filled misses only.
  OnlineStats fill_latency;
  /// Degradation attribution (fault injection, fleet/faults.h): requests
  /// served while the proxy was dark (crashed).  dark_reads splits into
  /// hits off the surviving disk cache — dark_stale of them already
  /// lagging the origin — and dark_misses, which could not demand-fill
  /// (MissReason::kProxyDark).  All zero without crash windows.
  std::uint64_t dark_reads = 0;
  std::uint64_t dark_stale = 0;
  std::uint64_t dark_misses = 0;

  double hit_rate() const {
    return requests == 0 ? 0.0 : static_cast<double>(hits) /
                                     static_cast<double>(requests);
  }
  double stale_rate() const {
    return hits == 0 ? 0.0 : static_cast<double>(stale) /
                                 static_cast<double>(hits);
  }

  /// Fold another proxy's metrics into this one.  Counters are sums; the
  /// OnlineStats use the parallel Welford merge, so callers that need
  /// bit-reproducible aggregates must merge in a fixed order (the fleet
  /// layers merge ascending by global proxy id).
  ClientMetrics& merge(const ClientMetrics& other);
};

/// One classified client read.
struct ClientReadSample {
  bool hit = false;
  bool fresh = false;          ///< ground truth vs the origin (hits only)
  bool filled = false;         ///< miss demand-filled before answering
  bool dark = false;           ///< served while the proxy was crashed
  TimePoint snapshot = 0.0;    ///< server-state instant of the served copy
  Duration age = 0.0;          ///< now - snapshot (hits only)
  Duration staleness = 0.0;    ///< lag behind the first unseen update
  Duration fill_latency = 0.0; ///< demand-fetch duration (filled only)
};

/// Classify one read against origin ground truth: `snapshot` is the served
/// copy's server-state instant (ignored on a miss), `truth` the origin's
/// object at `now` (required on a hit).  The copy is stale iff the origin
/// modified the object strictly after `snapshot`; its staleness is how
/// long ago the first unseen update happened.
ClientReadSample classify_client_read(TimePoint now, bool hit,
                                      TimePoint snapshot,
                                      std::optional<ObjectVersion> truth);

/// Account one classified read.
void record_client_read(ClientMetrics& metrics,
                        const ClientReadSample& sample);

/// One recorded request (kept only when the traffic layer is asked to —
/// the differential tests pin these streams byte-identical across fleet
/// implementations).
struct ClientRequestRecord {
  TimePoint time = 0.0;
  std::uint32_t proxy = 0;   ///< global proxy id that served the request
  std::uint64_t client = 0;  ///< deterministic global simulated client id
  ObjectId object = kInvalidObjectId;
  ClientReadSample read;
};

/// One proxy's request records tagged with its global id, as input to
/// merge_client_records.  `records` must outlive the call.
struct ProxyClientRecords {
  std::size_t proxy = 0;
  const std::vector<ClientRequestRecord>* records = nullptr;
};

/// Deterministic fleet-wide request stream ordered by (time, proxy,
/// in-stream position) — the same bytes whether the streams came from one
/// simulator or from per-shard slices, at any thread count (the
/// merge_poll_records contract, applied to client requests).
std::vector<ClientRequestRecord> merge_client_records(
    std::vector<ProxyClientRecords> streams);

}  // namespace broadway
