// Fleet-aware client traffic: aggregated per-proxy request streams.
//
// The paper's simulator "simulates a proxy cache that receives requests
// from several clients" (§6.1.1).  This layer drives those requests at a
// fleet of proxies: each proxy receives one *aggregated* Poisson request
// stream standing in for its whole client population — millions of
// simulated clients cost one self-rescheduling event per proxy, not one
// per client.  Per-request client ids are drawn deterministically from
// the proxy's stream, so a request is still attributable to a stable
// client identity without any per-client state.
//
// Request shape: object selection is Zipf-popularity over the origin's
// hosted objects (or explicit id-keyed weights), and the request *rate*
// is modulated by a DiurnalProfile (src/trace/diurnal.h) via Poisson
// thinning — candidate instants are drawn at the profile's peak rate and
// accepted with probability intensity/peak, which keeps the stream a
// pure function of the per-proxy RNG.
//
// Determinism is the same bar as the rest of the fleet: proxy i's stream
// depends only on (config seed, global proxy id), its events are
// scheduled under the proxy's global id as the Simulator schedule tag,
// and reads touch only proxy-local state (cache) plus the shared origin,
// read at the shard's own clock — so a ShardedFleet run produces
// byte-identical per-proxy ClientMetrics and request records at any
// thread count (tests/test_client_differential.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "client/client_metrics.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "trace/diurnal.h"
#include "util/rng.h"

namespace broadway {

/// Traffic shape shared by every proxy's stream.
struct ClientTrafficConfig {
  /// Mean request rate per proxy (requests/s, time-averaged over the
  /// diurnal profile — a flat profile makes the stream homogeneous
  /// Poisson at exactly this rate).
  double request_rate = 10.0;
  /// Zipf exponent for the default popularity law over the origin's
  /// hosted objects, ranked by intern order: weight(rank) = 1/(rank+1)^s.
  /// 0 = uniform.  Ignored when `popularity` is non-empty.
  double zipf_exponent = 0.8;
  /// Explicit id-keyed popularity weights (resolved through the shared
  /// UriTable); empty = Zipf over every hosted object.  Unknown ids fail
  /// fast at start().
  std::vector<ObjectWeight> popularity;
  /// Simulated client population behind each proxy.  Every request draws
  /// a client uniformly from it; the global client id is
  /// proxy_global_id * clients_per_proxy + local draw.
  std::uint64_t clients_per_proxy = 1'000'000;
  /// Per-client session locality: with this probability a request re-draws
  /// its object from the issuing client's small *session working set*
  /// instead of the global popularity law.  The working set is the
  /// `session_objects` popularity draws keyed counter-style by
  /// (seed, global client id, slot) — a pure function of the client
  /// identity, so it is identical whether the proxy runs in a whole fleet
  /// or a shard slice.  0 (the default) skips the locality draw entirely,
  /// leaving the per-request RNG consumption exactly as before (two draws:
  /// client, object); any positive value consumes exactly three draws per
  /// request (client, locality coin, object).
  double session_locality = 0.0;
  /// Working-set size per client when session_locality > 0.
  std::size_t session_objects = 4;
  /// Hour-of-day modulation of the request rate.
  DiurnalProfile profile = DiurnalProfile::flat();
  /// Wall-clock hour at simulated t = 0.
  double start_hour = 0.0;
  /// Stream seed; proxy i draws from Rng(seed + global id), so a slice's
  /// streams are bit-identical to the same proxies in a whole fleet.
  std::uint64_t seed = 1;
  /// Keep a ClientRequestRecord per request (differential tests, debug).
  /// Off keeps memory flat regardless of run length; metrics always
  /// accumulate.
  bool record_requests = false;
};

/// Aggregated client streams over a set of proxies (a whole fleet, or one
/// shard's slice).  Construct with the engines to drive, `start()` after
/// the engines started, run the simulator, read metrics.
class FleetClientTraffic {
 public:
  /// One proxy to drive.  `global_id` is the fleet-wide proxy id (equal
  /// to the local index for a whole fleet; the shard's slice passes the
  /// global ids it hosts).
  struct ProxyBinding {
    PollingEngine* engine = nullptr;
    std::size_t global_id = 0;
  };

  /// `origin` is the server (or shard reader) providing ground truth and
  /// the shared UriTable.  Bindings must be in ascending global id order
  /// (the fleet layers construct them that way).
  FleetClientTraffic(Simulator& sim, const OriginServer& origin,
                     std::vector<ProxyBinding> proxies,
                     ClientTrafficConfig config);

  FleetClientTraffic(const FleetClientTraffic&) = delete;
  FleetClientTraffic& operator=(const FleetClientTraffic&) = delete;

  /// Resolve the object universe (every object must be registered at the
  /// origin by now) and arm one stream per proxy, each scheduled under
  /// its proxy's global id as the schedule tag.  Call once, after the
  /// engines started.
  void start();

  /// Stop issuing further requests.
  void stop();

  std::size_t size() const { return streams_.size(); }

  /// Metrics of local proxy `index` (binding order).
  const ClientMetrics& metrics(std::size_t index) const;

  /// All local streams folded in ascending global id order.
  ClientMetrics merged_metrics() const;

  /// Recorded requests of local proxy `index` (empty unless
  /// config.record_requests).
  const std::vector<ClientRequestRecord>& records(std::size_t index) const;

  /// Every local stream's records tagged with its global proxy id, as
  /// input to merge_client_records (the sharded fleet concatenates the
  /// slices' streams before merging).
  std::vector<ProxyClientRecords> tagged_records() const;

  /// Requests issued across every local stream.
  std::uint64_t requests_issued() const;

  /// Earliest pending candidate firing across the local streams;
  /// kTimeInfinity when none (before start() or after stop()).  The
  /// sharded driver folds this into its send bound when demand fills are
  /// on: a client request can then reach the origin and relay out, so a
  /// shard must not advance past another shard's next candidate.
  TimePoint next_fire() const;

  /// The resolved object universe (valid after start()).  Zero-weight
  /// popularity entries are dropped at start(), so every listed object
  /// has sampling mass.
  const std::vector<ObjectId>& objects() const { return objects_; }

 private:
  struct Stream {
    PollingEngine* engine = nullptr;
    std::size_t global_id = 0;
    Rng rng;
    ClientMetrics metrics;
    std::vector<ClientRequestRecord> records;
    std::unique_ptr<PeriodicTask> task;

    Stream(std::uint64_t seed) : rng(seed) {}
  };

  Simulator& sim_;
  const OriginServer& origin_;
  ClientTrafficConfig config_;
  // unique_ptr elements: the periodic tasks capture raw Stream pointers.
  std::vector<std::unique_ptr<Stream>> streams_;
  std::vector<ObjectId> objects_;      // universe, popularity-rank order
  std::vector<double> cumulative_;     // normalised CDF; back() == 1.0
  double total_weight_ = 0.0;
  double peak_intensity_ = 0.0;        // thinning envelope (profile units)
  double peak_rate_ = 0.0;             // candidate rate = rate * peak/mean
  bool started_ = false;

  void build_universe();
  /// One stream firing: thin against the diurnal envelope, maybe issue a
  /// request, return the gap to the next candidate.
  Duration fire(Stream& stream);
  void issue(Stream& stream);
  /// CDF-inverse of u in [0, 1): the object whose cumulative mass first
  /// exceeds u.  Fails fast on an out-of-range draw — the CDF ends at
  /// exactly 1.0, so any u < 1.0 resolves in range.
  ObjectId object_at(double u) const;
  /// Slot `slot` of `client`'s session working set (counter-keyed, see
  /// ClientTrafficConfig::session_locality).
  ObjectId session_object(std::uint64_t client, std::size_t slot) const;
};

}  // namespace broadway
