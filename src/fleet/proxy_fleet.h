// A fleet of proxies sharing one origin server (paper §5.1 outlook).
//
// The paper evaluates a single proxy against one origin; its extension
// headers (src/http/extensions.h) and push channel (src/origin/push.h) are
// explicitly designed for a *network* of caches.  ProxyFleet realises
// that: N PollingEngines bound to one OriginServer through one simulator,
// with
//
//  * per-fleet origin-load accounting — polls/sec seen by the origin
//    across all proxies (metrics/accounting's FleetOriginLoad);
//  * an optional **cooperative push mode**: the proxy that polls an object
//    relays the response to sibling proxies tracking the same uri over a
//    PushChannel-style proxy–proxy relay carrying X-Modification-History /
//    X-Last-Modified-Precise, so siblings refresh (200 relays) or
//    revalidate (304 relays) without an origin round-trip;
//  * fleet-aware δ-groups (FleetDeltaGroup): mutual temporal consistency
//    for groups whose members are cached on *different* proxies.
//
// Relay correctness: every successful non-initial poll is relayed, so a
// sibling's view always advances with the freshest observation anywhere in
// the fleet; PollingEngine::apply_relay restricts the relayed modification
// history to the updates the sibling has not seen and rejects stale or
// non-validating relays.  Each relay is recorded at the receiving proxy as
// PollCause::kRelay — visible to the fidelity evaluation, excluded from
// origin-poll counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "client/client_traffic.h"
#include "fleet/faults.h"
#include "fleet/fleet_group.h"
#include "metrics/accounting.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/small_vector.h"

namespace broadway {

/// Fleet configuration.
struct FleetConfig {
  /// Number of proxies.
  std::size_t proxies = 2;
  /// Relay successful polls (200 refreshes, 304 validations) to sibling
  /// proxies tracking the same uri.  Off = independent polling.
  bool cooperative_push = true;
  /// Proxy–proxy delivery latency; 0 = synchronous relay.
  Duration relay_latency = 0.0;
  /// Per-engine template; proxy i runs with seed = engine.seed + i so
  /// loss-injection streams are independent across the fleet.
  EngineConfig engine;
  /// Bound every proxy's poll-log memory for long-horizon runs: keep at
  /// most this many records per object per proxy (0 = unlimited).
  /// Forwarded to PollingEngine::set_poll_log_retention on every engine;
  /// fleet counters (origin polls, relays, origin load) stay exact under
  /// truncation — only per-object record series shorten.
  std::size_t poll_log_retention = 0;
  /// Global proxy ids hosted by this fleet instance (ShardedFleet builds
  /// one ProxyFleet *slice* per shard).  Empty = this fleet is the whole
  /// fleet and proxy i's global id is i.  When set, `proxies` is ignored
  /// and engine seeds / event tags use the global ids, so a slice's
  /// engines behave bit-for-bit like the same proxies in a whole fleet.
  std::vector<std::size_t> proxy_ids;
  /// Drive client request streams at every proxy (src/client/): one
  /// aggregated Poisson stream per proxy, seeded and tagged by global
  /// proxy id, started at start() after the engines.  A shard slice
  /// inherits this config unchanged, so sharded client metrics are
  /// byte-identical to the whole-fleet run.
  std::optional<ClientTrafficConfig> client_traffic;
  /// Deterministic fault injection (fleet/faults.h): proxy crash windows,
  /// relay loss, latency jitter and relay retry.  Keyed entirely by
  /// global ids and counter-based hash draws, so a shard slice inherits
  /// this config unchanged and faulty runs stay byte-identical to the
  /// whole-fleet reference.  Default-constructed = no faults (the relay
  /// path keeps its zero-copy synchronous fast path).
  FaultSchedule faults;
};

/// N polling engines on one origin, with cooperative proxy–proxy push.
class ProxyFleet {
 public:
  ProxyFleet(Simulator& sim, OriginServer& origin, FleetConfig config);

  ProxyFleet(const ProxyFleet&) = delete;
  ProxyFleet& operator=(const ProxyFleet&) = delete;

  std::size_t size() const { return engines_.size(); }
  PollingEngine& proxy(std::size_t index);
  const PollingEngine& proxy(std::size_t index) const;
  const FleetConfig& config() const { return config_; }

  /// Global id of local proxy `index` (== index for a whole fleet).
  std::size_t global_id(std::size_t index) const {
    BROADWAY_CHECK_MSG(index < proxy_ids_.size(), "proxy " << index);
    return proxy_ids_[index];
  }

  // ---- registration (before start()) ----

  /// Track a temporal object on one proxy.
  void add_temporal_object(std::size_t proxy, const std::string& uri,
                           std::unique_ptr<RefreshPolicy> policy);

  /// Track the same uri on *every* proxy; `make_policy` builds one policy
  /// instance per proxy (policies carry learned state and cannot be
  /// shared).
  using PolicyFactory = std::function<std::unique_ptr<RefreshPolicy>()>;
  void add_temporal_object_everywhere(const std::string& uri,
                                      const PolicyFactory& make_policy);

  /// Track a value-domain object on one proxy.
  void add_value_object(std::size_t proxy, const std::string& uri,
                        AdaptiveValueTtrPolicy::Config config);

  /// Register a cross-proxy δ-group.  Members must already be registered
  /// temporal objects on their proxies.
  FleetDeltaGroup& add_delta_group(std::vector<FleetMember> members,
                                   Duration delta_mutual);

  /// Start every engine (proxy 0 first; deterministic FIFO ordering).
  /// Each engine starts under a schedule tag equal to its global proxy
  /// id, so its timers — and everything they transitively schedule —
  /// carry a stable owner for cross-shard ordering.
  void start();

  // ---- cross-fleet relay (ShardedFleet plumbing) ----

  /// Observer for relays that must leave this fleet instance.  Called
  /// once per relayable poll (inside the poll event, after local
  /// siblings were handled); the callee fans out to proxies hosted
  /// elsewhere.  Event references die with the call — copy the response
  /// before stashing it.  `round` is the sender's
  /// per-(proxy, object) relay fan-out round — a pure function of the
  /// sender's poll history — which keys the exporter's fault draws so a
  /// remote destination draws exactly what it would have drawn locally.
  using RelayExporter = std::function<void(
      std::size_t from_global, const PollEvent& event, std::uint64_t round)>;
  void set_relay_exporter(RelayExporter exporter) {
    relay_exporter_ = std::move(exporter);
  }

  /// Deliver a relay message that originated outside this fleet instance
  /// to local proxy `to`.  Counts and δ-group notifications behave
  /// exactly like a local delivery; the caller is responsible for clock
  /// position (sim.now() == delivery time) and for setting the schedule
  /// tag to the sender's so follow-on events inherit it.
  void deliver_relay(std::size_t to, ObjectId object,
                     const Response& response, TimePoint snapshot) {
    BROADWAY_CHECK_MSG(to < engines_.size(), "proxy " << to);
    deliver(to, object, response, snapshot);
  }

  /// Mark the (local proxy, object) pairs whose relay *deliveries* can
  /// cause a cross-fleet-visible send at the delivery instant (a delivery
  /// can trigger δ-sibling polls, which may export).  `watch[local]` is a
  /// per-ObjectId flag vector; pairs beyond its length are unwatched.
  /// Pending latency-delayed relays to watched pairs contribute their
  /// delivery times to next_watched_delivery(), the fleet's share of the
  /// sharded driver's window-edge bound.
  void set_send_watch(std::vector<std::vector<bool>> watch) {
    send_watch_ = std::move(watch);
  }

  /// Earliest pending watched relay delivery; kTimeInfinity when none.
  TimePoint next_watched_delivery() const {
    return pending_watched_.empty() ? kTimeInfinity
                                    : *pending_watched_.begin();
  }

  /// Earliest pending local relay-retry firing; kTimeInfinity when none.
  /// A retry that fires inside a lookahead window can deliver and trigger
  /// δ-sibling polls that export, so the sharded driver folds this into
  /// its window send bound alongside next_watched_delivery().
  TimePoint next_relay_retry() const {
    return pending_relay_retries_.empty() ? kTimeInfinity
                                          : *pending_relay_retries_.begin();
  }

  // ---- accounting ----

  /// Aggregate origin load over every proxy's poll log.
  FleetOriginLoad origin_load() const;

  /// Successful non-initial origin polls across the fleet (the paper's
  /// "number of polls" summed over proxies).
  std::size_t origin_polls() const;

  // ---- client traffic ----

  /// True when FleetConfig::client_traffic armed request streams.
  bool has_client_traffic() const { return client_traffic_ != nullptr; }

  /// The client traffic driver (requires has_client_traffic()).
  FleetClientTraffic& client_traffic();
  const FleetClientTraffic& client_traffic() const;

  /// Client metrics folded over the local proxies in ascending global id
  /// order (requires has_client_traffic()).
  ClientMetrics merged_client_metrics() const {
    return client_traffic().merged_metrics();
  }

  /// Fleet-wide request stream in (time, proxy, in-stream position)
  /// order (requires has_client_traffic() and
  /// ClientTrafficConfig::record_requests).
  std::vector<ClientRequestRecord> merged_client_records() const {
    return merge_client_records(client_traffic().tagged_records());
  }

  /// Earliest pending client-stream candidate firing; kTimeInfinity when
  /// no client traffic is armed.  With demand fills on, a client request
  /// can reach the origin and relay out, so the sharded driver folds this
  /// into its window send bound.
  TimePoint next_client_fire() const {
    return client_traffic_ == nullptr ? kTimeInfinity
                                      : client_traffic_->next_fire();
  }

  /// The local relay channel's ledger.  Relays exported to other fleet
  /// instances are counted by the exporter's owner.
  const RelayLedger& relays() const { return relays_; }
  std::size_t relays_sent() const { return relays_.sent; }
  std::size_t relays_delivered() const { return relays_.delivered; }
  std::size_t relays_applied() const { return relays_.applied; }
  std::size_t relays_in_flight() const { return relays_.in_flight; }
  std::size_t relays_lost() const { return relays_.lost; }
  std::size_t relays_retried() const { return relays_.retried; }
  std::size_t relays_dropped_dark() const { return relays_.dropped_dark; }

  const OriginServer& origin() const { return origin_; }

 private:
  Simulator& sim_;
  OriginServer& origin_;
  FleetConfig config_;
  std::vector<std::unique_ptr<PollingEngine>> engines_;
  std::vector<std::unique_ptr<FleetDeltaGroup>> groups_;
  // Per-(proxy, object) δ-group subscriber index, built at
  // add_delta_group time: groups_by_member_[proxy][object] lists the
  // groups watching that member, so notify_groups costs
  // O(groups-watching-this-object) — nothing for ungrouped objects —
  // instead of a virtual call into every registered group per poll.
  // Object ids index the fleet-shared origin table, so a plain vector
  // (sized lazily) serves as the map.
  std::vector<std::vector<SmallVector<FleetDeltaGroup*, 2>>>
      groups_by_member_;
  std::vector<std::size_t> proxy_ids_;  // local index -> global proxy id
  std::unique_ptr<FleetClientTraffic> client_traffic_;  // null = no clients
  RelayExporter relay_exporter_;
  // Watched destination pairs (see set_send_watch) and the delivery times
  // of in-flight relays headed to them.  Latency jitter makes deliveries
  // complete out of send order, so an ordered multiset replaces the
  // fault-free FIFO.
  std::vector<std::vector<bool>> send_watch_;
  std::multiset<TimePoint> pending_watched_;
  // Fire times of pending relay-retry events (fault injection), for
  // next_relay_retry().
  std::multiset<TimePoint> pending_relay_retries_;
  // Per-(local proxy, object) relay fan-out round counters: incremented
  // once per relayable poll, they key the per-attempt fault draws.  Only
  // maintained while faults are active.
  std::vector<std::vector<std::uint64_t>> relay_rounds_;
  bool faults_active_ = false;  // config_.faults.any(), cached
  RelayLedger relays_;

  /// Fleet-level stage of engine i's poll pipeline: relay to siblings,
  /// then feed δ-groups.
  void on_poll(std::size_t proxy, const PollEvent& event);

  /// Send one relay message from local proxy `from` to proxy `to`
  /// (delivered now, or after relay_latency + jitter).  `snapshot` is the
  /// relaying proxy's poll fire time, `round` the sender's fan-out round
  /// for the fault draws.  The fault-free synchronous path hands the
  /// pipeline's response straight through by reference; a latency-delayed
  /// or fault-injected relay copies it.
  void relay(std::size_t from, std::size_t to, ObjectId object,
             const Response& response, TimePoint snapshot,
             std::uint64_t round);

  /// One transmission attempt of a fault-injected relay: draws loss (a
  /// lost attempt below the retry limit schedules the next attempt after
  /// the capped exponential backoff) and jitter, then delivers.  The
  /// retry chain is owned by the simulator, not the sending engine — a
  /// sender crash does not cancel messages already handed to the network.
  void relay_attempt(std::size_t src_global, std::size_t to, ObjectId object,
                     std::shared_ptr<const Response> message,
                     TimePoint snapshot, std::uint64_t round,
                     std::size_t attempt);

  /// Consume the next fan-out round of (local proxy, object).
  std::uint64_t next_relay_round(std::size_t proxy_index, ObjectId object);

  /// Failover route for δ-groups (FleetDeltaGroup::FailoverResolver):
  /// `proxy_index`'s designated sibling while it is dark — the
  /// lowest-global-id live proxy tracking `object` as a self-scheduled
  /// temporal object — or kNoLiveProxy when every tracker is dark.
  std::size_t failover_target(std::size_t proxy_index, ObjectId object,
                              TimePoint now) const;

  /// Delivery: count the message, apply it, feed δ-groups on success.
  void deliver(std::size_t to, ObjectId object, const Response& response,
               TimePoint snapshot);

  /// δ-groups subscribed to (proxy, object) hear about a member refresh
  /// (own poll or applied relay).
  void notify_groups(std::size_t proxy, ObjectId object,
                     const TemporalPollObservation& obs);

  bool watched_dest(std::size_t to, ObjectId object) const {
    return to < send_watch_.size() && object < send_watch_[to].size() &&
           send_watch_[to][object];
  }

  std::vector<CoordinatorHooks> hooks_by_proxy();
};

}  // namespace broadway
