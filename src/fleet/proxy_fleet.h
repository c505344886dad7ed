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
//  * cross-proxy δ-groups: the paper's triggered-poll coordinator
//    (consistency/triggered.h) over (proxy, uri) members cached on
//    *different* proxies.  The fleet feeds it own polls and applied
//    relays, and routes a dark member's trigger to a live sibling.
//
// Relay correctness: every successful non-initial poll is relayed, so a
// sibling's view always advances with the freshest observation anywhere in
// the fleet; PollingEngine::apply_relay restricts the relayed modification
// history to the updates the sibling has not seen and rejects stale or
// non-validating relays.  Each relay is recorded at the receiving proxy as
// PollCause::kRelay — visible to the fidelity evaluation, excluded from
// origin-poll counts.
//
// A ProxyFleet is also the *slice* of a ShardedFleet shard
// (FleetConfig::proxy_ids).  A slice sends every relay of a fan-out
// itself: its local siblings first, then the siblings hosted on other
// shards (connect_remote) in ascending global id, all through the one
// attempt chain — one round, loss draw, backoff retry and latency +
// jitter delay per attempt.  A remote attempt differs only at the end: it
// becomes a message in the slice's outbox, which the sharded driver
// delivers at the destination shard.
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
#include "consistency/triggered.h"
#include "fleet/faults.h"
#include "metrics/accounting.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/id_slots.h"
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
  TriggeredPollCoordinator& add_delta_group(std::vector<FleetMember> members,
                                            Duration delta_mutual);

  /// Start every engine (proxy 0 first; deterministic FIFO ordering).
  /// Each engine starts under a schedule tag equal to its global proxy
  /// id, so its timers — and everything they transitively schedule —
  /// carry a stable owner for cross-shard ordering.
  void start();

  // ---- cross-fleet relay (ShardedFleet plumbing) ----

  /// One relay destination.  `shard == kHere`: local proxy `local` of
  /// this fleet instance.  Otherwise local proxy `local` of the instance
  /// the sharded driver numbers `shard`, reached through outbox().  Fault
  /// draws are keyed on the `global` proxy id either way.
  struct RelayDest {
    static constexpr std::uint32_t kHere = 0xffffffffu;
    std::uint32_t shard = kHere;
    std::uint32_t local = 0;
    std::uint32_t global = 0;
    bool remote() const { return shard != kHere; }
  };

  /// A relay bound for another fleet instance, at rest until it is
  /// delivered there.  The sharded driver orders deliveries by (deliver_at,
  /// sent_at, tag, seq) — see sharded_fleet.h.
  struct RelayMessage {
    TimePoint deliver_at = 0.0;
    TimePoint sent_at = 0.0;
    std::uint32_t tag = 0;    ///< sender chain's schedule tag
    std::uint32_t shard = 0;  ///< destination instance
    std::uint64_t seq = 0;    ///< the sending instance's send order
    std::uint32_t dest_local = 0;  ///< local proxy index at `shard`
    ObjectId object = kInvalidObjectId;
    TimePoint snapshot = 0.0;
    std::shared_ptr<const Response> response;
  };

  /// Per-object relay destinations hosted by other fleet instances.
  using RemoteDests = IdSlots<std::vector<RelayDest>>;

  /// Wire this instance into a sharded fleet, once, after start() and
  /// before the first event runs.  `remote[object]` lists the object's
  /// destinations on other instances in ascending global id; every fan-out
  /// sends to them after its local siblings, through the same attempt
  /// chain, and parks each surviving attempt in outbox() instead of
  /// scheduling its delivery.  `watch[local]` is a per-ObjectId flag
  /// vector marking the local pairs whose relay *deliveries* can cause a
  /// cross-fleet-visible send at the delivery instant (a delivery can
  /// trigger δ-sibling polls, which may relay out); pairs beyond its
  /// length are unwatched.  Pending delayed relays to watched pairs feed
  /// next_watched_delivery(), the fleet's share of the sharded driver's
  /// window-edge bound.
  void connect_remote(RemoteDests remote,
                      std::vector<std::vector<bool>> watch);

  /// Relays to other fleet instances, in send order, until the sharded
  /// driver moves them to their destinations' inboxes.
  std::vector<RelayMessage>& outbox() { return outbox_; }
  const std::vector<RelayMessage>& outbox() const { return outbox_; }

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

  /// Earliest pending watched relay delivery; kTimeInfinity when none.
  TimePoint next_watched_delivery() const {
    return pending_watched_.empty() ? kTimeInfinity
                                    : *pending_watched_.begin();
  }

  /// Earliest pending relay-retry firing; kTimeInfinity when none.  A
  /// retry to another instance is itself a cross-fleet send, and a local
  /// one can deliver and trigger δ-sibling polls that relay out, so the
  /// sharded driver folds this into its window send bound alongside
  /// next_watched_delivery().
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

  /// The relay channel's ledger.  Relays to other fleet instances count
  /// their sends, losses and retries here; the receiving instance counts
  /// their deliveries, and the sharded driver counts those still in its
  /// mailboxes as in flight, so only its fold balances.
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
  std::vector<std::unique_ptr<TriggeredPollCoordinator>> groups_;
  // Per-(proxy, object) δ-group subscriber index, built at
  // add_delta_group time: groups_by_member_[proxy][object] lists the
  // groups watching that member, so notify_groups costs
  // O(groups-watching-this-object) — nothing for ungrouped objects —
  // instead of a virtual call into every registered group per poll.
  // Sparse slots hold only the grouped members, not every id of the
  // fleet-shared origin table.
  std::vector<IdSlots<SmallVector<TriggeredPollCoordinator*, 2>>>
      groups_by_member_;
  std::vector<std::size_t> proxy_ids_;  // local index -> global proxy id
  std::unique_ptr<FleetClientTraffic> client_traffic_;  // null = no clients
  RemoteDests remote_dests_;  // see connect_remote
  std::vector<RelayMessage> outbox_;
  std::uint64_t outbox_seq_ = 0;
  // Watched destination pairs (see connect_remote) and the delivery times
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
  // maintained while faults are active; sparse slots hold the objects
  // that have relayed.
  std::vector<IdSlots<std::uint64_t>> relay_rounds_;
  bool faults_active_ = false;  // config_.faults.any(), cached
  RelayLedger relays_;

  /// Local relay destinations of one fan-out, ascending local index.
  using Destinations = SmallVector<std::uint32_t, 8>;

  /// Fleet-level stage of engine i's poll pipeline: build the list of
  /// eligible local siblings once, relay to them and to the remote
  /// destinations, then feed δ-groups.
  void on_poll(std::size_t proxy, const PollEvent& event);

  /// Relay one poll from local proxy `from` to `dests`, then to `remote`
  /// (null when none) in ascending global id.
  ///  * Fault-free, relay_latency <= 0: each sibling reads the pipeline's
  ///    response in place — no copy anywhere on the path.
  ///  * Fault-free, relay_latency > 0: one copy and ONE delivery event at
  ///    now + relay_latency for the whole fan-out, delivering in list
  ///    order.  That is the order separate per-destination events would
  ///    fire in: they would take consecutive seqs at one instant, so
  ///    nothing could fire between them, and anything a delivery
  ///    schedules at that instant gets a later seq.  The one event has
  ///    their (time, scheduled_at, tag) key, so the sharded tie rule
  ///    orders it exactly like them.
  ///  * Faults: one copy shared by every destination's attempt chain;
  ///    jitter gives each destination its own delivery instant, so each
  ///    keeps its own event (relay_attempt).
  ///  * Remote destinations take the same path as local ones up to the
  ///    delivery: the fault-free message waits relay_latency, a faulty
  ///    one goes through relay_attempt; either way it lands in outbox().
  void relay(std::size_t from, const Destinations& dests,
             const std::vector<RelayDest>* remote, const PollEvent& event,
             std::uint64_t round);

  /// One transmission attempt of a fault-injected relay: draws loss (a
  /// lost attempt below the retry limit schedules the next attempt after
  /// the capped exponential backoff) and jitter, then delivers — or, for
  /// a remote destination, posts.  Every destination's chain shares the
  /// fan-out's one `message`.  The retry chain is owned by the simulator,
  /// not the sending engine — a sender crash does not cancel messages
  /// already handed to the network.
  void relay_attempt(std::size_t src_global, const RelayDest& to,
                     ObjectId object, std::shared_ptr<const Response> message,
                     TimePoint snapshot, std::uint64_t round,
                     std::size_t attempt);

  /// Park a relay to remote destination `to` in the outbox, due at
  /// now + `delay`.
  void post(const RelayDest& to, ObjectId object,
            std::shared_ptr<const Response> message, TimePoint snapshot,
            Duration delay);

  /// Consume the next fan-out round of (local proxy, object).
  std::uint64_t next_relay_round(std::size_t proxy_index, ObjectId object);

  /// Failover route for δ-groups
  /// (TriggeredPollCoordinator::FailoverResolver):
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
