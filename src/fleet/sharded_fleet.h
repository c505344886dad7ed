// Sharded multithreaded fleet simulation with conservative lookahead.
//
// ProxyFleet runs N proxies on ONE simulator — one logical timeline, one
// core.  ShardedFleet partitions the fleet into shards that each own a
// simulation stack (Simulator, a reader of the shared origin, a ProxyFleet
// *slice* hosting that shard's proxies, metrics), and runs the shards on
// a ThreadPool.  The proxy–proxy relay latency is the classic
// conservative-lookahead window of parallel discrete-event simulation: a
// relay sent at time t cannot affect another shard before t + latency,
// so every shard may run `relay_latency` ahead of the slowest one
// without ever seeing a message from its past.  Execution proceeds in
// windows: run every shard to the window edge in parallel, barrier,
// move the cross-shard relays from each slice's outbox to the
// destination shards' inboxes, repeat.  The slice sends them itself,
// through the same attempt chain as its local relays (fault draws,
// retries, latency + jitter), so the driver only wires each slice's
// remote destinations at start() and carries the messages.
// Each edge jumps to the earliest instant any shard can next produce a
// cross-shard-visible send (never less than one relay_latency step),
// collapsing idle stretches into one barrier (see run_until).
//
// Determinism is the acceptance bar, not a best effort: a sharded run
// must produce byte-identical per-proxy poll logs, TTR series and
// fidelity as the single-simulator ProxyFleet, at any thread count
// (tests/test_sharded_differential.cpp).  Three mechanisms make it hold:
//
//  * Owner tags.  Every event carries the Simulator schedule tag of the
//    chain that created it (ProxyFleet::start seeds each proxy's timers
//    with its global id; retries, reschedules and relay deliveries
//    inherit it).  A cross-shard message is stamped with its sender's
//    tag, send time and a per-source-slice sequence number.
//  * Canonical merge order.  Inside a window, a shard interleaves its
//    local events with its inbox by the key (fire time, schedule time,
//    owner tag, source seq) — the same order in which the one-simulator
//    reference fires those events.  Messages are injected between local
//    events via Simulator::advance_clock + ProxyFleet::deliver_relay
//    under the sender's tag, exactly as if the reference's delivery
//    event had fired there.  Local events strictly before a delivery run
//    as one Simulator::run_before, so client streams run ahead up to the
//    delivery instant but never onto it.
//  * Shared, frozen state.  Origin state at time t is a pure function of
//    the update traces (origin/origin_server.h), so there is one origin
//    content — objects, traces and the UriTable, built once by the setup
//    callback — and every shard reads it through its own OriginServer,
//    which answers at that shard's clock (the same-instant rule of
//    Simulator::reached) and keeps that shard's request counters.  Every
//    ObjectId is therefore the same on every shard by construction.  The
//    content is frozen at start(): reads are const and need no
//    synchronisation, and a late intern or trace attach is a loud
//    CheckFailure.
//
// δ-groups couple their member proxies synchronously (a member's poll
// can trigger immediate early polls on sibling members), so grouped
// members must share a timeline.  build_shards takes one union-find
// closure over (proxy, object) *pairs* — the colocation rules listed
// there — and places the resulting units.  The whole-proxy layout
// (shards = 0) adds one rule, joining each proxy's pairs, and gives every
// unit its own shard.  Object-partition sharding (shards > 0) packs the
// units into the requested shard count: a proxy's ungrouped objects may
// split across shards as independent engine slices, so shard count can
// exceed proxy count and a hot proxy no longer serializes a run.  Either
// way the layout depends only on the topology and the `shards` knob —
// never on the thread count — so merged output is thread-schedule
// independent by construction.  Every ObjectId-keyed table of a shard —
// its engine slices' caches, poll-log indices and tracked objects, the
// slice fleet's group index, relay rounds and remote fan-out lists, and
// the origin reader's version hints — is an IdSlots
// (util/id_slots.h) holding only the pairs the shard hosts, so raising
// the shard count adds O(pairs), not O(objects) per slice.
//
// Accounting merges deterministically at sweep end: FleetOriginLoad
// counters are sums, and merged_poll_records() orders the fleet-wide
// record stream by (snapshot time, proxy, in-log position) — see
// metrics/accounting.h.  In-flight relays are never dropped: messages
// that outlive a run_until horizon stay in the mailboxes and deliver
// when the clock catches up (relays().in_flight counts them).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fleet/proxy_fleet.h"
#include "metrics/accounting.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "util/id_slots.h"
#include "util/thread_pool.h"

namespace broadway {

/// Sharded-fleet configuration.
struct ShardedFleetConfig {
  /// The fleet being simulated (proxies, cooperative push, relay
  /// latency, engine template, retention).  With cooperative push across
  /// more than one shard, relay_latency must be > 0 — it is the
  /// lookahead window.  FleetConfig::proxy_ids must be empty; the driver
  /// assigns proxies to shards itself.
  FleetConfig fleet;

  /// Threads driving the shards, the calling thread included (it works
  /// each window's batch alongside threads - 1 pool workers; <= 1 runs
  /// shards inline on the calling thread, in shard order).  The shard
  /// *structure* — and hence every simulation result — depends only on
  /// the topology, never on this value.
  std::size_t threads = 1;

  /// Builds the origin content every shard reads.  Called once, at
  /// start(), on the one shared origin, before any proxy registration.
  using OriginSetup = std::function<void(OriginServer&)>;
  OriginSetup origin_setup;

  /// Origin configuration every shard's reader answers with.
  OriginServer::Config origin;

  /// Requested shard count.  Colocation units are the δ-group closures
  /// over (proxy, object) *pairs* (a group's members, every proxy's pairs
  /// of group-sibling objects, and — with client traffic — each proxy's
  /// whole working set; see build_shards).  0 (default) is the
  /// whole-proxy layout: the closure also joins each proxy's pairs, and
  /// every unit gets a shard of its own.  > 0 packs the units into at
  /// most this many shards by greedy LPT on pair count; a proxy whose
  /// pairs land on several shards runs one engine *slice* per shard.
  /// Merged output is byte-identical across layouts and shard counts.
  std::size_t shards = 0;
};

/// A fleet of proxies simulated as parallel shards.
class ShardedFleet {
 public:
  using PolicyFactory = ProxyFleet::PolicyFactory;

  explicit ShardedFleet(ShardedFleetConfig config);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  // ---- registration (before start()) ----
  // Registrations are recorded and replayed onto the shards at start(),
  // once the δ-group topology has fixed the shard assignment.

  /// Track a temporal object on one proxy.  `make_policy` is invoked at
  /// start() (policies carry learned state; the shard owns the instance).
  void add_temporal_object(std::size_t proxy, const std::string& uri,
                           PolicyFactory make_policy);

  /// Track the same uri on every proxy (one policy instance per proxy).
  void add_temporal_object_everywhere(const std::string& uri,
                                      PolicyFactory make_policy);

  /// Track a value-domain object on one proxy.
  void add_value_object(std::size_t proxy, const std::string& uri,
                        AdaptiveValueTtrPolicy::Config config);

  /// Register a cross-proxy δ-group.  Members are checked here
  /// (TriggeredPollCoordinator::validate) and colocated on one shard at
  /// start() (their coordination is synchronous).
  void add_delta_group(std::vector<FleetMember> members,
                       Duration delta_mutual);

  /// Build the shards, replay registrations, freeze the shared origin,
  /// start every engine.  No registration may follow.
  void start();

  /// Advance the whole fleet to `horizon`, running shards in parallel
  /// lookahead windows.  Each window edge is
  ///   min(horizon, max(now + L, min over shards of the send bound)),
  /// where the send bound is the earliest instant a shard can next
  /// produce a cross-shard-visible send and L the relay latency.  Idle
  /// stretches collapse into one window; a window never closes at or
  /// past bound + L, so no delivery can land on an instant whose local
  /// events were already consumed.  Callable repeatedly with increasing
  /// horizons; cross-shard relays still in flight at one call's horizon
  /// deliver during the next.
  void run_until(TimePoint horizon);

  // ---- topology ----

  std::size_t size() const { return proxy_count_; }
  std::size_t shard_count() const { return shards_.size(); }
  std::size_t thread_count() const;
  /// Shard hosting global proxy `proxy` (valid after start(); requires
  /// the proxy to live on a single shard — see slice_count()).
  std::size_t shard_of(std::size_t proxy) const;
  /// Number of engine slices global proxy `proxy` runs as (1 unless
  /// object-partition sharding split it; valid after start()).
  std::size_t slice_count(std::size_t proxy) const;
  TimePoint now() const { return now_; }
  /// Registered (proxy, object) pairs, and the pairs of the largest
  /// colocation unit — the most the layout must put on one shard, and so
  /// on one thread (valid after start()).
  std::size_t pair_count() const { return pair_count_; }
  std::size_t largest_unit_pairs() const { return largest_unit_pairs_; }

  /// δ-group `index` (registration order) as bound on its shard (valid
  /// after start()).
  const TriggeredPollCoordinator& delta_group(std::size_t index) const;

  /// Global proxy accessors (valid after start(); require a single-slice
  /// proxy — partition-split proxies have no one engine to return).
  PollingEngine& proxy(std::size_t proxy);
  const PollingEngine& proxy(std::size_t proxy) const;

  // ---- accounting (deterministic merges over the shards) ----

  /// Origin requests served, summed over the shards' readers (each
  /// counts exactly its own proxies' requests, so the sum is the fleet
  /// total).
  std::size_t origin_requests() const;

  /// Successful non-initial origin polls across the fleet.
  std::size_t origin_polls() const;

  /// The relay ledger folded over the shards: each slice fleet's ledger
  /// (its local relays, plus the sends, losses and retries of its
  /// cross-shard ones) and the cross-shard messages still in the
  /// mailboxes (in flight).  balanced() holds at
  /// any instant; without injected loss in-flight drains once the clock
  /// passes the last send + relay_latency (+ jitter).
  RelayLedger relays() const;
  std::size_t relays_sent() const { return relays().sent; }
  std::size_t relays_delivered() const { return relays().delivered; }
  std::size_t relays_applied() const { return relays().applied; }
  std::size_t relays_in_flight() const { return relays().in_flight; }
  std::size_t relays_lost() const { return relays().lost; }
  std::size_t relays_retried() const { return relays().retried; }
  std::size_t relays_dropped_dark() const { return relays().dropped_dark; }

  /// Aggregate origin load over every proxy's poll log.
  FleetOriginLoad origin_load() const;

  /// Fleet-wide record stream in (snapshot time, proxy, log position)
  /// order — byte-identical to the same merge over a single-simulator
  /// reference run.
  std::vector<PollRecord> merged_poll_records() const;

  // ---- client traffic (FleetConfig::client_traffic) ----

  /// True when the fleet config armed client request streams.
  bool has_client_traffic() const {
    return config_.fleet.client_traffic.has_value();
  }

  /// Client metrics of global proxy `proxy` (valid after start()).
  const ClientMetrics& client_metrics(std::size_t proxy) const;

  /// Fleet-wide client metrics, folded in ascending global proxy id
  /// order — byte-identical to the single-simulator reference.
  ClientMetrics merged_client_metrics() const;

  /// Fleet-wide request stream in (time, proxy, in-stream position)
  /// order (requires ClientTrafficConfig::record_requests).
  std::vector<ClientRequestRecord> merged_client_records() const;

 private:
  /// One cross-shard relay message at rest.  Ordering key: (deliver_at,
  /// sent_at, tag, seq) — see the file comment.
  using Message = ProxyFleet::RelayMessage;

  struct Shard {
    std::unique_ptr<Simulator> sim;
    /// This shard's reader of the shared origin content (shard 0's is
    /// the one origin_setup built).
    std::unique_ptr<OriginServer> origin;
    std::unique_ptr<ProxyFleet> fleet;
    std::vector<std::size_t> proxies;  ///< global ids, ascending
    /// Messages awaiting delivery here, sorted by the canonical key.
    std::vector<Message> inbox;
    /// Local (engine, object) pairs whose next own-schedule fire bounds
    /// this shard's next cross-shard-visible send — the export closure
    /// restricted to this shard (see wire_remote_relays).
    std::vector<std::pair<const PollingEngine*, ObjectId>> export_watch;
  };

  /// One engine slice of a global proxy.
  struct SliceRef {
    std::uint32_t shard = 0;
    std::uint32_t local = 0;  ///< local proxy index within `shard`
  };

  struct TemporalRegistration {
    std::size_t proxy;
    std::string uri;
    PolicyFactory make_policy;
  };
  struct ValueRegistration {
    std::size_t proxy;
    std::string uri;
    AdaptiveValueTtrPolicy::Config config;
  };
  struct GroupRegistration {
    std::vector<FleetMember> members;
    Duration delta_mutual;
    const TriggeredPollCoordinator* bound = nullptr;  // set at start()
  };

  static bool message_order(const Message& a, const Message& b);
  void build_shards();
  /// Local index of global proxy `proxy` within shard `shard`.
  std::size_t local_of(std::size_t shard, std::size_t proxy) const;
  void build_registration_ranks();
  /// Hand every slice its remote relay destinations and send watch
  /// (ProxyFleet::connect_remote), and fill each shard's export_watch.
  void wire_remote_relays();
  void run_shard_window(std::size_t shard_index, TimePoint window_end);
  void exchange_mailboxes();
  /// Earliest instant this shard can next produce a cross-shard-visible
  /// send; returns early (possibly short of the true minimum) once the
  /// running bound drops to `cutoff` or below, since the caller falls
  /// back to a fixed-width window there anyway.
  TimePoint shard_send_bound(const Shard& shard, TimePoint cutoff) const;
  /// The single slice of an unsplit proxy (CHECKs slice_count == 1).
  const SliceRef& sole_slice(std::size_t proxy) const;
  /// Append a split proxy's slice logs to `out`, merged back into
  /// reference in-log order.
  void merge_slice_logs(std::size_t proxy,
                        std::vector<PollRecord>& out) const;

  ShardedFleetConfig config_;
  std::size_t proxy_count_ = 0;
  std::size_t pair_count_ = 0;
  std::size_t largest_unit_pairs_ = 0;
  bool started_ = false;
  TimePoint now_ = 0.0;
  std::vector<TemporalRegistration> temporal_registrations_;
  std::vector<ValueRegistration> value_registrations_;
  std::vector<GroupRegistration> group_registrations_;
  std::vector<Shard> shards_;
  std::vector<std::vector<SliceRef>> slices_of_proxy_;  // ascending shard
  // Partition bookkeeping from build_shards, consumed by
  // wire_remote_relays and cleared after start(): one entry per
  // registered (proxy, uri) pair.
  struct PairInfo {
    std::size_t proxy = 0;
    std::string uri;
    std::size_t root = 0;   // colocation-component representative
    std::size_t shard = 0;  // hosting shard
  };
  std::vector<PairInfo> pairs_;
  // Per-proxy registration ranks keyed by ObjectId (position in the
  // proxy's registration order; empty for unsplit proxies): the
  // cross-slice tie-break merge_slice_logs uses to replay the reference's
  // same-instant record order for pairs that were allowed to split (see
  // the colocation rules in build_shards).
  std::vector<IdSlots<std::size_t>> reg_rank_;
  std::vector<double> window_costs_;  // per-shard hints, reused
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace broadway
