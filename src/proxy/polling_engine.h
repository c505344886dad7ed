// The proxy's polling engine: binds refresh policies, mutual-consistency
// coordinators and value-domain policies to the simulator and the origin
// server, and keeps the poll log the evaluation is computed from.
//
// One engine models one proxy.  Objects are registered with a policy, the
// engine performs the initial fetch and all subsequent `if-modified-since`
// refreshes, coordinators may force extra ("triggered") polls, and every
// poll is recorded with its cause (paper Figs. 5–6 account base polls and
// extras separately).
//
// Architecture: every registered uri becomes a TrackedObject (see
// tracked_object.h) and every poll of every object kind — temporal, value,
// virtual-group member, partitioned-group member — runs through the single
// pipeline in poll_object(): exchange → loss/retry → store → record →
// policy update → coordinator notify.  Records land in an indexed PollLog
// (see poll_log.h), whose per-object queries are O(records-for-object) or
// O(1) instead of scans of the global log.
//
// Hot-path representation: uris are interned once at registration into the
// origin's shared UriTable; the pipeline carries dense ObjectId handles
// into the cache, the poll log, the coordinator dispatch and the fleet
// relay path.  The engine's own tables (tracked objects, cache entries,
// poll-log indices) are IdSlots keyed by those ids, so an engine costs
// O(objects it tracks) however large the shared table is — an engine
// slice of a sharded fleet tracks a few of the origin's ids.
// Coordinator notification is subscription-routed: each
// TrackedObject carries the list of coordinators watching it (built at
// add_coordinator time from the coordinator's interned member set), so the
// notify stage costs O(subscribers-of-this-object) — nothing at all for
// ungrouped objects — instead of a string-keyed virtual call per attached
// coordinator per poll.  Exchanges use the typed wire sideband
// (RequestMeta/ResponseMeta, see message.h) — the values a real proxy
// would render into and parse out of the `if-modified-since` and
// extension headers — with a per-engine scratch Request and a small pool
// of scratch Responses (one per trigger-cascade depth), so a steady-state
// poll allocates nothing.  tests/test_wire_differential.cpp pins the
// typed response against the origin's rendered headers.
//
// Failure model:
//  * lost polls — with `loss_probability`, a poll fails (no response); the
//    engine retries after `retry_delay`, recording the failure;
//  * proxy crash — `crash_and_recover()` resets every policy to TTR_min
//    exactly as §3.1 prescribes ("recovering from a proxy failure simply
//    involves resetting the TTRs of all objects to TTR_min").  Retries
//    pending at the crash die with the proxy: recovery resets TTRs, it
//    does not resurrect in-flight requests.
//
// Latency model: the paper fixes network latency and studies consistency
// mechanisms, not network dynamics (§6.1.1).  A poll here is atomic at its
// firing instant with `rtt` accounted in the poll record (snapshot_time =
// fire time, complete_time = fire time + rtt): poll *scheduling* is
// unaffected by latency, exactly as with the paper's fixed-latency
// assumption, while evaluators still see when the cached copy actually
// switched.
#pragma once

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "consistency/coordinator.h"
#include "consistency/partitioned.h"
#include "consistency/types.h"
#include "consistency/value_ttr.h"
#include "consistency/virtual_object.h"
#include "origin/origin_server.h"
#include "proxy/cache.h"
#include "proxy/poll_log.h"
#include "proxy/tracked_object.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "util/id_slots.h"
#include "util/rng.h"
#include "util/uri_table.h"

namespace broadway {

/// Engine configuration.
struct EngineConfig {
  /// Fixed round-trip time added between a poll's snapshot and the moment
  /// the refreshed copy is visible to clients.
  Duration rtt = 0.0;
  /// Probability that any given poll is lost (failure injection).
  double loss_probability = 0.0;
  /// Delay before retrying a lost poll.
  Duration retry_delay = 5.0;
  /// Seed for the loss-injection stream.
  std::uint64_t seed = 42;
  /// Demand-fill the client miss path: a client read that misses the
  /// cache fetches the object from the origin (PollCause::kClientMiss)
  /// through the same pipeline as a policy poll — the filled copy enters
  /// the cache, the poll log, the relay fan-out and the policy schedule.
  /// Off by default: the paper's proxy polls by policy only.
  bool demand_fill = false;
};

/// One successful origin poll, as seen by a fleet-level observer.  All
/// references point at pipeline-owned state and are valid only for the
/// duration of the listener call — copy what must outlive it.
struct PollEvent {
  /// Interned id of the polled object in the engine's shared table.
  ObjectId object;
  PollCause cause;
  /// The origin's response (200 or 304) to this poll.
  const Response& response;
  /// Fire instant of the poll (server-state snapshot).
  TimePoint snapshot;
  /// Coordinator observation for non-initial temporal polls; nullptr
  /// otherwise.
  const TemporalPollObservation* observation;
};

/// The polling engine.
class PollingEngine {
 public:
  using PollListener = std::function<void(const PollEvent&)>;

  PollingEngine(Simulator& sim, OriginServer& origin);
  PollingEngine(Simulator& sim, OriginServer& origin, EngineConfig config);

  PollingEngine(const PollingEngine&) = delete;
  PollingEngine& operator=(const PollingEngine&) = delete;

  // ---- registration (before start()) ----

  /// Track a temporal-domain object with the given refresh policy.
  void add_temporal_object(const std::string& uri,
                           std::unique_ptr<RefreshPolicy> policy);

  /// Attach a mutual-consistency coordinator.  Its member uris must all be
  /// registered temporal objects *already* — they are interned here and
  /// the engine subscribes the coordinator to each member, so later polls
  /// of those objects (and only those) notify it.  Multiple coordinators
  /// may coexist (disjoint or overlapping groups).
  MutualCoordinator& add_coordinator(
      std::unique_ptr<MutualCoordinator> coordinator);

  /// Track a value-domain object with its own Δv policy.
  void add_value_object(const std::string& uri,
                        AdaptiveValueTtrPolicy::Config config);

  /// Track a group jointly through a virtual object (adaptive Mv).  Every
  /// member is fetched on each joint poll; each fetch counts as one poll.
  void add_virtual_group(std::vector<std::string> uris,
                         std::unique_ptr<VirtualObjectPolicy> policy);

  /// Track a group via partitioned tolerances (linear f).  Members poll
  /// independently; the policy re-apportions δ across them as rates
  /// evolve.
  void add_partitioned_group(std::vector<std::string> uris,
                             std::unique_ptr<PartitionedTolerancePolicy> policy);

  /// Fetch every registered object once (PollCause::kInitial) and arm the
  /// refresh timers.  Call exactly once, before running the simulator.
  void start();

  /// True when `uri` is registered as a temporal-domain object — the only
  /// kind coordinator hooks (and thus δ-group membership) apply to.  The
  /// uri form is the δ-group registration check; an unknown uri or id is
  /// not tracked.
  bool tracks_temporal(const std::string& uri) const {
    return tracks_temporal(uris_.find(uri));
  }
  bool tracks_temporal(ObjectId id) const {
    const TrackedObject* object = tracked(id);
    return object != nullptr && object->temporal();
  }

  /// True when a sibling relay of `object` could be applied here: tracked
  /// and self-scheduled (group-polled members follow their group's joint
  /// schedule and cannot absorb individual relays).
  bool relay_eligible(ObjectId id) const {
    const TrackedObject* object = tracked(id);
    return object != nullptr && object->self_scheduled();
  }

  /// Earliest future instant at which `id` can start an origin poll from
  /// its own schedule: its refresh-timer fire or the soonest pending
  /// lost-poll retry, whichever comes first.  kTimeInfinity when the
  /// object is unknown here or has neither armed.  Triggered polls are
  /// deliberately excluded — they happen *at* another object's poll or a
  /// relay delivery, so a lower bound over those instants already covers
  /// them.  Used by the sharded fleet's adaptive lookahead windows.
  TimePoint next_send_time(ObjectId id) const {
    const TrackedObject* object = tracked(id);
    if (object == nullptr) return kTimeInfinity;
    TimePoint bound = object->next_pending_retry();
    if (object->task() != nullptr) {
      bound = std::min(bound, object->task()->next_fire_time());
    }
    return bound;
  }

  /// Observe every *successful origin poll* of this engine (relay
  /// applications do not fire the listener, so fleet-level relaying cannot
  /// storm).  One listener per engine; the fleet layer multiplexes.
  void set_poll_listener(PollListener listener) {
    poll_listener_ = std::move(listener);
  }

  /// Engine facilities for coordination layers that span engines (the
  /// proxy fleet's cross-proxy δ-groups).  Same hooks engine-local
  /// coordinators receive from add_coordinator().
  CoordinatorHooks coordinator_hooks() { return make_hooks(); }

  /// The shared intern table (the origin's).
  const UriTable& uri_table() const { return uris_; }

  // ---- runtime ----

  /// Simulate a proxy crash + recovery at the current instant: every
  /// policy and coordinator resets; every timer restarts at its policy's
  /// initial TTR; retries pending for polls lost before the crash are
  /// dropped.  Cached payloads survive (they are on disk); learned polling
  /// state does not.  Equivalent to crash() immediately followed by
  /// recover().
  void crash_and_recover();

  /// Take the proxy dark at the current instant: every poll timer stops,
  /// pending retries die, and until recover() the engine refuses new work
  /// — client reads are served from the (possibly stale) disk cache or
  /// miss with MissReason::kProxyDark, and never demand-fill.  The fleet
  /// layer additionally drops relays addressed to a dark proxy.  Used by
  /// the fault-injection schedule (fleet/faults.h).
  void crash();

  /// Bring a dark proxy back: the §3.1 recovery semantics of
  /// crash_and_recover() — every policy and coordinator resets, every
  /// timer restarts at its policy's initial TTR.
  void recover();

  /// True between crash() and recover().
  bool dark() const { return dark_; }

  /// Apply a response relayed by a sibling proxy (cooperative push),
  /// recording the refresh as PollCause::kRelay (no origin message):
  ///  * a 200 relay refreshes the cached copy and runs the normal
  ///    policy/coordinator stages as if this proxy had polled the origin
  ///    at this instant.  The relayed X-Modification-History — updates
  ///    since the *sibling's* previous poll — is restricted to the updates
  ///    this proxy has not yet seen (inside TrackedObject::on_response, so
  ///    the response itself is never copied), and violation inference
  ///    matches an own poll;
  ///  * a 304 relay is a *validation*: when its Last-Modified names a
  ///    version this proxy has already seen, the copy is confirmed current
  ///    through the relayed snapshot and the policy observes an unmodified
  ///    poll.
  /// `snapshot` is the server-state instant of the relayed response — the
  /// relaying proxy's poll fire time (PollEvent::snapshot).  With a
  /// non-zero relay latency it lies before now; the refresh is recorded
  /// with that true snapshot and becomes visible at now, so the fidelity
  /// evaluation never credits the sibling with server state it was not
  /// actually sent.  Returns false (no state change) when the object is
  /// not tracked here, is group-scheduled, the engine has not started, the
  /// cached copy is already current (200) or not validated by the relay
  /// (304).
  bool apply_relay(ObjectId id, const Response& response, TimePoint snapshot);

  /// One client read served by this proxy at the current instant.
  struct ClientRead {
    /// Why a read missed.  "Object not tracked by this proxy" and
    /// "tracked but not yet cached" are different conditions: only the
    /// latter can demand-fill (an untracked id has no policy, no trace
    /// registration and no relay eligibility here — filling it would
    /// bypass the consistency machinery entirely, so untracked ids never
    /// fill; register the object first).
    enum class MissReason {
      kNone,       ///< the read hit
      kUntracked,  ///< id not registered with this proxy
      kUncached,   ///< tracked, but no cached copy yet
      kProxyDark,  ///< no cached copy and the proxy is crashed (dark)
    };

    bool hit = false;
    MissReason miss_reason = MissReason::kNone;
    /// True when the proxy was dark (crashed) at the read: a hit was
    /// served from the surviving disk cache with no refreshes arriving, a
    /// miss could not demand-fill (MissReason::kProxyDark).
    bool dark = false;
    /// True when a miss was demand-filled from the origin just now
    /// (EngineConfig::demand_fill): snapshot/visible below describe the
    /// freshly fetched copy.  The read still counts as a miss — the
    /// client paid the origin round-trip, not a cache hit.
    bool filled = false;
    /// Client-observed fill latency (visible - request instant) of a
    /// filled miss; 0 otherwise.
    Duration fill_latency = 0.0;
    /// Server-state instant of the served copy.  A relay-delivered copy
    /// reports the *relayed* snapshot (the sender's poll fire time) —
    /// delivery latency is never credited as freshness.
    TimePoint snapshot = 0.0;
    /// When the copy became usable at this proxy (snapshot + rtt for own
    /// polls; the delivery instant for relays).
    TimePoint visible = 0.0;
  };

  /// Serve a client read of `id` from the cache, counting it in the
  /// cache's hit/miss accounting.  The request hook of the client traffic
  /// layer (src/client/).  With EngineConfig::demand_fill unset a miss is
  /// only recorded (the paper's proxy polls by policy, it does not fault
  /// on demand); with it set, a miss on a tracked self-scheduled object
  /// fetches through to the origin (PollCause::kClientMiss) via the
  /// shared poll pipeline — loss injection applies (a lost fill leaves
  /// the miss unfilled and retries like any lost poll), and the filled
  /// copy relays to siblings and updates the policy schedule like any
  /// other poll.  Untracked ids and group-polled members never fill (see
  /// ClientRead::MissReason).
  ClientRead serve_client_read(ObjectId id);

  // ---- results ----

  /// The indexed poll log (vector-compatible reads; see PollLog).
  const PollLog& poll_log() const { return poll_log_; }

  /// Bound poll-log memory for long-horizon runs: keep at most `window`
  /// records per object (0 = unlimited, the default).  Counters stay
  /// exact; per-object record series are truncated to the window — see
  /// PollLog::set_retention_window.
  void set_poll_log_retention(std::size_t window) {
    poll_log_.set_retention_window(window);
  }

  // Totals over all objects.  Per-object counters and series are on
  // poll_log(), keyed by ObjectId.  All O(1).

  /// Successful polls excluding initial fetches — the paper's "number of
  /// polls" metric.
  std::size_t polls_performed() const { return poll_log_.polls_performed(); }

  /// Triggered polls only (the mutual-consistency overhead).
  std::size_t triggered_polls() const { return poll_log_.triggered_polls(); }

  /// Successful demand fills (client misses fetched through to the
  /// origin).
  std::size_t demand_fills() const { return poll_log_.demand_fills(); }

  /// Failed (lost) poll attempts.
  std::size_t failed_polls() const { return poll_log_.failed_polls(); }

  /// Coordinator notifications dispatched so far (one per coordinator
  /// `on_poll` call).  An engine with no subscribed coordinators performs
  /// none — the zero-coordinator pin in the dispatch tests.
  std::uint64_t coordinator_notifies() const { return coordinator_notifies_; }

  /// Coordinators subscribed to `id`'s polls (0 for unknown ids).
  std::size_t subscriber_count(ObjectId id) const {
    const TrackedObject* object = tracked(id);
    return object == nullptr ? 0 : object->subscribers().size();
  }

  /// TTR value after each poll of `uri` (Fig. 4(b) series).  Empty for
  /// unknown uris and for group-polled members (whose schedule is the
  /// group's), so reporting over mixed registries never aborts a run.
  const std::vector<std::pair<TimePoint, Duration>>& ttr_series(
      const std::string& uri) const;

  const ProxyCache& cache() const { return cache_; }
  ProxyCache& cache() { return cache_; }

 private:
  // A group tracked through a virtual object: members are fetched jointly
  // and the group policy schedules the next joint poll.
  struct VirtualGroup {
    std::vector<VirtualMemberObject*> members;  // owned by objects_by_id_
    std::unique_ptr<VirtualObjectPolicy> policy;
    std::unique_ptr<PeriodicTask> task;
    std::vector<double> values_scratch;  // reused across joint polls
  };

  // A partitioned-tolerance group: members self-schedule against the
  // shared policy; the group record owns that policy.
  struct PartitionedGroup {
    std::unique_ptr<PartitionedTolerancePolicy> policy;
  };

  Simulator& sim_;
  OriginServer& origin_;
  UriTable& uris_;  // the origin's table
  EngineConfig config_;
  ProxyCache cache_;
  bool started_ = false;
  // True between crash() and recover(): timers are stopped and the engine
  // refuses new work (polls, fills, triggers).
  bool dark_ = false;

  // unique_ptr elements: scheduled tasks and groups capture raw object
  // pointers, which must survive container growth.  Keyed by ObjectId in
  // sparse slots, so an engine slice pays for the objects it tracks, not
  // for every id of the shared table; ordered_ repeats them sorted by uri
  // for deterministic start/recovery sweeps (the iteration order of the
  // uri-keyed map this replaces).
  IdSlots<std::unique_ptr<TrackedObject>> objects_by_id_;
  std::vector<TrackedObject*> ordered_;
  std::vector<std::unique_ptr<MutualCoordinator>> coordinators_;
  std::vector<std::unique_ptr<VirtualGroup>> virtual_groups_;
  std::vector<std::unique_ptr<PartitionedGroup>> partitioned_groups_;

  PollLog poll_log_;
  // Coordinator on_poll calls dispatched (both dispatch modes).
  std::uint64_t coordinator_notifies_ = 0;
  // Retry events scheduled for lost polls; cancelled on crash.
  std::unordered_set<EventId> pending_retries_;
  // Fleet-level observer of successful origin polls (may be empty).
  PollListener poll_listener_;

  // Scratch messages for the in-process exchange.  The request is reused
  // within exchange() (no callbacks run inside origin_.handle); responses
  // are pooled per pipeline depth, because a coordinator-triggered poll
  // re-enters poll_object() while the outer frame still reads its
  // response.
  Request scratch_request_;
  std::vector<std::unique_ptr<Response>> response_pool_;
  std::size_t pipeline_depth_ = 0;

  // ---- the poll pipeline ----

  // Poll one object through the shared pipeline.  `retry` is invoked
  // (after retry_delay) when loss injection eats the poll: for
  // self-scheduled objects it re-polls the object, for virtual-group
  // members it re-polls the whole group.  Returns false on loss.
  bool poll_object(TrackedObject& object, PollCause cause,
                   const std::function<void()>& retry);

  // Poll a self-scheduled object (retry closure re-polls it).
  void poll_self(TrackedObject& object, PollCause cause);

  // Jointly poll every member of a virtual group, then reschedule it.
  void poll_group(VirtualGroup& group, PollCause cause);

  // Perform the HTTP exchange into `out` (no failure injection; the
  // pipeline draws losses before calling this).
  void exchange(const TrackedObject& object,
                std::optional<TimePoint> if_modified_since, Response& out);

  // Stages 3–6 of the pipeline, shared by own polls and applied relays:
  // refresh the cache, record the poll, update the policy/schedule, and
  // notify the subscribed coordinators.  `snapshot` is the server-state
  // instant the response reflects, `visible` when the refreshed copy is
  // usable at the proxy, `previous` the completion instant of the
  // preceding poll.  Returns the outcome so poll_object's fleet-listener
  // stage can hand the observation on.
  PollOutcome apply_outcome(TrackedObject& object, const Response& response,
                            PollCause cause, TimePoint snapshot,
                            TimePoint visible, TimePoint previous);

  // Stage 6: coordinator dispatch.  Walks the object's subscriber index
  // (empty for ungrouped objects — the loop body never runs).
  void notify_coordinators(TrackedObject& object,
                           const TemporalPollObservation& obs);

  // Refresh the cached copy: `snapshot` is the server-state instant the
  // response reflects, `visible` when it is usable at the proxy (snapshot
  // + rtt for own polls; the delivery instant for relays).
  void store_response(const TrackedObject& object, const Response& response,
                      TimePoint snapshot, TimePoint visible);

  void schedule_retry(TrackedObject& object,
                      const std::function<void()>& retry);

  // Register an object under its uri; attaches a self-scheduling task
  // unless the object is group-polled.
  TrackedObject& register_object(std::unique_ptr<TrackedObject> object,
                                 bool self_scheduled);

  const TrackedObject* tracked(ObjectId id) const {
    const auto* object = objects_by_id_.find(id);
    return object == nullptr ? nullptr : object->get();
  }
  TrackedObject* tracked(ObjectId id) {
    auto* object = objects_by_id_.find(id);
    return object == nullptr ? nullptr : object->get();
  }

  CoordinatorHooks make_hooks();
  TrackedObject& temporal_object(ObjectId id);
};

}  // namespace broadway
