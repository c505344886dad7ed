#include "proxy/polling_engine.h"

#include <algorithm>

#include "http/extensions.h"
#include "util/check.h"
#include "util/log.h"

namespace broadway {

PollingEngine::PollingEngine(Simulator& sim, OriginServer& origin)
    : PollingEngine(sim, origin, EngineConfig{}) {}

PollingEngine::PollingEngine(Simulator& sim, OriginServer& origin,
                             EngineConfig config)
    : sim_(sim),
      origin_(origin),
      uris_(origin.uri_table()),
      config_(config),
      cache_(uris_),
      poll_log_(uris_) {
  BROADWAY_CHECK(config_.rtt >= 0.0);
  BROADWAY_CHECK(config_.loss_probability >= 0.0 &&
                 config_.loss_probability < 1.0);
  BROADWAY_CHECK(config_.retry_delay > 0.0);
}

// ---- registration ----------------------------------------------------------

TrackedObject& PollingEngine::register_object(
    std::unique_ptr<TrackedObject> object, bool self_scheduled) {
  BROADWAY_CHECK_MSG(!started_, "register objects before start()");
  const ObjectId id = uris_.intern(object->uri());
  BROADWAY_CHECK_MSG(tracked(id) == nullptr,
                     "duplicate registration of " << object->uri());
  object->set_id(id);
  TrackedObject* raw = object.get();
  objects_by_id_[id] = std::move(object);
  // Keep the deterministic sorted-by-uri sweep order of the uri-keyed map
  // this structure replaces (registration is cold; insertion cost is
  // irrelevant).
  ordered_.insert(std::upper_bound(ordered_.begin(), ordered_.end(), raw,
                                   [](const TrackedObject* a,
                                      const TrackedObject* b) {
                                     return a->uri() < b->uri();
                                   }),
                  raw);
  if (self_scheduled) {
    raw->attach_task(std::make_unique<PeriodicTask>(sim_, [this, raw] {
      poll_self(*raw, PollCause::kScheduled);
      return -1.0;  // the pipeline reschedules explicitly
    }));
  }
  return *raw;
}

void PollingEngine::add_temporal_object(const std::string& uri,
                                        std::unique_ptr<RefreshPolicy> policy) {
  BROADWAY_CHECK(policy != nullptr);
  register_object(std::make_unique<TemporalObject>(uri, std::move(policy)),
                  /*self_scheduled=*/true);
}

MutualCoordinator& PollingEngine::add_coordinator(
    std::unique_ptr<MutualCoordinator> coordinator) {
  BROADWAY_CHECK(coordinator != nullptr);
  // bind() interns the member uris (unknown members fail here, not on the
  // first trigger mid-simulation); the subscriptions then feed the
  // per-object subscriber index the notify stage dispatches through.
  coordinator->bind(make_hooks());
  for (const ObjectId member : coordinator->subscriptions()) {
    temporal_object(member).add_subscriber(coordinator.get());
  }
  coordinators_.push_back(std::move(coordinator));
  return *coordinators_.back();
}

void PollingEngine::add_value_object(const std::string& uri,
                                     AdaptiveValueTtrPolicy::Config config) {
  register_object(std::make_unique<ValueObject>(uri, config),
                  /*self_scheduled=*/true);
}

void PollingEngine::add_virtual_group(
    std::vector<std::string> uris,
    std::unique_ptr<VirtualObjectPolicy> policy) {
  BROADWAY_CHECK_MSG(!started_, "register objects before start()");
  BROADWAY_CHECK(policy != nullptr);
  BROADWAY_CHECK_MSG(uris.size() == policy->function().arity(),
                     "group size must match the function arity");
  auto group = std::make_unique<VirtualGroup>();
  for (const std::string& uri : uris) {
    TrackedObject& member =
        register_object(std::make_unique<VirtualMemberObject>(uri),
                        /*self_scheduled=*/false);  // the group polls it
    group->members.push_back(static_cast<VirtualMemberObject*>(&member));
  }
  group->policy = std::move(policy);
  VirtualGroup* raw = group.get();
  raw->task = std::make_unique<PeriodicTask>(sim_, [this, raw] {
    poll_group(*raw, PollCause::kScheduled);
    return -1.0;
  });
  virtual_groups_.push_back(std::move(group));
}

void PollingEngine::add_partitioned_group(
    std::vector<std::string> uris,
    std::unique_ptr<PartitionedTolerancePolicy> policy) {
  BROADWAY_CHECK_MSG(!started_, "register objects before start()");
  BROADWAY_CHECK(policy != nullptr);
  BROADWAY_CHECK_MSG(uris.size() == policy->arity(),
                     "group size must match the function arity");
  auto group = std::make_unique<PartitionedGroup>();
  group->policy = std::move(policy);
  PartitionedTolerancePolicy* shared = group->policy.get();
  partitioned_groups_.push_back(std::move(group));

  for (std::size_t i = 0; i < uris.size(); ++i) {
    register_object(
        std::make_unique<PartitionedMemberObject>(uris[i], shared, i),
        /*self_scheduled=*/true);
  }
}

void PollingEngine::start() {
  BROADWAY_CHECK_MSG(!started_, "start() called twice");
  started_ = true;
  for (TrackedObject* object : ordered_) {
    if (object->self_scheduled()) {
      poll_self(*object, PollCause::kInitial);
    }
  }
  for (auto& group : virtual_groups_) {
    poll_group(*group, PollCause::kInitial);
  }
}

void PollingEngine::crash_and_recover() {
  crash();
  recover();
}

void PollingEngine::crash() {
  BROADWAY_CHECK_MSG(started_, "crash before start()");
  BROADWAY_CHECK_MSG(!dark_, "crash while already dark");
  dark_ = true;
  // In-flight retries die with the proxy: §3.1 recovery resets TTRs, it
  // does not resurrect requests that were pending at the crash.
  for (const EventId id : pending_retries_) {
    sim_.cancel(id);
  }
  pending_retries_.clear();
  // Every timer stops: a dark proxy polls nothing until recover() re-arms
  // the schedules from scratch.
  for (TrackedObject* object : ordered_) {
    object->clear_pending_retries();
    if (object->task() != nullptr) object->task()->stop();
  }
  for (auto& group : virtual_groups_) {
    group->task->stop();
  }
}

void PollingEngine::recover() {
  BROADWAY_CHECK_MSG(dark_, "recover without a crash");
  dark_ = false;
  // Shared partitioned policies reset before their members re-arm, so each
  // member's initial TTR reflects the recovered apportionment.
  for (auto& group : partitioned_groups_) {
    group->policy->reset();
  }
  for (TrackedObject* object : ordered_) {
    if (const auto ttr = object->reset()) {
      object->task()->reschedule(*ttr);
    }
  }
  for (auto& group : virtual_groups_) {
    group->policy->reset();
    group->task->reschedule(group->policy->initial_ttr());
  }
  for (auto& coordinator : coordinators_) coordinator->reset();
}

// ---- the poll pipeline -----------------------------------------------------

void PollingEngine::exchange(const TrackedObject& object,
                             std::optional<TimePoint> if_modified_since,
                             Response& out) {
  // Typed sideband: the interned id addresses the object at the origin;
  // no header rendering.  The uri still rides along (an assign into the
  // scratch request's retained capacity — no allocation steady-state) so
  // serialising a typed request for wire-level debugging stays lossless.
  scratch_request_.reset();
  scratch_request_.method = Method::kGet;
  scratch_request_.uri = object.uri();
  scratch_request_.object = object.id();
  scratch_request_.meta.active = true;
  if (if_modified_since) {
    scratch_request_.meta.if_modified_since =
        quantize_wire_seconds(*if_modified_since);
  }
  origin_.handle(scratch_request_, out);
}

void PollingEngine::store_response(const TrackedObject& object,
                                   const Response& response,
                                   TimePoint snapshot, TimePoint visible) {
  if (!response.ok()) return;  // 304: the cached copy is still current
  CacheEntry& entry = cache_.refresh_entry(object.id(), snapshot);
  entry.body = response.body;  // reuses the entry's allocation
  entry.snapshot_time = snapshot;
  entry.stored_time = visible;
  entry.last_modified = wire_last_modified(response);
  entry.value = wire_object_value(response);
}

void PollingEngine::schedule_retry(TrackedObject& object,
                                   const std::function<void()>& retry) {
  // The firing callback removes itself from the pending set by asking the
  // simulator which event is running — no per-retry id box to allocate.
  // The object keeps its own fire-time FIFO so next_send_time() can see
  // pending retries; the constant delay makes schedule order fire order.
  object.push_pending_retry(sim_.now() + config_.retry_delay);
  TrackedObject* raw = &object;
  const EventId id =
      sim_.schedule_after(config_.retry_delay, [this, raw, retry] {
        pending_retries_.erase(sim_.current_event());
        raw->pop_pending_retry();
        retry();
      });
  pending_retries_.insert(id);
}

bool PollingEngine::poll_object(TrackedObject& object, PollCause cause,
                                const std::function<void()>& retry) {
  const TimePoint now = sim_.now();
  const TimePoint previous = object.last_poll_completion();
  const bool initial = cause == PollCause::kInitial;

  // Stage 1: loss injection.  Draws are keyed (seed, object, attempt)
  // rather than taken from a shared sequential stream, so an object's loss
  // outcomes depend only on its own poll history — sharding the engine's
  // objects across slices cannot reorder them.
  const bool lost =
      config_.loss_probability > 0.0 &&
      hash_bernoulli(config_.seed, object.id(), object.next_loss_draw(),
                     config_.loss_probability);
  if (lost) {
    // Stage 4 for the failure case: the single record site (below) is
    // shared by every object kind, lost and successful alike.
    poll_log_.append(object.id(), cause, /*modified=*/false, /*failed=*/true,
                     now, now + config_.rtt);
    schedule_retry(object, retry);
    return false;
  }

  // Scratch response for this pipeline depth: a coordinator-triggered
  // poll re-enters poll_object() from stage 6 while this frame still
  // reads `response`, so each depth owns its slot.
  if (response_pool_.size() <= pipeline_depth_) {
    response_pool_.push_back(std::make_unique<Response>());
  }
  Response& response = *response_pool_[pipeline_depth_];
  ++pipeline_depth_;

  // Stage 2: the HTTP exchange.  Any poll made while no copy is cached —
  // the initial fetch, a demand fill serving a client that needs the body
  // *now*, or a retry after the initial fetch itself was lost — must be
  // an unconditional GET: a conditional one could answer 304 for a
  // never-modified object, and a 304 cannot refresh a copy that does not
  // exist, leaving the cache empty forever.
  const bool unconditional =
      initial || cache_.find(object.id()) == nullptr;
  exchange(object,
           unconditional ? std::nullopt : std::make_optional(previous),
           response);
  BROADWAY_CHECK_MSG(response.status != StatusCode::kNotFound,
                     object.uri() << " not present at origin");
  // Stages 3–6: the shared post-exchange pipeline.
  const PollOutcome outcome =
      apply_outcome(object, response, cause, now, now + config_.rtt,
                    previous);

  // Stage 7: fleet-level observer, after the engine's own state settled so
  // the listener (e.g. a relaying fleet) sees a consistent proxy.
  if (poll_listener_) {
    poll_listener_(PollEvent{
        object.id(), cause, response, now,
        outcome.observation ? &*outcome.observation : nullptr});
  }
  --pipeline_depth_;
  return true;
}

bool PollingEngine::apply_relay(ObjectId id, const Response& response,
                                TimePoint snapshot) {
  if (!started_) return false;  // relays may race engine start-up
  if (dark_) return false;      // a crashed proxy reads nothing off the wire
  if (!response.ok() && !response.not_modified()) return false;
  TrackedObject* object = tracked(id);
  if (object == nullptr || !object->self_scheduled()) return false;
  const TimePoint now = sim_.now();
  BROADWAY_CHECK_MSG(snapshot <= now, "relay snapshot " << snapshot
                                                        << " after " << now);
  const TimePoint previous = object->last_poll_completion();
  // A relay older than this proxy's own view carries nothing new (e.g. a
  // delayed delivery overtaken by an own poll).
  if (snapshot <= previous) return false;
  const auto relayed_last_modified = wire_last_modified(response);

  if (response.not_modified()) {
    // Validation relay: the sibling's 304 confirms the object unchanged
    // through `snapshot`.  Applicable only when it validates *this*
    // proxy's copy, i.e. the reported version is one this proxy has
    // already seen; otherwise this proxy missed an update and must poll
    // itself.
    if (!relayed_last_modified || *relayed_last_modified > previous) {
      return false;
    }
  } else {
    // Refresh relay.  Skip when the copy is already current (e.g. this
    // proxy polled at the same instant and the cross-relay arrived late):
    // applying would mis-report a modification to the policy.
    if (relayed_last_modified && *relayed_last_modified <= previous) {
      return false;
    }
    if (const CacheEntry* entry = cache_.find(id)) {
      if (relayed_last_modified && entry->last_modified &&
          *relayed_last_modified <= *entry->last_modified) {
        return false;
      }
    }
  }

  // The relay runs the same stages 3–6 as an own poll (no exchange, no
  // loss); store_response ignores 304s, exactly as for an own poll.  The
  // sibling's modification history — updates since *its* previous poll —
  // is restricted to the updates this proxy has not seen inside
  // on_response, so the response passes through by const reference,
  // uncopied.  All state is stamped with the true server snapshot: with
  // delivery latency the copy reflects state at `snapshot` and becomes
  // visible only `now`, and the fidelity evaluation must see exactly
  // that.
  apply_outcome(*object, response, PollCause::kRelay, snapshot, now,
                previous);
  return true;
}

PollingEngine::ClientRead PollingEngine::serve_client_read(ObjectId id) {
  ClientRead read;
  TrackedObject* object = tracked(id);
  if (object != nullptr) {
    // Closed-loop feedback: the refresh policies see per-object client
    // read counts (TemporalPollObservation::client_reads), hits and
    // misses alike — a miss is still demand.
    object->note_client_read();
  }
  read.dark = dark_;
  const CacheEntry* entry = cache_.lookup_counted(id);
  if (entry != nullptr) {
    // A dark proxy still serves from the surviving disk cache — possibly
    // stale, since no refresh has arrived since the crash.
    read.hit = true;
    read.snapshot = entry->snapshot_time;
    read.visible = entry->stored_time;
    return read;
  }
  if (object == nullptr) {
    // Untracked ids never fill: there is no policy, no trace and no
    // relay eligibility here — see ClientRead::MissReason.
    read.miss_reason = ClientRead::MissReason::kUntracked;
    return read;
  }
  if (dark_) {
    // Tracked but uncached while crashed: the proxy cannot reach the
    // origin, so the miss is an outage miss and never demand-fills.
    read.miss_reason = ClientRead::MissReason::kProxyDark;
    return read;
  }
  read.miss_reason = ClientRead::MissReason::kUncached;
  if (!config_.demand_fill || !started_ || !object->self_scheduled()) {
    return read;
  }
  // Demand fill: fetch through to the origin via the shared pipeline
  // (loss injection applies; a lost fill schedules the standard retry and
  // leaves this read an unfilled miss).  The re-lookup uses the uncounted
  // find() — one read, one hit/miss account entry.
  const TimePoint now = sim_.now();
  poll_self(*object, PollCause::kClientMiss);
  if (const CacheEntry* filled = cache_.find(id)) {
    read.filled = true;
    read.fill_latency = filled->stored_time - now;
    read.snapshot = filled->snapshot_time;
    read.visible = filled->stored_time;
  }
  return read;
}

PollOutcome PollingEngine::apply_outcome(TrackedObject& object,
                                         const Response& response,
                                         PollCause cause, TimePoint snapshot,
                                         TimePoint visible,
                                         TimePoint previous) {
  // Stage 3: refresh the cached copy.
  store_response(object, response, snapshot, visible);

  // Stage 4: record the poll.
  poll_log_.append(object.id(), cause, response.ok(), /*failed=*/false,
                   snapshot, visible);

  // Stage 5: policy update.
  PollOutcome outcome = object.on_response(response, snapshot, previous,
                                           cause);
  object.set_last_poll_completion(snapshot);
  if (outcome.ttr) {
    object.record_ttr(snapshot, *outcome.ttr);
    object.task()->reschedule(*outcome.ttr);
  }

  // Stage 6: coordinators see every non-initial temporal poll — including
  // triggered ones, so they can cascade (the δ-window test keeps cascades
  // finite).
  if (outcome.observation) {
    notify_coordinators(object, *outcome.observation);
  }
  return outcome;
}

void PollingEngine::notify_coordinators(TrackedObject& object,
                                        const TemporalPollObservation& obs) {
  for (MutualCoordinator* coordinator : object.subscribers()) {
    ++coordinator_notifies_;
    coordinator->on_poll(object.id(), obs);
  }
}

void PollingEngine::poll_self(TrackedObject& object, PollCause cause) {
  // Defensive: the fleet's failover routing keeps triggers away from dark
  // proxies, but a crashed engine must never poll regardless of caller.
  if (dark_) return;
  TrackedObject* raw = &object;
  poll_object(object, cause,
              [this, raw] { poll_self(*raw, PollCause::kRetry); });
}

void PollingEngine::poll_group(VirtualGroup& group, PollCause cause) {
  if (dark_) return;
  const TimePoint now = sim_.now();
  const bool initial = cause == PollCause::kInitial;
  VirtualGroup* raw = &group;
  const auto retry = [this, raw] { poll_group(*raw, PollCause::kRetry); };

  // A joint poll fetches every member; each fetch is one poll in the
  // paper's accounting (Fig. 7 counts individual server polls).
  std::vector<double>& values = group.values_scratch;
  values.clear();
  for (VirtualMemberObject* member : group.members) {
    if (!poll_object(*member, cause, retry)) {
      return;  // lost: the whole joint poll retries
    }
    values.push_back(member->last_value());
  }

  const Duration ttr = initial ? group.policy->initial_ttr()
                               : group.policy->next_ttr(now, values);
  group.task->reschedule(ttr);
}

// ---- coordinator hooks -----------------------------------------------------

CoordinatorHooks PollingEngine::make_hooks() {
  // All id-keyed: the δ-window test and trigger path resolve the tracked
  // object by a vector index, never a uri hash.  `resolve` is the one
  // string-keyed entry point, used once per member at bind time.
  CoordinatorHooks hooks;
  hooks.resolve = [this](const std::string& uri) {
    const ObjectId id = uris_.find(uri);
    BROADWAY_CHECK_MSG(tracks_temporal(id), "unknown temporal object " << uri);
    return id;
  };
  hooks.next_poll_time = [this](ObjectId id) {
    return temporal_object(id).task()->next_fire_time();
  };
  hooks.last_poll_time = [this](ObjectId id) {
    return temporal_object(id).last_poll_completion();
  };
  hooks.trigger_poll = [this](ObjectId id) {
    poll_self(temporal_object(id), PollCause::kTriggered);
  };
  return hooks;
}

TrackedObject& PollingEngine::temporal_object(ObjectId id) {
  TrackedObject* object = tracked(id);
  BROADWAY_CHECK_MSG(object != nullptr && object->temporal(),
                     "unknown temporal object id " << id);
  return *object;
}

// ---- accessors -------------------------------------------------------------

const std::vector<std::pair<TimePoint, Duration>>& PollingEngine::ttr_series(
    const std::string& uri) const {
  static const std::vector<std::pair<TimePoint, Duration>> kEmpty;
  const TrackedObject* object = tracked(uris_.find(uri));
  return object == nullptr ? kEmpty : object->ttr_series();
}

}  // namespace broadway
