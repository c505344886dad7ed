#include "fleet/proxy_fleet.h"

#include <limits>

#include "http/extensions.h"
#include "util/check.h"

namespace broadway {
namespace {

// A fault-free delayed fan-out in flight: one message and one delivery
// event; every destination is delivered in list order at `deliver_at`.
struct RelayBatch {
  struct Dest {
    std::uint32_t to = 0;
    bool watched = false;  // counted in pending_watched_
  };
  std::shared_ptr<const Response> message;
  ObjectId object = kInvalidObjectId;
  TimePoint snapshot = 0.0;
  TimePoint deliver_at = 0.0;
  SmallVector<Dest, 8> dests;
};

}  // namespace

ProxyFleet::ProxyFleet(Simulator& sim, OriginServer& origin,
                       FleetConfig config)
    : sim_(sim), origin_(origin), config_(std::move(config)) {
  BROADWAY_CHECK_MSG(config_.relay_latency >= 0.0,
                     "relay latency " << config_.relay_latency);
  // A whole fleet hosts proxies 0..proxies-1; a shard slice hosts the
  // explicit (global) ids it was given.  Everything id-dependent — seeds,
  // schedule tags — uses the global id, so a proxy behaves identically
  // whichever fleet instance hosts it.
  proxy_ids_ = config_.proxy_ids;
  if (proxy_ids_.empty()) {
    BROADWAY_CHECK_MSG(config_.proxies >= 1,
                       "fleet needs >= 1 proxy, got " << config_.proxies);
    proxy_ids_.resize(config_.proxies);
    for (std::size_t i = 0; i < config_.proxies; ++i) proxy_ids_[i] = i;
  }
  // A slice cannot see the whole fleet's proxy count, so only the whole
  // fleet range-checks the crash schedule's proxy ids (the sharded driver
  // checks them against its own count before slicing).
  config_.faults.validate(config_.proxy_ids.empty()
                              ? config_.proxies
                              : std::numeric_limits<std::size_t>::max());
  faults_active_ = config_.faults.any();
  if (faults_active_) relay_rounds_.resize(proxy_ids_.size());
  engines_.reserve(proxy_ids_.size());
  for (std::size_t i = 0; i < proxy_ids_.size(); ++i) {
    EngineConfig engine_config = config_.engine;
    engine_config.seed = config_.engine.seed + proxy_ids_[i];
    engines_.push_back(
        std::make_unique<PollingEngine>(sim_, origin_, engine_config));
    engines_.back()->set_poll_log_retention(config_.poll_log_retention);
    // The listener feeds δ-groups as well as the relay channel, so it is
    // installed even when cooperative push is off.
    engines_.back()->set_poll_listener(
        [this, i](const PollEvent& event) { on_poll(i, event); });
  }
  if (config_.client_traffic) {
    std::vector<FleetClientTraffic::ProxyBinding> bindings;
    bindings.reserve(engines_.size());
    for (std::size_t i = 0; i < engines_.size(); ++i) {
      bindings.push_back({engines_[i].get(), proxy_ids_[i]});
    }
    client_traffic_ = std::make_unique<FleetClientTraffic>(
        sim_, origin_, std::move(bindings), *config_.client_traffic);
  }
}

FleetClientTraffic& ProxyFleet::client_traffic() {
  BROADWAY_CHECK_MSG(client_traffic_ != nullptr,
                     "fleet configured without client traffic");
  return *client_traffic_;
}

const FleetClientTraffic& ProxyFleet::client_traffic() const {
  BROADWAY_CHECK_MSG(client_traffic_ != nullptr,
                     "fleet configured without client traffic");
  return *client_traffic_;
}

PollingEngine& ProxyFleet::proxy(std::size_t index) {
  BROADWAY_CHECK_MSG(index < engines_.size(), "proxy " << index);
  return *engines_[index];
}

const PollingEngine& ProxyFleet::proxy(std::size_t index) const {
  BROADWAY_CHECK_MSG(index < engines_.size(), "proxy " << index);
  return *engines_[index];
}

// ---- registration ----------------------------------------------------------

void ProxyFleet::add_temporal_object(std::size_t proxy_index,
                                     const std::string& uri,
                                     std::unique_ptr<RefreshPolicy> policy) {
  proxy(proxy_index).add_temporal_object(uri, std::move(policy));
}

void ProxyFleet::add_temporal_object_everywhere(
    const std::string& uri, const PolicyFactory& make_policy) {
  BROADWAY_CHECK(make_policy != nullptr);
  for (auto& engine : engines_) {
    engine->add_temporal_object(uri, make_policy());
  }
}

void ProxyFleet::add_value_object(std::size_t proxy_index,
                                  const std::string& uri,
                                  AdaptiveValueTtrPolicy::Config config) {
  proxy(proxy_index).add_value_object(uri, config);
}

std::vector<CoordinatorHooks> ProxyFleet::hooks_by_proxy() {
  std::vector<CoordinatorHooks> hooks;
  hooks.reserve(engines_.size());
  for (auto& engine : engines_) {
    hooks.push_back(engine->coordinator_hooks());
  }
  return hooks;
}

TriggeredPollCoordinator& ProxyFleet::add_delta_group(
    std::vector<FleetMember> members, Duration delta_mutual) {
  auto group = std::make_unique<TriggeredPollCoordinator>(
      std::move(members), delta_mutual, engines_.size());
  for (const FleetMember& member : group->members()) {
    // Temporal-only, checked here so a bad member fails at registration
    // instead of aborting mid-simulation on the first trigger.
    BROADWAY_CHECK_MSG(engines_[member.proxy]->tracks_temporal(member.uri),
                       "member " << member.uri
                                 << " is not a temporal object of proxy "
                                 << member.proxy);
  }
  group->bind(hooks_by_proxy());
  if (config_.faults.has_crashes()) {
    // While a member's proxy is dark its designated sibling absorbs the
    // δ responsibility; the route is a pure function of (proxy, object,
    // time), so it re-homes on recovery by itself.
    group->set_failover(
        [this](std::size_t proxy_index, ObjectId object, TimePoint now) {
          return failover_target(proxy_index, object, now);
        });
  }
  // Subscribe the group to each member's (proxy, object) slot so the
  // notify path only visits groups actually watching the polled object.
  if (groups_by_member_.empty()) groups_by_member_.resize(engines_.size());
  for (std::size_t i = 0; i < group->members().size(); ++i) {
    const std::size_t proxy_index = group->members()[i].proxy;
    const ObjectId object = group->member_ids()[i];
    groups_by_member_[proxy_index][object].push_back(group.get());
  }
  groups_.push_back(std::move(group));
  return *groups_.back();
}

void ProxyFleet::start() {
  // Each engine starts under its own global id as the schedule tag: its
  // timers, their retries, and anything those events schedule later all
  // inherit the tag (Simulator tag inheritance), giving every event a
  // stable owning proxy.  Tags never affect single-simulator ordering;
  // the sharded driver uses them as the cross-shard tie-break.
  const std::uint32_t outer = sim_.schedule_tag();
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    sim_.set_schedule_tag(static_cast<std::uint32_t>(proxy_ids_[i]));
    engines_[i]->start();
  }
  // Crash/recovery events arm after every engine and before the client
  // streams, under the crashing proxy's own tag — a fixed relative order
  // each shard slice replays over its own proxies, like the engine loop
  // above.
  for (std::size_t i = 0; i < engines_.size(); ++i) {
    const std::vector<CrashWindow>* windows =
        config_.faults.windows_for(proxy_ids_[i]);
    if (windows == nullptr) continue;
    sim_.set_schedule_tag(static_cast<std::uint32_t>(proxy_ids_[i]));
    PollingEngine* engine = engines_[i].get();
    for (const CrashWindow& window : *windows) {
      sim_.schedule_at(window.crash_at, [engine] { engine->crash(); });
      sim_.schedule_at(window.recover_at, [engine] { engine->recover(); });
    }
  }
  sim_.set_schedule_tag(outer);
  // Client streams arm after every engine: the reference order is
  // "engines 0..N-1, then clients 0..N-1", and each shard slice replays
  // the same relative order over its own proxies, so same-instant FIFO
  // ties resolve identically under sharding.
  if (client_traffic_ != nullptr) client_traffic_->start();
}

// ---- the relay channel -----------------------------------------------------

void ProxyFleet::on_poll(std::size_t proxy_index, const PollEvent& event) {
  // Initial fetches are not relayed: every proxy fetches its own working
  // set once at start-up (siblings may not even have started yet).
  if (config_.cooperative_push && event.cause != PollCause::kInitial) {
    // The fan-out round is a pure function of the sender's poll history
    // (one round per relayable poll of this (proxy, object)), so every
    // shard layout derives identical fault-draw keys from it.
    const std::uint64_t round =
        faults_active_ ? next_relay_round(proxy_index, event.object) : 0;
    Destinations dests;
    for (std::size_t j = 0; j < engines_.size(); ++j) {
      if (j == proxy_index) continue;
      if (!engines_[j]->relay_eligible(event.object)) continue;
      dests.push_back(static_cast<std::uint32_t>(j));
    }
    std::shared_ptr<const Response> message;
    if (!dests.empty()) message = relay(proxy_index, dests, event, round);
    // Destinations hosted by other fleet instances (sharding): hand the
    // poll to the exporter, which fans out through the cross-shard
    // mailboxes.  Local and exported deliveries land on different
    // simulators, so their relative send order here is immaterial.
    if (relay_exporter_ != nullptr) {
      relay_exporter_(proxy_ids_[proxy_index], event, round,
                      std::move(message));
    }
  }
  if (event.observation != nullptr) {
    notify_groups(proxy_index, event.object, *event.observation);
  }
}

std::uint64_t ProxyFleet::next_relay_round(std::size_t proxy_index,
                                           ObjectId object) {
  return relay_rounds_[proxy_index][object]++;
}

std::shared_ptr<const Response> ProxyFleet::relay(std::size_t from,
                                                  const Destinations& dests,
                                                  const PollEvent& event,
                                                  std::uint64_t round) {
  if (!faults_active_ && config_.relay_latency <= 0.0) {
    // Synchronous relay: the receiving engines read the polling engine's
    // response in place — no copy anywhere on the path.
    for (const std::uint32_t to : dests) {
      ++relays_.sent;
      deliver(to, event.object, event.response, event.snapshot);
    }
    return nullptr;
  }
  // One copy per fan-out, shared by every destination: the PollEvent's
  // references die with the poll pipeline.
  auto message = std::make_shared<const Response>(event.response);
  if (faults_active_) {
    for (const std::uint32_t to : dests) {
      relay_attempt(proxy_ids_[from], to, event.object, message,
                    event.snapshot, round, /*attempt=*/0);
    }
    return message;
  }
  RelayBatch batch;
  batch.message = message;
  batch.object = event.object;
  batch.snapshot = event.snapshot;
  batch.deliver_at = sim_.now() + config_.relay_latency;
  for (const std::uint32_t to : dests) {
    ++relays_.sent;
    ++relays_.in_flight;
    // Deliveries to watched pairs feed the window send bound: push the
    // delivery time now, pop it when the message lands.
    const bool watched = watched_dest(to, event.object);
    if (watched) pending_watched_.insert(batch.deliver_at);
    batch.dests.push_back({to, watched});
  }
  sim_.schedule_after(
      config_.relay_latency, [this, batch = std::move(batch)] {
        for (const RelayBatch::Dest& dest : batch.dests) {
          --relays_.in_flight;
          if (dest.watched) {
            pending_watched_.erase(pending_watched_.find(batch.deliver_at));
          }
          deliver(dest.to, batch.object, *batch.message, batch.snapshot);
        }
      });
  return message;
}

void ProxyFleet::relay_attempt(std::size_t src_global, std::size_t to,
                               ObjectId object,
                               std::shared_ptr<const Response> message,
                               TimePoint snapshot, std::uint64_t round,
                               std::size_t attempt) {
  const FaultSchedule& faults = config_.faults;
  // The ledger invariant sent == delivered + in_flight + lost holds at
  // every instant: each attempt is counted sent here and ends up in
  // exactly one of the other three buckets below.
  ++relays_.sent;
  if (attempt > 0) ++relays_.retried;
  const std::uint64_t counter = faults.attempt_counter(round, attempt);
  const std::size_t dst_global = proxy_ids_[to];
  if (faults.relay_lost(object, src_global, dst_global, counter)) {
    ++relays_.lost;
    if (attempt >= faults.relay_retry_limit) return;  // abandoned
    // The retry chain belongs to the network substrate, not the sending
    // engine: a sender crash between attempts does not cancel it.
    const Duration backoff = faults.retry_backoff(attempt);
    const TimePoint fire = sim_.now() + backoff;
    pending_relay_retries_.insert(fire);
    sim_.schedule_after(
        backoff, [this, src_global, to, object, message, snapshot, round,
                  attempt, fire] {
          pending_relay_retries_.erase(pending_relay_retries_.find(fire));
          relay_attempt(src_global, to, object, message, snapshot, round,
                        attempt + 1);
        });
    return;
  }
  const Duration delay =
      config_.relay_latency +
      faults.relay_jitter(object, src_global, dst_global, counter);
  if (delay <= 0.0) {
    deliver(to, object, *message, snapshot);
    return;
  }
  ++relays_.in_flight;
  const bool watched = watched_dest(to, object);
  const TimePoint deliver_at = sim_.now() + delay;
  if (watched) pending_watched_.insert(deliver_at);
  sim_.schedule_after(
      delay, [this, to, object, message, snapshot, watched, deliver_at] {
        --relays_.in_flight;
        if (watched) pending_watched_.erase(pending_watched_.find(deliver_at));
        deliver(to, object, *message, snapshot);
      });
}

void ProxyFleet::deliver(std::size_t to, ObjectId object,
                         const Response& response, TimePoint snapshot) {
  ++relays_.delivered;
  if (faults_active_ && config_.faults.dark(proxy_ids_[to], sim_.now())) {
    // The dark proxy's process is down: the message arrived (it counts
    // as delivered — the network did its job) but nobody read it.  The
    // pure time-based test makes the drop decision independent of where
    // the crash event sits in this simulator's same-instant event order.
    ++relays_.dropped_dark;
    return;
  }
  if (!engines_[to]->apply_relay(object, response, snapshot)) return;
  ++relays_.applied;
  if (response.ok()) {
    // δ-groups hear about the relayed refresh: the receiving member's
    // copy advanced even though the origin poll happened elsewhere.
    TemporalPollObservation obs;
    obs.poll_time = sim_.now();
    obs.modified = true;
    obs.last_modified = wire_last_modified(response);
    notify_groups(to, object, obs);
  }
}

void ProxyFleet::notify_groups(std::size_t proxy_index, ObjectId object,
                               const TemporalPollObservation& obs) {
  if (groups_by_member_.empty()) return;  // no δ-groups registered
  const auto* groups = groups_by_member_[proxy_index].find(object);
  if (groups == nullptr) return;
  for (TriggeredPollCoordinator* group : *groups) {
    group->on_poll(proxy_index, object, obs);
  }
}

std::size_t ProxyFleet::failover_target(std::size_t proxy_index,
                                        ObjectId object,
                                        TimePoint now) const {
  if (!config_.faults.dark(proxy_ids_[proxy_index], now)) return proxy_index;
  // Designated sibling: the lowest-global-id live proxy tracking the
  // object as a self-scheduled temporal object.  Local index order is
  // ascending global id order, and the sharded driver colocates every
  // tracker of a grouped uri with the group when crash windows exist, so
  // each fleet instance resolves the same sibling the whole fleet would.
  for (std::size_t j = 0; j < engines_.size(); ++j) {
    if (j == proxy_index) continue;
    if (config_.faults.dark(proxy_ids_[j], now)) continue;
    if (!engines_[j]->relay_eligible(object)) continue;
    if (!engines_[j]->tracks_temporal(object)) continue;
    return j;
  }
  return TriggeredPollCoordinator::kNoLiveProxy;
}

// ---- accounting ------------------------------------------------------------

FleetOriginLoad ProxyFleet::origin_load() const {
  std::vector<const PollLog*> logs;
  logs.reserve(engines_.size());
  for (const auto& engine : engines_) {
    logs.push_back(&engine->poll_log());
  }
  return fleet_origin_load(logs);
}

std::size_t ProxyFleet::origin_polls() const {
  std::size_t total = 0;
  for (const auto& engine : engines_) {
    total += engine->polls_performed();
  }
  return total;
}

}  // namespace broadway
