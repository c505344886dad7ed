#include "fleet/sharded_fleet.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>
#include <utility>

#include "util/check.h"

namespace broadway {
namespace {

/// Union-find over dense indices (path halving; the fleet is small, but
/// the structure keeps group closure obviously correct).
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = i;
  }
  std::size_t find(std::size_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Smaller root wins, so a component's representative is its smallest
    // member — handy for deterministic shard numbering.
    if (b < a) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

ShardedFleet::ShardedFleet(ShardedFleetConfig config)
    : config_(std::move(config)) {
  BROADWAY_CHECK_MSG(config_.fleet.proxy_ids.empty(),
                     "ShardedFleet assigns proxies to shards itself; leave "
                     "FleetConfig::proxy_ids empty");
  BROADWAY_CHECK_MSG(config_.fleet.proxies >= 1,
                     "fleet needs >= 1 proxy, got " << config_.fleet.proxies);
  BROADWAY_CHECK(config_.origin_setup != nullptr);
  // Validate the fault schedule against the whole fleet here: the slice
  // fleets see proxy_ids and cannot bound the global id range themselves.
  config_.fleet.faults.validate(config_.fleet.proxies);
  proxy_count_ = config_.fleet.proxies;
}

ShardedFleet::~ShardedFleet() = default;

// ---- registration ----------------------------------------------------------

void ShardedFleet::add_temporal_object(std::size_t proxy,
                                       const std::string& uri,
                                       PolicyFactory make_policy) {
  BROADWAY_CHECK_MSG(!started_, "registration after start()");
  BROADWAY_CHECK_MSG(proxy < proxy_count_, "proxy " << proxy);
  BROADWAY_CHECK(make_policy != nullptr);
  temporal_registrations_.push_back({proxy, uri, std::move(make_policy)});
}

void ShardedFleet::add_temporal_object_everywhere(const std::string& uri,
                                                  PolicyFactory make_policy) {
  BROADWAY_CHECK(make_policy != nullptr);
  for (std::size_t proxy = 0; proxy < proxy_count_; ++proxy) {
    add_temporal_object(proxy, uri, make_policy);
  }
}

void ShardedFleet::add_value_object(std::size_t proxy, const std::string& uri,
                                    AdaptiveValueTtrPolicy::Config config) {
  BROADWAY_CHECK_MSG(!started_, "registration after start()");
  BROADWAY_CHECK_MSG(proxy < proxy_count_, "proxy " << proxy);
  value_registrations_.push_back({proxy, uri, config});
}

void ShardedFleet::add_delta_group(std::vector<FleetMember> members,
                                   Duration delta_mutual) {
  BROADWAY_CHECK_MSG(!started_, "registration after start()");
  TriggeredPollCoordinator::validate(members, delta_mutual, proxy_count_);
  group_registrations_.push_back({std::move(members), delta_mutual});
}

const TriggeredPollCoordinator& ShardedFleet::delta_group(
    std::size_t index) const {
  BROADWAY_CHECK_MSG(started_, "delta_group() before start()");
  BROADWAY_CHECK_MSG(index < group_registrations_.size(),
                     "δ-group " << index);
  return *group_registrations_[index].bound;
}

// ---- shard construction ----------------------------------------------------

void ShardedFleet::build_shards() {
  // ---- enumerate registered (proxy, uri) pairs ----
  // Pairs are the atoms of the layout: they move independently, modulo
  // the colocation closure below.  Pair indices follow registration-scan
  // order, so everything derived from them is deterministic.
  pairs_.clear();
  std::map<std::pair<std::size_t, std::string>, std::size_t> pair_index;
  auto intern_pair = [&](std::size_t proxy, const std::string& uri) {
    auto [it, inserted] =
        pair_index.try_emplace({proxy, uri}, pairs_.size());
    if (inserted) pairs_.push_back({proxy, uri, 0, 0});
    return it->second;
  };
  for (const TemporalRegistration& reg : temporal_registrations_) {
    intern_pair(reg.proxy, reg.uri);
  }
  for (const ValueRegistration& reg : value_registrations_) {
    intern_pair(reg.proxy, reg.uri);
  }

  // ---- pair-level colocation closure ----
  // (a) A δ-group's members coordinate synchronously (one member's poll
  //     triggers sibling polls in the same event): one unit.
  UnionFind pair_components(pairs_.size());
  std::map<std::string, std::size_t> uri_index;
  for (const GroupRegistration& group : group_registrations_) {
    std::size_t first = SIZE_MAX;
    for (const FleetMember& member : group.members) {
      const auto it = pair_index.find({member.proxy, member.uri});
      BROADWAY_CHECK_MSG(it != pair_index.end(),
                         "δ-group member " << member.uri
                                           << " is not a registered object "
                                              "of proxy "
                                           << member.proxy);
      if (first == SIZE_MAX) {
        first = it->second;
      } else {
        pair_components.unite(first, it->second);
      }
      uri_index.try_emplace(member.uri, uri_index.size());
    }
  }
  // (b) Group-sibling *objects* colocate per proxy, transitively across
  //     chained groups: one cascade can relay several sibling objects to
  //     the same destination proxy in one event, and those records must
  //     land in one slice log so the per-proxy merge can preserve the
  //     reference order (the cross-slice tie-break replays registration
  //     order, which same-instant cascade records do not follow).
  UnionFind uri_components(uri_index.size());
  for (const GroupRegistration& group : group_registrations_) {
    const std::size_t first = uri_index.at(group.members[0].uri);
    for (std::size_t i = 1; i < group.members.size(); ++i) {
      uri_components.unite(first, uri_index.at(group.members[i].uri));
    }
  }
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> sibling_first;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    const auto it = uri_index.find(pairs_[i].uri);
    if (it == uri_index.end()) continue;  // not a grouped object anywhere
    const auto key =
        std::make_pair(pairs_[i].proxy, uri_components.find(it->second));
    const auto [slot, inserted] = sibling_first.try_emplace(key, i);
    if (!inserted) pair_components.unite(slot->second, i);
  }
  // Joins, per proxy, every pair for which `joins(i)` holds.
  const auto join_within_proxy = [&](const auto& joins) {
    std::vector<std::size_t> first_of_proxy(proxy_count_, SIZE_MAX);
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      if (!joins(i)) continue;
      std::size_t& first = first_of_proxy[pairs_[i].proxy];
      if (first == SIZE_MAX) {
        first = i;
      } else {
        pair_components.unite(first, i);
      }
    }
  };
  // (b2) Cooperative push couples every relay-receiving pair of a proxy:
  //      applying a relay reschedules the receiver's refresh timer, and
  //      one send burst delivers to several of a proxy's objects at the
  //      same instant (the latency is a fleet constant), so those timers
  //      synchronise and later fire together.  Their same-instant poll
  //      order is the reference's schedule order — reproducible only
  //      inside one slice — so under push a proxy's pairs whose uri a
  //      second proxy also tracks form one unit.  Single-tracker pairs
  //      never receive a relay and stay free to split; they are also
  //      exactly the pairs that add no cross-shard traffic.
  if (config_.fleet.cooperative_push) {
    std::map<std::string, std::size_t> tracker_count;
    for (const PairInfo& pair : pairs_) ++tracker_count[pair.uri];
    join_within_proxy([&](std::size_t i) {
      return tracker_count.at(pairs_[i].uri) >= 2;
    });
  }
  // (c) Client request streams read a proxy's whole cache through one
  //     engine binding, so client traffic pins each proxy together.  The
  //     whole-proxy layout (shards = 0) joins each proxy's pairs too.
  if (config_.fleet.client_traffic || config_.shards == 0) {
    join_within_proxy([](std::size_t) { return true; });
  }
  // (d) Crash/recovery is engine-wide: recovery re-arms every object of
  //     the proxy in registration order, and the re-armed timers fire in
  //     same-instant bursts (shared reset TTRs) whose reference order is
  //     only reproducible inside one slice log — a proxy with crash
  //     windows keeps all its pairs together.
  if (config_.fleet.faults.has_crashes()) {
    join_within_proxy([&](std::size_t i) {
      return config_.fleet.faults.windows_for(pairs_[i].proxy) != nullptr;
    });
    // (e) Sibling failover routes a dark owner's δ-poll to the
    //     lowest-global-id live tracker of the object, so resolving the
    //     choice needs every tracker's engine (liveness, eligibility) on
    //     the group's slice: all trackers of a grouped uri join the
    //     group's component (a group member is itself a tracker, which
    //     anchors the union to rule (a)'s component).
    std::map<std::string, std::size_t> first_tracker;
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      if (uri_index.find(pairs_[i].uri) == uri_index.end()) continue;
      const auto [slot, inserted] =
          first_tracker.try_emplace(pairs_[i].uri, i);
      if (!inserted) pair_components.unite(slot->second, i);
    }
  }

  // ---- placement ----
  // Colocation units (pair components) in ascending-root order (a root is
  // its component's smallest pair index — see UnionFind::unite).
  std::vector<std::size_t> unit_of_pair(pairs_.size());
  std::vector<std::size_t> unit_of_root(pairs_.size(), SIZE_MAX);
  std::vector<std::size_t> unit_weight;
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    pairs_[i].root = pair_components.find(i);
    std::size_t& unit = unit_of_root[pairs_[i].root];
    if (unit == SIZE_MAX) {
      unit = unit_weight.size();
      unit_weight.push_back(0);
    }
    ++unit_weight[unit];
    unit_of_pair[i] = unit;
  }
  pair_count_ = pairs_.size();
  largest_unit_pairs_ =
      unit_weight.empty()
          ? 0
          : *std::max_element(unit_weight.begin(), unit_weight.end());
  std::vector<std::size_t> shard_of_unit(unit_weight.size(), SIZE_MAX);
  std::vector<std::size_t> idle_shard(proxy_count_, SIZE_MAX);
  std::size_t shard_total = 0;
  if (config_.shards == 0) {
    // Whole-proxy layout: every unit is a set of whole proxies (rule c),
    // and each gets its own shard, numbered by its smallest proxy.  A
    // proxy with no registered pair keeps a shard of its own.
    std::vector<std::size_t> unit_of_proxy(proxy_count_, SIZE_MAX);
    for (std::size_t i = 0; i < pairs_.size(); ++i) {
      unit_of_proxy[pairs_[i].proxy] = unit_of_pair[i];
    }
    for (std::size_t proxy = 0; proxy < proxy_count_; ++proxy) {
      const std::size_t unit = unit_of_proxy[proxy];
      if (unit == SIZE_MAX) {
        idle_shard[proxy] = shard_total++;
      } else if (shard_of_unit[unit] == SIZE_MAX) {
        shard_of_unit[unit] = shard_total++;
      }
    }
  } else {
    // Object-partition layout: units packed into the requested bins by
    // greedy LPT on pair count — the cheap stand-in for a per-object
    // poll-rate estimate, exact enough because every registered object
    // polls continuously.  Deterministic: units order by (weight desc,
    // smallest pair index asc), ties pick the lowest-numbered bin.
    BROADWAY_CHECK_MSG(!pairs_.empty(),
                       "object-partition sharding needs at least one "
                       "registered object");
    std::vector<bool> has_pair(proxy_count_, false);
    for (const PairInfo& pair : pairs_) has_pair[pair.proxy] = true;
    for (std::size_t proxy = 0; proxy < proxy_count_; ++proxy) {
      BROADWAY_CHECK_MSG(has_pair[proxy],
                         "object-partition sharding: proxy "
                             << proxy
                             << " has no registered objects, so no slice "
                                "could host it");
    }
    std::vector<std::size_t> order(unit_weight.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&unit_weight](std::size_t a, std::size_t b) {
                       return unit_weight[a] > unit_weight[b];
                     });
    const std::size_t bins = config_.shards;
    std::vector<std::size_t> bin_load(bins, 0);
    std::vector<std::size_t> bin_of_unit(unit_weight.size(), SIZE_MAX);
    for (const std::size_t unit : order) {
      std::size_t best = 0;
      for (std::size_t b = 1; b < bins; ++b) {
        if (bin_load[b] < bin_load[best]) best = b;
      }
      bin_of_unit[unit] = best;
      bin_load[best] += unit_weight[unit];
    }
    // Drop empty bins (more bins than units) and renumber ascending.
    std::vector<std::size_t> shard_of_bin(bins, SIZE_MAX);
    for (std::size_t b = 0; b < bins; ++b) {
      if (bin_load[b] != 0) shard_of_bin[b] = shard_total++;
    }
    for (std::size_t unit = 0; unit < unit_weight.size(); ++unit) {
      shard_of_unit[unit] = shard_of_bin[bin_of_unit[unit]];
    }
  }
  std::vector<std::vector<bool>> proxy_on_shard(
      shard_total, std::vector<bool>(proxy_count_, false));
  for (std::size_t proxy = 0; proxy < proxy_count_; ++proxy) {
    if (idle_shard[proxy] != SIZE_MAX) {
      proxy_on_shard[idle_shard[proxy]][proxy] = true;
    }
  }
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    pairs_[i].shard = shard_of_unit[unit_of_pair[i]];
    proxy_on_shard[pairs_[i].shard][pairs_[i].proxy] = true;
  }
  std::vector<std::vector<std::size_t>> shard_members(shard_total);
  for (std::size_t s = 0; s < shard_total; ++s) {
    for (std::size_t proxy = 0; proxy < proxy_count_; ++proxy) {
      if (proxy_on_shard[s][proxy]) shard_members[s].push_back(proxy);
    }
  }

  // ---- build the slices ----
  slices_of_proxy_.assign(proxy_count_, {});
  shards_.resize(shard_members.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    shard.proxies = std::move(shard_members[s]);
    for (std::size_t local = 0; local < shard.proxies.size(); ++local) {
      slices_of_proxy_[shard.proxies[local]].push_back(
          {static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(local)});
    }
    shard.sim = std::make_unique<Simulator>();
    if (s == 0) {
      // The one origin content, built once; every other shard reads it.
      shard.origin =
          std::make_unique<OriginServer>(*shard.sim, config_.origin);
      config_.origin_setup(*shard.origin);
    } else {
      shard.origin =
          std::make_unique<OriginServer>(*shard.sim, *shards_[0].origin);
    }
    FleetConfig slice = config_.fleet;
    slice.proxy_ids = shard.proxies;
    shard.fleet =
        std::make_unique<ProxyFleet>(*shard.sim, *shard.origin, slice);
    shard.outbox.resize(shards_.size());
  }

  // ---- replay the recorded registrations onto the owning slices ----
  // Original call order (temporal before value, matching the reference
  // runs the differential tests construct); each pair goes to the slice
  // its component was assigned to.
  for (const TemporalRegistration& reg : temporal_registrations_) {
    const std::size_t s = pairs_[pair_index.at({reg.proxy, reg.uri})].shard;
    shards_[s].fleet->add_temporal_object(local_of(s, reg.proxy), reg.uri,
                                          reg.make_policy());
  }
  for (const ValueRegistration& reg : value_registrations_) {
    const std::size_t s = pairs_[pair_index.at({reg.proxy, reg.uri})].shard;
    shards_[s].fleet->add_value_object(local_of(s, reg.proxy), reg.uri,
                                       reg.config);
  }
  for (GroupRegistration& reg : group_registrations_) {
    const std::size_t shard_index =
        pairs_[pair_index.at({reg.members[0].proxy, reg.members[0].uri})]
            .shard;
    std::vector<FleetMember> local_members = reg.members;
    for (FleetMember& member : local_members) {
      const std::size_t member_shard =
          pairs_[pair_index.at({member.proxy, member.uri})].shard;
      BROADWAY_CHECK(member_shard == shard_index);
      member.proxy = local_of(shard_index, member.proxy);
    }
    reg.bound = &shards_[shard_index].fleet->add_delta_group(
        std::move(local_members), reg.delta_mutual);
  }
}

std::size_t ShardedFleet::local_of(std::size_t shard,
                                   std::size_t proxy) const {
  const std::vector<std::size_t>& members = shards_[shard].proxies;
  const auto it = std::lower_bound(members.begin(), members.end(), proxy);
  BROADWAY_CHECK(it != members.end() && *it == proxy);
  return static_cast<std::size_t>(it - members.begin());
}

void ShardedFleet::build_registration_ranks() {
  // Per-proxy registration ranks for merge_slice_logs, keyed by
  // ObjectId (one table, shared by every shard): pairs_ is in
  // registration-scan order, so the per-proxy subsequence is the order
  // the reference engine registered — and therefore started — the
  // proxy's objects.  Only partition-split proxies are ever merged.
  const UriTable& table = shards_[0].origin->uri_table();
  reg_rank_.assign(proxy_count_, {});
  for (const PairInfo& pair : pairs_) {
    if (slices_of_proxy_[pair.proxy].size() <= 1) continue;
    const ObjectId object = table.find(pair.uri);
    BROADWAY_CHECK(object != kInvalidObjectId);
    IdSlots<std::size_t>& ranks = reg_rank_[pair.proxy];
    const std::size_t rank = ranks.size();
    ranks[object] = rank;
  }
}

void ShardedFleet::build_remote_dests() {
  if (!config_.fleet.cooperative_push || shards_.size() <= 1) return;
  // Relay eligibility (tracked && self-scheduled) is fixed once start()
  // has run, so the fan-out lists are computed once, from the registered
  // pairs in O(pairs): an object's destinations are its relay-eligible
  // pairs, and only a shard hosting one of its pairs polls — and so
  // exports — the object.  Destinations are kept in ascending global
  // proxy id — the order the one-simulator reference sends to them, and
  // therefore the order their per-sender sequence numbers must follow.
  // A (proxy, object) pair lives on exactly one slice, so per source
  // shard each proxy contributes at most one destination, and the source
  // pair itself is never among them (its slice is the source shard).
  struct Tracker {
    std::size_t proxy;
    RemoteDest dest;
  };
  struct Fanout {
    std::vector<Tracker> eligible;
    std::vector<std::uint32_t> hosts;
  };
  const UriTable& table = shards_[0].origin->uri_table();
  IdSlots<Fanout> fanout;
  for (const PairInfo& pair : pairs_) {
    const ObjectId object = table.find(pair.uri);
    BROADWAY_CHECK(object != kInvalidObjectId);
    const auto shard = static_cast<std::uint32_t>(pair.shard);
    Fanout& entry = fanout[object];
    entry.hosts.push_back(shard);
    const std::size_t local = local_of(pair.shard, pair.proxy);
    if (!shards_[shard].fleet->proxy(local).relay_eligible(object)) continue;
    entry.eligible.push_back(
        {pair.proxy, {shard, static_cast<std::uint32_t>(local)}});
  }
  auto entry = fanout.begin();
  for (const ObjectId object : fanout.ids()) {
    std::vector<Tracker>& trackers = entry->eligible;
    std::sort(trackers.begin(), trackers.end(),
              [](const Tracker& a, const Tracker& b) {
                return a.proxy < b.proxy;
              });
    std::vector<std::uint32_t>& on = entry->hosts;
    std::sort(on.begin(), on.end());
    on.erase(std::unique(on.begin(), on.end()), on.end());
    for (const std::uint32_t s : on) {
      std::vector<RemoteDest> dests;
      for (const Tracker& tracker : trackers) {
        // Local siblings relay in-fleet.
        if (tracker.dest.shard != s) dests.push_back(tracker.dest);
      }
      if (!dests.empty()) shards_[s].remote_dests[object] = std::move(dests);
    }
    ++entry;
  }
}

void ShardedFleet::build_send_watches() {
  // The window send bound needs, per shard, the set of local pairs
  // whose own-schedule fire can lead — possibly through a same-instant
  // δ-trigger cascade — to a cross-shard-visible send.  That set is the
  // export closure: pairs with remote relay destinations (the export
  // set E), widened to every pair sharing a colocation component with
  // one (triggers only travel inside δ-groups, and group members share
  // a component by construction; the component may be wider — client
  // pinning, sibling-object rule — which only makes the bound more
  // conservative, never wrong).  The same closure marks the relay
  // *destinations* whose deliveries can spark a send, which the slice
  // fleets track through set_send_watch.
  if (!config_.fleet.cooperative_push || shards_.size() <= 1) {
    pairs_.clear();
    return;
  }
  const UriTable& table = shards_[0].origin->uri_table();
  std::vector<ObjectId> pair_object(pairs_.size(), kInvalidObjectId);
  std::vector<bool> marked(pairs_.size(), false);
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    pair_object[i] = table.find(pairs_[i].uri);
    const Shard& home = shards_[pairs_[i].shard];
    if (home.remote_dests.contains(pair_object[i])) {
      marked[pairs_[i].root] = true;
    }
  }
  std::vector<std::vector<std::vector<bool>>> filters(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    filters[s].resize(shards_[s].proxies.size());
  }
  for (std::size_t i = 0; i < pairs_.size(); ++i) {
    if (!marked[pairs_[i].root]) continue;
    const std::size_t s = pairs_[i].shard;
    const std::size_t local = local_of(s, pairs_[i].proxy);
    shards_[s].export_watch.push_back(
        {&shards_[s].fleet->proxy(local), pair_object[i]});
    std::vector<bool>& flags = filters[s][local];
    if (flags.size() <= pair_object[i]) flags.resize(pair_object[i] + 1);
    flags[pair_object[i]] = true;
  }
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].fleet->set_send_watch(std::move(filters[s]));
  }
  pairs_.clear();
}

void ShardedFleet::start() {
  BROADWAY_CHECK_MSG(!started_, "start() called twice");
  build_shards();
  if (config_.fleet.cooperative_push && shards_.size() > 1) {
    BROADWAY_CHECK_MSG(
        config_.fleet.relay_latency > 0.0,
        "cross-shard cooperative push needs relay_latency > 0 (it is the "
        "conservative lookahead window); got "
            << config_.fleet.relay_latency);
  }

  build_registration_ranks();

  // Seal the shared content: from here on the poll pipeline only looks
  // uris up, concurrently from every shard, and an unexpected intern or
  // attach fails loudly.
  shards_[0].origin->uri_table().freeze();
  // Start engines shard-by-shard, proxies ascending within each (the
  // slice starts its proxies in local order == ascending global order).
  for (Shard& shard : shards_) {
    shard.fleet->start();
  }
  build_remote_dests();
  if (config_.fleet.cooperative_push && shards_.size() > 1) {
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      shards_[s].fleet->set_relay_exporter(
          [this, s](std::size_t from_global, const PollEvent& event,
                    std::uint64_t round,
                    std::shared_ptr<const Response> response) {
            export_relay(s, from_global, event, round, std::move(response));
          });
    }
  }
  build_send_watches();
  pool_ = std::make_unique<ThreadPool>(config_.threads);
  started_ = true;
}

// ---- execution -------------------------------------------------------------

bool ShardedFleet::message_order(const Message& a, const Message& b) {
  if (a.deliver_at != b.deliver_at) return a.deliver_at < b.deliver_at;
  if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
  if (a.tag != b.tag) return a.tag < b.tag;
  return a.seq < b.seq;
}

void ShardedFleet::export_relay(std::size_t shard_index,
                                std::size_t from_global,
                                const PollEvent& event,
                                std::uint64_t round,
                                std::shared_ptr<const Response> response) {
  Shard& shard = shards_[shard_index];
  const std::vector<RemoteDest>* dests = shard.remote_dests.find(event.object);
  if (dests == nullptr) return;
  // One copy per fan-out, shared by its local and remote destinations:
  // the slice fleet made it if a local sibling needed it; otherwise copy
  // here (the PollEvent's references die with this call).
  if (response == nullptr) {
    response = std::make_shared<const Response>(event.response);
  }
  if (config_.fleet.faults.any()) {
    // Per-destination attempt chain: loss and jitter draw from the same
    // counter-keyed streams the slice fleets (and the one-simulator
    // reference) use, so the outcome per (object, src, dst, attempt) is
    // layout-invariant by construction.
    for (const RemoteDest& dest : *dests) {
      export_attempt(shard_index, from_global, dest, event.object,
                     event.snapshot, response, round, 0);
    }
    return;
  }
  (void)from_global;
  Message message;
  message.sent_at = shard.sim->now();
  message.deliver_at = message.sent_at + config_.fleet.relay_latency;
  // The exporter runs inside the sender's poll event, so the simulator's
  // schedule tag is the sender chain's — the same tag the reference's
  // delivery event would have inherited.
  message.tag = shard.sim->schedule_tag();
  message.object = event.object;
  message.snapshot = event.snapshot;
  message.response = response;
  for (const RemoteDest& dest : *dests) {
    message.seq = shard.export_seq++;
    message.dest_local = dest.local;
    shard.outbox[dest.shard].push_back(message);
  }
  shard.exported.sent += dests->size();
}

void ShardedFleet::export_attempt(std::size_t shard_index,
                                  std::size_t from_global,
                                  const RemoteDest& dest, ObjectId object,
                                  TimePoint snapshot,
                                  std::shared_ptr<const Response> response,
                                  std::uint64_t round, std::size_t attempt) {
  Shard& shard = shards_[shard_index];
  const FaultSchedule& faults = config_.fleet.faults;
  const std::size_t dst_global = shards_[dest.shard].proxies[dest.local];
  ++shard.exported.sent;
  if (attempt > 0) ++shard.exported.retried;
  const std::uint64_t counter = faults.attempt_counter(round, attempt);
  if (faults.relay_lost(object, from_global, dst_global, counter)) {
    ++shard.exported.lost;
    if (attempt >= faults.relay_retry_limit) return;  // abandoned
    // The retry lives on the sender's shard simulator under the sender
    // chain's schedule tag (schedule_after inherits it), exactly like the
    // reference's retry event; its fire instant is a future cross-shard
    // send, advertised through export_retries for the send bound.
    const Duration backoff = faults.retry_backoff(attempt);
    const TimePoint fire = shard.sim->now() + backoff;
    shard.export_retries.insert(fire);
    const RemoteDest target = dest;
    shard.sim->schedule_after(
        backoff, [this, shard_index, from_global, target, object, snapshot,
                  response = std::move(response), round, attempt,
                  fire]() mutable {
          Shard& home = shards_[shard_index];
          home.export_retries.erase(home.export_retries.find(fire));
          export_attempt(shard_index, from_global, target, object, snapshot,
                         std::move(response), round, attempt + 1);
        });
    return;
  }
  Message message;
  message.sent_at = shard.sim->now();
  // Parenthesized to match the reference exactly: the slice fleet passes
  // (latency + jitter) as one schedule_after delay, so the delivery
  // instant is sent_at + (latency + jitter) down to the last ULP — the
  // other association can differ in the low bits and desynchronize every
  // event the delivery's apply_outcome timestamps downstream.
  message.deliver_at =
      message.sent_at +
      (config_.fleet.relay_latency +
       faults.relay_jitter(object, from_global, dst_global, counter));
  message.tag = shard.sim->schedule_tag();
  message.object = object;
  message.snapshot = snapshot;
  message.response = std::move(response);
  message.seq = shard.export_seq++;
  message.dest_local = dest.local;
  shard.outbox[dest.shard].push_back(std::move(message));
}

void ShardedFleet::run_shard_window(std::size_t shard_index,
                                    TimePoint window_end) {
  Shard& shard = shards_[shard_index];
  // Interleave the inbox (sorted by the canonical key; deliverable
  // messages form a prefix because deliver_at is the primary key) with
  // the local event queue under that same key, reproducing the exact
  // firing order of the one-simulator reference.
  std::size_t delivered = 0;
  while (delivered < shard.inbox.size() &&
         shard.inbox[delivered].deliver_at <= window_end) {
    const Message& message = shard.inbox[delivered];
    // Everything strictly before the delivery fires first under the
    // canonical key; as one bounded run, so client streams can run ahead
    // up to (never onto) the delivery instant.  Only the same-instant
    // ties below need the key, one event at a time.
    shard.sim->run_before(message.deliver_at);  // <= window_end here
    for (;;) {
      const Simulator::NextEvent head = shard.sim->next_event_info();
      if (!head.valid || head.time > window_end) break;
      // Local event first iff its (time, scheduled_at, tag) precedes the
      // message's (deliver_at, sent_at, tag).  A full tie would need the
      // sender proxy's chains on two shards to fire at one instant —
      // impossible for whole-proxy shards, and measure-zero under object
      // partitioning (a proxy's same-instant δ-cascade is colocated by
      // construction; its slices otherwise run independent timers).  On
      // a tie the message is delivered first, deterministically.
      bool local_first;
      if (head.time != message.deliver_at) {
        local_first = head.time < message.deliver_at;
      } else if (head.scheduled_at != message.sent_at) {
        local_first = head.scheduled_at < message.sent_at;
      } else {
        local_first = head.tag < message.tag;
      }
      if (!local_first) break;
      shard.sim->step();
    }
    // Inject the delivery exactly where the reference's delivery event
    // would have fired: clock at deliver_at, schedule tag set to the
    // sender chain's so follow-on events inherit it.
    shard.sim->advance_clock(message.deliver_at);
    const std::uint32_t outer_tag = shard.sim->schedule_tag();
    shard.sim->set_schedule_tag(message.tag);
    shard.fleet->deliver_relay(message.dest_local, message.object,
                               *message.response, message.snapshot);
    shard.sim->set_schedule_tag(outer_tag);
    ++delivered;
  }
  shard.inbox.erase(shard.inbox.begin(),
                    shard.inbox.begin() + static_cast<std::ptrdiff_t>(
                                              delivered));
  shard.sim->run_until(window_end);
}

void ShardedFleet::exchange_mailboxes() {
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    Shard& dest = shards_[d];
    bool added = false;
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      std::vector<Message>& box = shards_[s].outbox[d];
      if (box.empty()) continue;
      dest.inbox.insert(dest.inbox.end(),
                        std::make_move_iterator(box.begin()),
                        std::make_move_iterator(box.end()));
      box.clear();
      added = true;
    }
    if (added) {
      // The key is total: tags identify the sending proxy (hence its
      // shard) and seq is monotone per source shard.
      std::sort(dest.inbox.begin(), dest.inbox.end(), message_order);
    }
  }
}

TimePoint ShardedFleet::shard_send_bound(const Shard& shard,
                                         TimePoint cutoff) const {
  // Four sources can produce this shard's next cross-shard-visible
  // send, each strictly in the future at a window barrier:
  //  * an inbox message — its delivery can trigger watched polls at the
  //    delivery instant (the inbox is sorted, so front is earliest);
  //  * an in-flight local relay headed to a watched pair — same trigger
  //    argument (the slice fleet tracks those deliveries);
  //  * a watched pair's own refresh timer or pending lost-poll retry;
  //  * with demand fills on, a client-stream candidate firing — a miss
  //    fetches through to the origin inside the request and relays out
  //    like any poll.  Candidate instants over-approximate requests
  //    (thinning may reject, the read may hit), which is conservative.
  //    Streams run ahead only inside a window, so at a barrier each
  //    one's next candidate is its pending queue event.
  // Under fault injection three more sources join (see below): pending
  // export-path retries (their fires ARE cross-shard sends), pending
  // local relay retries (their deliveries can trigger watched δ-sibling
  // exports before any timer the watch list sees), and crash/recovery
  // transitions (a dark proxy's timers are stopped, so its next send is
  // invisible until recovery re-arms them).
  // Trigger cascades are same-instant, so a bound over these instants
  // bounds every send.  The scan stops early once the running bound
  // reaches `cutoff` — the caller falls back to a fixed-width window
  // there, which keeps dense topologies at near-zero scan cost.
  TimePoint bound = kTimeInfinity;
  if (!shard.inbox.empty()) {
    bound = std::min(bound, shard.inbox.front().deliver_at);
  }
  bound = std::min(bound, shard.fleet->next_watched_delivery());
  if (bound <= cutoff) return bound;
  const FaultSchedule& faults = config_.fleet.faults;
  if (faults.any()) {
    if (!shard.export_retries.empty()) {
      bound = std::min(bound, *shard.export_retries.begin());
      if (bound <= cutoff) return bound;
    }
    bound = std::min(bound, shard.fleet->next_relay_retry());
    if (bound <= cutoff) return bound;
    if (faults.has_crashes()) {
      for (const std::size_t proxy : shard.proxies) {
        if (faults.windows_for(proxy) == nullptr) continue;
        bound = std::min(
            bound, faults.next_transition_after(proxy, shard.sim->now()));
        if (bound <= cutoff) return bound;
      }
    }
  }
  if (config_.fleet.engine.demand_fill && !shard.export_watch.empty()) {
    // export_watch is non-empty exactly when some local pair has remote
    // relay destinations — the only case a demand fill can leave the
    // shard.
    bound = std::min(bound, shard.fleet->next_client_fire());
    if (bound <= cutoff) return bound;
  }
  for (const auto& [engine, object] : shard.export_watch) {
    bound = std::min(bound, engine->next_send_time(object));
    if (bound <= cutoff) return bound;
  }
  return bound;
}

void ShardedFleet::run_until(TimePoint horizon) {
  BROADWAY_CHECK_MSG(started_, "run_until before start()");
  BROADWAY_CHECK_MSG(horizon >= now_, "run_until in the past");
  const bool windowed =
      config_.fleet.cooperative_push && shards_.size() > 1;
  window_costs_.resize(shards_.size());
  const auto fill_costs = [this] {
    // Cheap per-shard load estimate for LPT claiming: pending events
    // plus deliverable inbox messages.  Hints never affect results —
    // only which worker runs which shard first.
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      window_costs_[s] = static_cast<double>(shards_[s].sim->pending() +
                                             shards_[s].inbox.size());
    }
  };
  if (!windowed) {
    // Shards are fully independent: one window to the horizon.
    fill_costs();
    pool_->run_batch(
        shards_.size(),
        [this, horizon](std::size_t s) { shards_[s].sim->run_until(horizon); },
        window_costs_);
    now_ = horizon;
    return;
  }
  // Conservative lookahead: a relay sent in window k delivers strictly
  // after the window's edge, so every message deliverable in window k+1
  // is already in its destination inbox when the window starts.
  const Duration latency = config_.fleet.relay_latency;
  while (now_ < horizon) {
    TimePoint edge = std::min(horizon, now_ + latency);
    if (edge < horizon) {
      // Jump the edge to min(horizon, max(now + L, bound)), where bound
      // is the earliest instant any shard can next produce a
      // cross-shard-visible send.  Safety: every send in the window
      // happens at or after bound (bound > now strictly — all its
      // sources are future instants), so every delivery lands at or
      // after bound + L > edge, strictly outside the window — no
      // delivery instant's local events are ever consumed early.  Note
      // the edge stops *at* bound, not bound + L: Simulator::run_until
      // is inclusive, so closing the window at bound + L would consume
      // local events at the very instant a message sent at bound
      // arrives.
      const TimePoint cutoff = now_ + latency;
      TimePoint bound = kTimeInfinity;
      for (const Shard& shard : shards_) {
        bound = std::min(bound, shard_send_bound(shard, cutoff));
        if (bound <= cutoff) break;  // a fixed window is already tight
      }
      if (bound > cutoff) edge = std::min(horizon, bound);
    }
    fill_costs();
    pool_->run_batch(
        shards_.size(),
        [this, edge](std::size_t s) { run_shard_window(s, edge); },
        window_costs_);
    exchange_mailboxes();
    now_ = edge;
  }
}

// ---- topology accessors ----------------------------------------------------

std::size_t ShardedFleet::thread_count() const {
  return pool_ != nullptr ? pool_->parallelism()
                          : std::max<std::size_t>(1, config_.threads);
}

const ShardedFleet::SliceRef& ShardedFleet::sole_slice(
    std::size_t proxy) const {
  BROADWAY_CHECK_MSG(started_, "per-proxy access before start()");
  BROADWAY_CHECK_MSG(proxy < proxy_count_, "proxy " << proxy);
  const std::vector<SliceRef>& slices = slices_of_proxy_[proxy];
  BROADWAY_CHECK_MSG(slices.size() == 1,
                     "proxy " << proxy << " is partition-split across "
                              << slices.size()
                              << " shards; per-proxy accessors need a "
                                 "single slice (use the merged views)");
  return slices[0];
}

std::size_t ShardedFleet::shard_of(std::size_t proxy) const {
  return sole_slice(proxy).shard;
}

std::size_t ShardedFleet::slice_count(std::size_t proxy) const {
  BROADWAY_CHECK_MSG(started_, "slice_count before start()");
  BROADWAY_CHECK_MSG(proxy < proxy_count_, "proxy " << proxy);
  return slices_of_proxy_[proxy].size();
}

PollingEngine& ShardedFleet::proxy(std::size_t proxy) {
  const SliceRef& slice = sole_slice(proxy);
  return shards_[slice.shard].fleet->proxy(slice.local);
}

const PollingEngine& ShardedFleet::proxy(std::size_t proxy) const {
  const SliceRef& slice = sole_slice(proxy);
  return shards_[slice.shard].fleet->proxy(slice.local);
}

// ---- accounting ------------------------------------------------------------

std::size_t ShardedFleet::origin_requests() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.origin->requests_served();
  }
  return total;
}

std::size_t ShardedFleet::origin_polls() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.fleet->origin_polls();
  }
  return total;
}

RelayLedger ShardedFleet::relays() const {
  // Local in-flight relays are scheduled inside their shard's simulator;
  // cross-shard ones sit in the mailboxes (outboxes are drained into
  // inboxes at every window edge, so at rest the inboxes hold them all).
  RelayLedger ledger;
  for (const Shard& shard : shards_) {
    ledger.merge(shard.fleet->relays()).merge(shard.exported);
    ledger.in_flight += shard.inbox.size();
    for (const std::vector<Message>& box : shard.outbox) {
      ledger.in_flight += box.size();
    }
  }
  return ledger;
}

FleetOriginLoad ShardedFleet::origin_load() const {
  FleetOriginLoad load;
  for (const Shard& shard : shards_) {
    load.merge(shard.fleet->origin_load());
  }
  return load;
}

const ClientMetrics& ShardedFleet::client_metrics(std::size_t proxy) const {
  // Client traffic pins each proxy to one slice (see build_shards), so
  // the sole-slice lookup cannot fail for a client-bearing fleet.
  const SliceRef& slice = sole_slice(proxy);
  return shards_[slice.shard].fleet->client_traffic().metrics(slice.local);
}

ClientMetrics ShardedFleet::merged_client_metrics() const {
  // Ascending global proxy id, whatever the shard layout — the same fold
  // order as the single-simulator reference, so the floating-point
  // aggregates come out bit-identical.
  ClientMetrics merged;
  for (std::size_t proxy = 0; proxy < proxy_count_; ++proxy) {
    merged.merge(client_metrics(proxy));
  }
  return merged;
}

std::vector<ClientRequestRecord> ShardedFleet::merged_client_records() const {
  std::vector<ProxyClientRecords> streams;
  streams.reserve(proxy_count_);
  for (const Shard& shard : shards_) {
    const std::vector<ProxyClientRecords> tagged =
        shard.fleet->client_traffic().tagged_records();
    streams.insert(streams.end(), tagged.begin(), tagged.end());
  }
  return merge_client_records(std::move(streams));
}

void ShardedFleet::merge_slice_logs(std::size_t proxy,
                                    std::vector<PollRecord>& out) const {
  // A partition-split proxy's records live in several slice logs.
  // Rebuild the reference single-engine log order by merging on append
  // time — the instant the reference engine would have appended the
  // record: a relay is logged at its delivery (complete_time),
  // everything else at its fire (snapshot_time).  Cross-slice ties are
  // broken by the pair's per-proxy *registration rank*: after the
  // colocation rules, the only pairs that can tie systematically are
  // never-relayed ones (the t = 0 initial burst, first fires under the
  // shared initial TTR, quiet periods multiplying equal TTRs), and those
  // replay the reference's start order — registration order — because
  // every tied firing reschedules in pop order, keeping the invariant
  // inductively.  Same-instant δ-cascade and relay-coupled records share
  // a slice by construction (colocation rules a/b/b2), so their relative
  // order is in-log and preserved.
  //
  // A heap of the slices' next records keyed (append time, rank), each
  // head's rank looked up once; a pair lives on one slice, so the slice
  // index only settles what cannot tie.
  struct Cursor {
    const std::vector<PollRecord>* records;
    std::size_t next = 0;
  };
  struct Head {
    TimePoint time;
    std::size_t rank;
    std::size_t cursor;
  };
  const auto later = [](const Head& x, const Head& y) {
    return std::tie(x.time, x.rank, x.cursor) >
           std::tie(y.time, y.rank, y.cursor);
  };
  const IdSlots<std::size_t>& ranks = reg_rank_[proxy];
  const auto head_of = [&ranks](const PollRecord& record,
                                std::size_t cursor) {
    const std::size_t* rank = ranks.find(record.object);
    BROADWAY_CHECK(rank != nullptr);
    return Head{record.cause == PollCause::kRelay ? record.complete_time
                                                  : record.snapshot_time,
                *rank, cursor};
  };
  std::vector<Cursor> cursors;
  std::vector<Head> heap;
  for (const SliceRef& slice : slices_of_proxy_[proxy]) {
    const std::vector<PollRecord>& records =
        shards_[slice.shard].fleet->proxy(slice.local).poll_log().records();
    if (!records.empty()) heap.push_back(head_of(records[0], cursors.size()));
    cursors.push_back({&records, 0});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Head& head = heap.back();
    Cursor& cursor = cursors[head.cursor];
    out.push_back((*cursor.records)[cursor.next]);
    if (++cursor.next == cursor.records->size()) {
      heap.pop_back();
      continue;
    }
    head = head_of((*cursor.records)[cursor.next], head.cursor);
    std::push_heap(heap.begin(), heap.end(), later);
  }
}

std::vector<PollRecord> ShardedFleet::merged_poll_records() const {
  // The merge_poll_records order, built in one buffer: each proxy's
  // records in its reference in-log order (the slice log of a
  // single-slice proxy, the slice merge of a split one), proxies
  // ascending, then the one stable sort by snapshot time.  Split proxies
  // merge straight into the buffer, so no record is copied twice.
  std::size_t total = 0;
  for (const std::vector<SliceRef>& slices : slices_of_proxy_) {
    for (const SliceRef& slice : slices) {
      total += shards_[slice.shard]
                   .fleet->proxy(slice.local)
                   .poll_log()
                   .size();
    }
  }
  std::vector<PollRecord> merged;
  merged.reserve(total);
  for (std::size_t proxy = 0; proxy < proxy_count_; ++proxy) {
    const std::vector<SliceRef>& slices = slices_of_proxy_[proxy];
    if (slices.size() == 1) {
      const PollLog& log =
          shards_[slices[0].shard].fleet->proxy(slices[0].local).poll_log();
      merged.insert(merged.end(), log.begin(), log.end());
    } else {
      merge_slice_logs(proxy, merged);
    }
  }
  order_merged_poll_records(merged);
  return merged;
}

}  // namespace broadway
