// Triggered-poll mutual consistency (paper §3.2).
//
// "Upon detecting an update (as indicated by the last-modified time field
// of the HTTP response), the proxy triggers polls for all other related
// objects" — unless a member's previous/next poll already falls within δ.
// Because every observed update re-synchronises the whole group, this
// approach provides 100% mutual-consistency fidelity at the cost of extra
// polls (Fig. 5).
//
// Members are (proxy, uri) pairs.  An engine-local group is the one-proxy
// instance: every member sits on proxy 0 and the engine binds one hook
// set.  A fleet's cross-proxy group (one edge cache per region serving
// the same portal page) binds one hook set per proxy; the δ-window test
// and the trigger run against each member's *own* proxy, and relay
// refreshes count as polls for the window test, so cooperative push
// suppresses redundant triggers.  Member uris are interned once at bind()
// through each member's proxy hooks (a fleet shares one origin, so ids
// are fleet-global), and `on_poll` works on (proxy, ObjectId) pairs — no
// per-call uri hashing or string compares.
#pragma once

#include <cstddef>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "consistency/coordinator.h"

namespace broadway {

/// One member of a δ-group: object `uri` as tracked by the proxy with
/// index `proxy` (always 0 for an engine-local group).
struct FleetMember {
  std::size_t proxy = 0;
  std::string uri;
};

/// Coordinator that synchronises the whole group on every observed update.
class TriggeredPollCoordinator : public MutualCoordinator {
 public:
  /// Engine-local group: `members` all live on the engine that binds it;
  /// `delta_mutual` is δ of Eq. (4).
  TriggeredPollCoordinator(std::vector<std::string> members,
                           Duration delta_mutual);

  /// Cross-proxy group over the proxies 0..proxies-1 of a fleet.
  TriggeredPollCoordinator(std::vector<FleetMember> members,
                           Duration delta_mutual, std::size_t proxies);

  /// The group checks every constructor applies: >= 2 distinct
  /// (proxy, uri) members, each proxy below `proxies`, and δ >= 0.
  static void validate(const std::vector<FleetMember>& members,
                       Duration delta_mutual, std::size_t proxies);

  /// Fleet binding: one hook set per proxy, indexed by FleetMember::proxy;
  /// interns every member uri through its own proxy's resolve hook.
  using MutualCoordinator::bind;
  void bind(std::vector<CoordinatorHooks> hooks_by_proxy);

  /// Observation of a completed poll (or, in a fleet, an applied relay) of
  /// `object` at `proxy`.  Triggers polls of the other members outside
  /// their δ window, in registration order; cascades terminate because a
  /// fresh poll is inside the window.
  void on_poll(std::size_t proxy, ObjectId object,
               const TemporalPollObservation& obs);

  void on_poll(ObjectId object, const TemporalPollObservation& obs) override {
    on_poll(0, object, obs);
  }

  std::vector<ObjectId> subscriptions() const override { return member_ids_; }

  Duration delta_mutual() const { return delta_mutual_; }
  const std::vector<FleetMember>& members() const { return members_; }
  /// Interned member ids, parallel to members(); empty before bind().
  const std::vector<ObjectId>& member_ids() const { return member_ids_; }

  /// Number of triggered polls this coordinator has requested.
  std::size_t triggers_requested() const { return triggers_requested_; }

  /// Sentinel return of a FailoverResolver: no live proxy can absorb the
  /// member's responsibility right now — the member is skipped.
  static constexpr std::size_t kNoLiveProxy =
      std::numeric_limits<std::size_t>::max();

  /// Routes a member's δ-responsibility around proxy outages: given the
  /// member's own proxy, its object and the observation instant, returns
  /// the proxy index currently responsible — the owner itself when live, a
  /// deterministic designated sibling while the owner is dark (fault
  /// injection, fleet/faults.h), or kNoLiveProxy when nobody can take
  /// over.  Both the δ-window test and the trigger are evaluated against
  /// the returned proxy's own schedule; when the owner recovers, the
  /// resolver returns it again and responsibility re-homes automatically.
  using FailoverResolver = std::function<std::size_t(
      std::size_t proxy, ObjectId object, TimePoint now)>;

  /// Install the failover route (installed by ProxyFleet when the fault
  /// schedule contains crash windows; absent otherwise).
  void set_failover(FailoverResolver resolver) {
    failover_ = std::move(resolver);
  }

  /// Triggers redirected to a failover sibling because the owning proxy
  /// was dark (subset of triggers_requested()).
  std::size_t failover_triggers() const { return failover_triggers_; }

 protected:
  void on_bind() override;

 private:
  static constexpr std::size_t kNotMember =
      std::numeric_limits<std::size_t>::max();

  /// Hooks of `proxy`: the per-proxy fleet hooks, or the engine's own.
  const CoordinatorHooks& hooks_of(std::size_t proxy) const {
    return hooks_by_proxy_.empty() ? hooks_ : hooks_by_proxy_[proxy];
  }
  void intern_members();
  /// Index of the (proxy, object) member, kNotMember when absent.
  std::size_t member_index(std::size_t proxy, ObjectId object) const;

  std::vector<FleetMember> members_;
  std::vector<ObjectId> member_ids_;  // interned at bind()
  Duration delta_mutual_;
  std::size_t proxies_;
  std::vector<CoordinatorHooks> hooks_by_proxy_;  // empty = engine-local
  FailoverResolver failover_;  // empty = owners are always live
  std::size_t triggers_requested_ = 0;
  std::size_t failover_triggers_ = 0;
};

}  // namespace broadway
