// Mutual temporal-consistency coordination (paper §3.2).
//
// A coordinator watches the polls of a *group* of related objects and may
// force extra ("triggered") polls of other members to keep the group
// mutually consistent within the tolerance δ.  The polling engine supplies
// the hooks; the coordinator supplies the decision logic.  Three
// strategies are implemented, matching the paper's evaluation (Fig. 5):
//   NullCoordinator       — baseline LIMD, no mutual support;
//   TriggeredPollCoordinator — every observed update triggers polls of all
//                           related objects (fidelity 1.0 by construction);
//                           its members are (proxy, uri) pairs, so one
//                           class serves an engine-local group (every
//                           member on the one proxy) and a fleet's
//                           cross-proxy groups (fleet/proxy_fleet.h);
//   RateHeuristicCoordinator — trigger only similar-or-faster objects.
//
// Hot-path representation: hooks and `on_poll` are keyed by interned
// ObjectId, so the per-poll notify path costs a vector index per call
// instead of a uri hash per call per coordinator.  Member lists arrive as
// uri strings (groups are configured by humans) and are interned once at
// bind() through the `resolve` hook; `subscriptions()` hands the interned
// ids back to the engine, which routes each poll only to the coordinators
// actually watching that object.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "consistency/types.h"
#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// Engine facilities a coordinator may use.  All keyed by interned
/// ObjectId; `resolve` translates a member uri once at bind time (and must
/// fail loudly for uris that are not registered temporal objects).
struct CoordinatorHooks {
  /// Interned id of a registered temporal object's uri.
  std::function<ObjectId(const std::string&)> resolve;
  /// Absolute time of the object's next scheduled poll (kTimeInfinity if
  /// none pending).
  std::function<TimePoint(ObjectId)> next_poll_time;
  /// Absolute time of the object's most recent completed poll.
  std::function<TimePoint(ObjectId)> last_poll_time;
  /// Force an immediate poll of the object (recorded as PollCause::
  /// kTriggered; the object's schedule continues from the new poll).
  std::function<void(ObjectId)> trigger_poll;
};

/// Decision interface.  `on_poll` is invoked by the engine, with the
/// polled object's interned id, after every completed poll of a group
/// member — including polls the coordinator itself triggered, so
/// implementations must be self-stabilising (the δ window test below
/// provides that naturally).  The engine calls only the coordinators
/// subscribed to the polled object; polls of objects outside the member
/// list are ignored all the same.
class MutualCoordinator {
 public:
  virtual ~MutualCoordinator() = default;

  virtual void on_poll(ObjectId object,
                       const TemporalPollObservation& obs) = 0;

  /// Interned ids of the objects this coordinator wants to hear about.
  /// Valid after bind(); the engine builds its per-object subscriber
  /// index from this.  Pure virtual on purpose: under routed dispatch a
  /// coordinator that forgets to subscribe silently never hears a poll,
  /// so "watches nothing" (NullCoordinator) must be said explicitly.
  virtual std::vector<ObjectId> subscriptions() const = 0;

  /// Forget learned state (crash recovery).
  virtual void reset() {}

  /// Attach engine hooks; called once by the engine when the group is
  /// registered.  Member uris are interned here, so every member must
  /// already be a registered temporal object.
  void bind(CoordinatorHooks hooks) {
    hooks_ = std::move(hooks);
    on_bind();
  }

 protected:
  /// Intern member uris (and size any per-member state) once the hooks
  /// are attached.
  virtual void on_bind() {}

  /// Resolve one member uri through `hooks` (checked).
  static ObjectId resolve_member(const CoordinatorHooks& hooks,
                                 const std::string& uri);

  /// Intern a whole member list through the bound hooks (the shared
  /// on_bind step of the concrete coordinators).
  std::vector<ObjectId> resolve_members(
      const std::vector<std::string>& uris) const;

  /// Paper §3.2: "an additional poll is triggered for an object only if
  /// its next/previous poll instant is more than δ time units away".
  /// Returns true when the object deserves a triggered poll at `now`,
  /// judged by the schedule of the proxy whose `hooks` are given.
  static bool outside_delta_window(const CoordinatorHooks& hooks,
                                   ObjectId object, TimePoint now,
                                   Duration delta_mutual);

  CoordinatorHooks hooks_;
};

/// Baseline: individual consistency only.
class NullCoordinator : public MutualCoordinator {
 public:
  void on_poll(ObjectId, const TemporalPollObservation&) override {}
  /// Watches nothing: routed dispatch never calls it.
  std::vector<ObjectId> subscriptions() const override { return {}; }
};

}  // namespace broadway
