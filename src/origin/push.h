// Server-push consistency channel — the paper's noted alternative.
//
// Footnote 1 of the paper: "Server-based approaches for enforcing
// Δ-consistency are also possible.  In such approaches, the server pushes
// relevant changes to the proxy (e.g., only those updates that are
// necessary to maintain the Δ-bound are pushed)."  The paper scopes these
// out; this module implements the natural version so the poll-based
// mechanisms can be compared against it (bench_ablation_push):
//
//  * a proxy subscribes to an object;
//  * on each origin update a push is scheduled, but pushes are *coalesced*:
//    while a push is pending, further updates ride along with it.  A
//    coalescing window of up to Δ preserves Δt-consistency (the first
//    unseen update is delivered within Δ) while cutting message count on
//    bursty objects;
//  * each delivered push carries the full response the proxy would have
//    obtained by polling at that instant.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "http/message.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "util/time.h"

namespace broadway {

/// Push subscription manager bound to one origin server.  The origin does
/// not know about subscribers natively (HTTP is pull); this channel owns
/// the update hooks and the coalescing timers.
class PushChannel {
 public:
  /// Called at delivery time with the pushed response.
  using Delivery = std::function<void(const std::string& uri,
                                      const Response& response)>;

  /// `coalesce_window` bounds how long a push may wait for further
  /// updates to share the message.  0 = push immediately on every update.
  /// For Δt-consistency the window must not exceed Δ (minus the delivery
  /// latency); the channel enforces only non-negativity — the policy
  /// choice is the subscriber's.
  PushChannel(Simulator& sim, OriginServer& origin,
              Duration coalesce_window = 0.0);

  PushChannel(const PushChannel&) = delete;
  PushChannel& operator=(const PushChannel&) = delete;

  /// Subscribe to an object.  Each origin update of `uri` results in a
  /// delivery (possibly coalescing several updates).  The object must
  /// exist at the origin.
  void subscribe(const std::string& uri, Delivery delivery);

  /// Notify the channel that `uri` was updated at the origin "now".  The
  /// origin server does not call this itself; the simulation harness
  /// attaches it alongside the update trace (see attach_pushed_trace).
  void on_update(const std::string& uri);

  /// Convenience: create the object, attach its trace at the origin
  /// *and* schedule one on_update event per update.
  void attach_pushed_trace(const std::string& uri, const UpdateTrace& trace);
  void attach_pushed_trace(const std::string& uri, const ValueTrace& trace);

  /// Messages delivered so far (the push-side cost metric; compare with
  /// the poll counts of the pull mechanisms).
  std::size_t pushes_delivered() const { return pushes_delivered_; }

  /// Updates coalesced into an already-pending push.
  std::size_t updates_coalesced() const { return updates_coalesced_; }

 private:
  struct Subscription {
    Delivery delivery;
    bool push_pending = false;
    EventId pending_event = kInvalidEventId;
  };

  Simulator& sim_;
  OriginServer& origin_;
  Duration coalesce_window_;
  std::map<std::string, Subscription> subscriptions_;
  std::size_t pushes_delivered_ = 0;
  std::size_t updates_coalesced_ = 0;

  void deliver(const std::string& uri);
};

}  // namespace broadway
