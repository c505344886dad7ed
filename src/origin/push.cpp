#include "origin/push.h"

#include "http/extensions.h"
#include "util/check.h"

namespace broadway {

PushChannel::PushChannel(Simulator& sim, OriginServer& origin,
                         Duration coalesce_window)
    : sim_(sim), origin_(origin), coalesce_window_(coalesce_window) {
  BROADWAY_CHECK_MSG(coalesce_window_ >= 0.0,
                     "coalesce window " << coalesce_window_);
}

void PushChannel::subscribe(const std::string& uri, Delivery delivery) {
  BROADWAY_CHECK(delivery != nullptr);
  BROADWAY_CHECK_MSG(
      origin_.object_by_id(origin_.object_id(uri)) != nullptr,
      "no such object " << uri);
  BROADWAY_CHECK_MSG(
      subscriptions_.find(uri) == subscriptions_.end(),
      "duplicate subscription for " << uri);
  Subscription subscription;
  subscription.delivery = std::move(delivery);
  subscriptions_.emplace(uri, std::move(subscription));
}

void PushChannel::on_update(const std::string& uri) {
  auto it = subscriptions_.find(uri);
  if (it == subscriptions_.end()) return;  // nobody subscribed
  Subscription& subscription = it->second;
  if (subscription.push_pending) {
    // An in-flight push will carry this update too.
    ++updates_coalesced_;
    return;
  }
  subscription.push_pending = true;
  if (coalesce_window_ <= 0.0) {
    deliver(uri);
    return;
  }
  subscription.pending_event =
      sim_.schedule_after(coalesce_window_, [this, uri] { deliver(uri); });
}

void PushChannel::deliver(const std::string& uri) {
  auto it = subscriptions_.find(uri);
  BROADWAY_CHECK(it != subscriptions_.end());
  Subscription& subscription = it->second;
  subscription.push_pending = false;
  subscription.pending_event = kInvalidEventId;

  // The push payload is exactly what an unconditional poll would return.
  Request request;
  request.uri = uri;
  const Response response = origin_.handle(request);
  // Delivery-ordering invariant: a coalesced push carries every update
  // that rode along, and X-Modification-History must list them newest-last
  // (strictly ascending) — exactly the order a poll at this instant would
  // have returned.  Consumers (violation inference, fleet relays) index
  // the newest update as history.back().
  if (const auto history = get_modification_history(response.headers)) {
    for (std::size_t i = 1; i < history->size(); ++i) {
      BROADWAY_CHECK_MSG((*history)[i - 1] < (*history)[i],
                         "push history out of order for " << uri << ": "
                             << (*history)[i - 1] << " !< " << (*history)[i]);
    }
  }
  ++pushes_delivered_;
  subscription.delivery(uri, response);
}

void PushChannel::attach_pushed_trace(const std::string& uri,
                                      const UpdateTrace& trace) {
  origin_.attach_update_trace(uri, trace);
  for (TimePoint t : trace.updates()) {
    // A delivery reads through handle(), which sees the update at t from
    // an event at t.
    sim_.schedule_at(t, [this, uri] { on_update(uri); });
  }
}

void PushChannel::attach_pushed_trace(const std::string& uri,
                                      const ValueTrace& trace) {
  origin_.attach_value_trace(uri, trace);
  for (const auto& step : trace.steps()) {
    sim_.schedule_at(step.time, [this, uri] { on_update(uri); });
  }
}

}  // namespace broadway
