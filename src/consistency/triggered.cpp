#include "consistency/triggered.h"

#include "util/check.h"

namespace broadway {
namespace {

std::vector<FleetMember> on_one_proxy(std::vector<std::string> uris) {
  std::vector<FleetMember> members;
  members.reserve(uris.size());
  for (std::string& uri : uris) members.push_back({0, std::move(uri)});
  return members;
}

}  // namespace

TriggeredPollCoordinator::TriggeredPollCoordinator(
    std::vector<std::string> members, Duration delta_mutual)
    : TriggeredPollCoordinator(on_one_proxy(std::move(members)),
                               delta_mutual, 1) {}

TriggeredPollCoordinator::TriggeredPollCoordinator(
    std::vector<FleetMember> members, Duration delta_mutual,
    std::size_t proxies)
    : members_(std::move(members)),
      delta_mutual_(delta_mutual),
      proxies_(proxies) {
  validate(members_, delta_mutual_, proxies_);
}

void TriggeredPollCoordinator::validate(const std::vector<FleetMember>& members,
                                        Duration delta_mutual,
                                        std::size_t proxies) {
  BROADWAY_CHECK_MSG(members.size() >= 2, "group needs >= 2 members");
  BROADWAY_CHECK_MSG(delta_mutual >= 0.0, "delta " << delta_mutual);
  for (std::size_t i = 0; i < members.size(); ++i) {
    BROADWAY_CHECK_MSG(members[i].proxy < proxies,
                       "member proxy " << members[i].proxy
                                       << " out of range");
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      BROADWAY_CHECK_MSG(members[i].proxy != members[j].proxy ||
                             members[i].uri != members[j].uri,
                         "duplicate member " << members[i].uri);
    }
  }
}

void TriggeredPollCoordinator::on_bind() {
  BROADWAY_CHECK_MSG(proxies_ == 1,
                     "a cross-proxy group binds one hook set per proxy");
  intern_members();
}

void TriggeredPollCoordinator::bind(
    std::vector<CoordinatorHooks> hooks_by_proxy) {
  BROADWAY_CHECK_MSG(hooks_by_proxy.size() == proxies_,
                     "need hooks for " << proxies_ << " proxies, got "
                                       << hooks_by_proxy.size());
  hooks_by_proxy_ = std::move(hooks_by_proxy);
  intern_members();
}

void TriggeredPollCoordinator::intern_members() {
  member_ids_.clear();
  member_ids_.reserve(members_.size());
  for (const FleetMember& member : members_) {
    member_ids_.push_back(resolve_member(hooks_of(member.proxy), member.uri));
  }
}

std::size_t TriggeredPollCoordinator::member_index(std::size_t proxy,
                                                   ObjectId object) const {
  for (std::size_t i = 0; i < member_ids_.size(); ++i) {
    if (member_ids_[i] == object && members_[i].proxy == proxy) return i;
  }
  return kNotMember;
}

void TriggeredPollCoordinator::on_poll(std::size_t proxy, ObjectId object,
                                       const TemporalPollObservation& obs) {
  if (!obs.modified) return;
  BROADWAY_CHECK_MSG(!member_ids_.empty(), "coordinator used before bind()");
  // Routed dispatch only delivers member polls; the check keeps any
  // broadcast caller equivalent.
  const std::size_t polled = member_index(proxy, object);
  if (polled == kNotMember) return;
  for (std::size_t i = 0; i < member_ids_.size(); ++i) {
    if (i == polled) continue;
    const ObjectId member = member_ids_[i];
    std::size_t target = members_[i].proxy;
    if (failover_ != nullptr) {
      // Ids are fleet-global (one shared intern table), so the sibling
      // addresses the same object under the same id.
      target = failover_(target, member, obs.poll_time);
      if (target == kNoLiveProxy) continue;  // outage with no live tracker
    }
    const CoordinatorHooks& hooks = hooks_of(target);
    if (!outside_delta_window(hooks, member, obs.poll_time, delta_mutual_)) {
      continue;
    }
    ++triggers_requested_;
    if (target != members_[i].proxy) ++failover_triggers_;
    // The triggered poll recursively enters on_poll for `member` (through
    // the engine's dispatch or the fleet's listener); the δ-window test
    // then sees a zero-age last poll for it, so cascades terminate.
    hooks.trigger_poll(member);
  }
}

}  // namespace broadway
