#include "consistency/heuristic.h"

#include <algorithm>

#include "util/check.h"

namespace broadway {

RateHeuristicCoordinator::RateHeuristicCoordinator(
    std::vector<std::string> members, Config config)
    : config_(config), members_(std::move(members)) {
  BROADWAY_CHECK_MSG(members_.size() >= 2, "group needs >= 2 members");
  BROADWAY_CHECK_MSG(config_.delta_mutual >= 0.0,
                     "delta " << config_.delta_mutual);
  BROADWAY_CHECK_MSG(config_.similarity > 0.0, "similarity factor");
}

void RateHeuristicCoordinator::on_bind() {
  member_ids_ = resolve_members(members_);
  estimators_.assign(members_.size(),
                     UpdateRateEstimator(config_.rate_smoothing));
}

std::size_t RateHeuristicCoordinator::member_index(ObjectId object) const {
  const auto it =
      std::find(member_ids_.begin(), member_ids_.end(), object);
  return it == member_ids_.end()
             ? kNotMember
             : static_cast<std::size_t>(it - member_ids_.begin());
}

double RateHeuristicCoordinator::estimated_rate(ObjectId object) const {
  const std::size_t index = member_index(object);
  return index == kNotMember ? 0.0 : estimators_[index].rate();
}

void RateHeuristicCoordinator::reset() {
  for (UpdateRateEstimator& estimator : estimators_) estimator.reset();
}

void RateHeuristicCoordinator::on_poll(ObjectId object,
                                       const TemporalPollObservation& obs) {
  // Subscription-routed dispatch only delivers member polls; the check
  // keeps the broadcast (legacy / fleet-style) paths equivalent.
  const std::size_t self = member_index(object);
  if (self == kNotMember) return;
  estimators_[self].observe(obs);
  if (!obs.modified) return;
  BROADWAY_CHECK_MSG(hooks_.trigger_poll, "coordinator used before bind()");

  const double updated_rate = estimators_[self].rate();
  for (std::size_t i = 0; i < member_ids_.size(); ++i) {
    if (i == self) continue;
    // Trigger only members changing at a similar or faster estimated rate;
    // slower members are left to their own LIMD schedule (that schedule is
    // already polling them at roughly their own update rate).  Members
    // with no rate estimate yet are treated as slower — we have no
    // evidence they co-update with this object.
    const double member_rate = estimators_[i].rate();
    if (member_rate < config_.similarity * updated_rate ||
        member_rate == 0.0) {
      continue;
    }
    if (!outside_delta_window(hooks_, member_ids_[i], obs.poll_time,
                              config_.delta_mutual)) {
      continue;
    }
    ++triggers_requested_;
    hooks_.trigger_poll(member_ids_[i]);
  }
}

}  // namespace broadway
