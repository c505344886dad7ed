// Rate-heuristic mutual consistency (paper §3.2).
//
// "A heuristic would be to trigger polls for only those objects that
// change at a rate faster than the object that was modified."  Objects
// changing slower are left to their own LIMD schedule — cheaper than
// triggered polls, but a slow object that happens to update alongside a
// fast one can slip outside δ, costing fidelity (Fig. 5(b) shows
// 0.87–1.0).  Fig. 6 shows the adaptive behaviour this class reproduces:
// only the slower object triggers extra polls of the faster one.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "consistency/coordinator.h"
#include "consistency/rate_estimator.h"

namespace broadway {

/// Coordinator that triggers polls only for similar-or-faster members.
class RateHeuristicCoordinator : public MutualCoordinator {
 public:
  struct Config {
    /// δ of Eq. (4).
    Duration delta_mutual = 600.0;
    /// A member is "similar or faster" when rate(member) >=
    /// similarity * rate(updated object).  1.0 = strictly faster-or-equal;
    /// the default tolerates mild estimation noise.
    double similarity = 0.8;
    /// EWMA weight for the per-object rate estimators.
    double rate_smoothing = 0.3;
  };

  RateHeuristicCoordinator(std::vector<std::string> members, Config config);

  void on_poll(ObjectId object, const TemporalPollObservation& obs) override;
  void reset() override;

  std::vector<ObjectId> subscriptions() const override { return member_ids_; }

  /// Current rate estimate for a member (updates/s; 0 = unknown, and for
  /// non-members).
  double estimated_rate(ObjectId object) const;

  std::size_t triggers_requested() const { return triggers_requested_; }
  const Config& config() const { return config_; }
  const std::vector<std::string>& members() const { return members_; }
  /// Interned member ids, parallel to members(); empty before bind().
  const std::vector<ObjectId>& member_ids() const { return member_ids_; }

 protected:
  void on_bind() override;

 private:
  static constexpr std::size_t kNotMember = static_cast<std::size_t>(-1);

  /// Index of `object` in member_ids_, kNotMember when absent.
  std::size_t member_index(ObjectId object) const;

  Config config_;
  std::vector<std::string> members_;
  std::vector<ObjectId> member_ids_;            // interned at bind()
  std::vector<UpdateRateEstimator> estimators_;  // parallel to member_ids_
  std::size_t triggers_requested_ = 0;
};

}  // namespace broadway
