#include "proxy/tracked_object.h"

#include <algorithm>

#include "http/extensions.h"
#include "util/check.h"

namespace broadway {

// ---- TemporalObject --------------------------------------------------------

TemporalObject::TemporalObject(ObjectId id,
                               std::unique_ptr<RefreshPolicy> policy)
    : TrackedObject(id), policy_(std::move(policy)) {
  BROADWAY_CHECK(policy_ != nullptr);
}

PollOutcome TemporalObject::on_response(const Response& response,
                                        TimePoint now, TimePoint previous,
                                        PollCause cause) {
  PollOutcome outcome;
  if (cause == PollCause::kInitial) {
    reads_at_last_obs_ = client_reads();
    outcome.ttr = policy_->initial_ttr();
    return outcome;
  }
  TemporalPollObservation obs;
  obs.poll_time = now;
  obs.previous_poll_time = previous;
  obs.modified = response.ok();
  obs.last_modified = wire_last_modified(response);
  // Closed-loop demand signal: client reads served since the previous
  // observation (0 when no client traffic is attached).
  obs.client_reads =
      static_cast<std::size_t>(client_reads() - reads_at_last_obs_);
  reads_at_last_obs_ = client_reads();
  // Malformed string-path history reads as empty, as before.
  wire_modification_history(response, obs.history);
  // Restrict the history to updates this proxy has not seen.  For an own
  // poll the server already filtered against If-Modified-Since (= the
  // quantised `previous`), so this is a no-op; for a relayed response the
  // sibling's history covers updates since *its* previous poll, and the
  // restriction makes violation inference match an own poll (the relay
  // path used to copy the whole Response just to rewrite this header).
  if (!obs.history.empty()) {
    const auto first =
        std::upper_bound(obs.history.begin(), obs.history.end(), previous);
    obs.history.erase(obs.history.begin(), first);
  }
  outcome.ttr = policy_->next_ttr(obs);
  outcome.observation = std::move(obs);
  return outcome;
}

std::optional<Duration> TemporalObject::reset() {
  policy_->reset();
  return policy_->initial_ttr();
}

// ---- ValueDomainObject -----------------------------------------------------

ValueDomainObject::ValueSample ValueDomainObject::absorb_value(
    const Response& response, TimePoint now, TimePoint previous,
    PollCause cause) {
  double value = last_value_;
  if (response.ok()) {
    // The engine's store stage has checked that a 200 carries a value.
    value = wire_object_value(response).value();
  }
  ValueSample sample;
  sample.first = cause == PollCause::kInitial || !has_value_;
  sample.obs.poll_time = now;
  sample.obs.previous_poll_time = previous;
  sample.obs.value = value;
  sample.obs.previous_value = last_value_;
  last_value_ = value;
  has_value_ = true;
  return sample;
}

// ---- ValueObject -----------------------------------------------------------

ValueObject::ValueObject(ObjectId id, AdaptiveValueTtrPolicy::Config config)
    : ValueDomainObject(id), policy_(config) {}

PollOutcome ValueObject::on_response(const Response& response, TimePoint now,
                                     TimePoint previous, PollCause cause) {
  const ValueSample sample = absorb_value(response, now, previous, cause);
  PollOutcome outcome;
  outcome.ttr =
      sample.first ? policy_.initial_ttr() : policy_.next_ttr(sample.obs);
  return outcome;
}

std::optional<Duration> ValueObject::reset() {
  policy_.reset();
  return policy_.initial_ttr();
}

// ---- PartitionedMemberObject -----------------------------------------------

PartitionedMemberObject::PartitionedMemberObject(
    ObjectId id, PartitionedTolerancePolicy* policy, std::size_t index)
    : ValueDomainObject(id), policy_(policy), index_(index) {
  BROADWAY_CHECK(policy_ != nullptr);
  BROADWAY_CHECK(index_ < policy_->arity());
}

PollOutcome PartitionedMemberObject::on_response(const Response& response,
                                                 TimePoint now,
                                                 TimePoint previous,
                                                 PollCause cause) {
  const ValueSample sample = absorb_value(response, now, previous, cause);
  PollOutcome outcome;
  outcome.ttr = sample.first ? policy_->initial_ttr(index_)
                             : policy_->next_ttr(index_, sample.obs);
  return outcome;
}

std::optional<Duration> PartitionedMemberObject::reset() {
  // The shared group policy is reset once by the engine (before any member
  // re-arms); each member only restarts from the recovered apportionment.
  return policy_->initial_ttr(index_);
}

// ---- VirtualMemberObject ---------------------------------------------------

VirtualMemberObject::VirtualMemberObject(ObjectId id)
    : ValueDomainObject(id) {}

PollOutcome VirtualMemberObject::on_response(const Response& response,
                                             TimePoint now,
                                             TimePoint previous,
                                             PollCause cause) {
  absorb_value(response, now, previous, cause);
  return PollOutcome{};  // the group owns scheduling
}

std::optional<Duration> VirtualMemberObject::reset() {
  return std::nullopt;  // the group resets and re-arms itself
}

}  // namespace broadway
