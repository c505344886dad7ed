// Tracked objects: the per-object half of the polling engine.
//
// Every object kind the paper evaluates — temporal-domain (§3),
// value-domain (§4.1), virtual-group member (§4.2 adaptive) and
// partitioned-group member (§4.2 partitioned) — flows through one shared
// poll pipeline in the engine (exchange → loss/retry → store → record →
// policy update → coordinator notify).  A TrackedObject supplies the
// policy-specific stages of that pipeline: digesting a successful response
// and deciding the next TTR, plus crash-recovery reset.  New object kinds
// plug in by subclassing; the HTTP/retry/accounting logic is written once.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "consistency/partitioned.h"
#include "consistency/types.h"
#include "consistency/value_ttr.h"
#include "http/message.h"
#include "sim/simulator.h"
#include "util/small_vector.h"
#include "util/uri_table.h"

namespace broadway {

class MutualCoordinator;

/// What the pipeline should do after an object digested a successful
/// response.
struct PollOutcome {
  /// TTR to re-arm the object's own timer with; nullopt for objects polled
  /// jointly by a group (their schedule belongs to the group).
  std::optional<Duration> ttr;
  /// When set, mutual-consistency coordinators are notified with this
  /// observation (temporal-domain polls, excluding the initial fetch).
  std::optional<TemporalPollObservation> observation;
};

/// One object tracked by the polling engine.  Its uri lives only in the
/// engine's shared UriTable; the object holds the interned id.
class TrackedObject {
 public:
  explicit TrackedObject(ObjectId id) : id_(id) {}
  virtual ~TrackedObject() = default;

  // The simulator's heap and the engine's groups point at tracked objects.
  TrackedObject(const TrackedObject&) = delete;
  TrackedObject& operator=(const TrackedObject&) = delete;

  /// Interned id of the object's uri in the engine's shared table.
  ObjectId id() const { return id_; }

  /// Completion instant of the most recent successful poll (0 before any).
  TimePoint last_poll_completion() const { return last_poll_completion_; }
  void set_last_poll_completion(TimePoint t) { last_poll_completion_ = t; }

  /// TTR after each poll (Fig. 4(b) series).  Empty for group-polled
  /// members, whose schedule is the group's.
  const std::vector<std::pair<TimePoint, Duration>>& ttr_series() const {
    return ttr_series_;
  }
  void record_ttr(TimePoint now, Duration ttr) {
    ttr_series_.emplace_back(now, ttr);
  }

  /// The object's own refresh timer, bound by the engine at registration
  /// (its "next poll at" entry in the simulator's queue).  Group-polled
  /// members leave it unbound: their schedule is the group's.
  Timer& timer() { return timer_; }
  const Timer& timer() const { return timer_; }
  bool self_scheduled() const { return timer_.bound(); }

  /// Coordinators watching this object's polls — the engine's per-object
  /// subscriber index, built at add_coordinator time from the
  /// coordinator's interned member set.  The poll pipeline notifies
  /// exactly this list, so an object in no δ-group pays nothing for the
  /// coordinator machinery.  Inline capacity 2: an object almost never
  /// belongs to more than a couple of groups.
  using Subscribers = SmallVector<MutualCoordinator*, 2>;
  const Subscribers& subscribers() const { return subscribers_; }
  void add_subscriber(MutualCoordinator* coordinator) {
    for (MutualCoordinator* existing : subscribers_) {
      if (existing == coordinator) return;
    }
    subscribers_.push_back(coordinator);
  }

  /// Client reads served for this object (hits and misses alike), bumped
  /// by the engine's serve_client_read.  A monotone total; policy-facing
  /// consumers (TemporalObject) diff it against the count at the previous
  /// poll to expose reads-per-poll-interval
  /// (TemporalPollObservation::client_reads).
  void note_client_read() { ++client_reads_; }
  std::uint64_t client_reads() const { return client_reads_; }

  /// Next index for the object's loss-injection draw (see hash_bernoulli):
  /// keying each draw by (engine seed, object id, draw index) keeps loss
  /// outcomes a property of the object's own poll history, so they survive
  /// re-partitioning the engine's objects across shard slices.
  std::uint64_t next_loss_draw() { return loss_draws_++; }

  /// Fire times of pending lost-poll retries, ascending.  The retry delay
  /// is a constant, so schedule order is fire order and a FIFO suffices.
  void push_pending_retry(TimePoint t) { pending_retries_.push_back(t); }
  void pop_pending_retry() { pending_retries_.erase(pending_retries_.begin()); }
  void clear_pending_retries() { pending_retries_.clear(); }
  TimePoint next_pending_retry() const {
    return pending_retries_.empty() ? kTimeInfinity : pending_retries_.front();
  }

  /// True for temporal-domain objects — the only kind coordinator hooks
  /// (trigger_poll and friends) apply to.
  virtual bool temporal() const { return false; }

  /// Pipeline stage: digest a successful response and decide what happens
  /// next.  `previous` is the completion instant of the preceding poll.
  virtual PollOutcome on_response(const Response& response, TimePoint now,
                                  TimePoint previous, PollCause cause) = 0;

  /// Crash recovery (§3.1): forget learned polling state.  Returns the TTR
  /// to re-arm the object's timer with; nullopt when the object has no own
  /// timer.  Cached payloads and observed values survive — they are on
  /// disk.
  virtual std::optional<Duration> reset() = 0;

 private:
  ObjectId id_;
  TimePoint last_poll_completion_ = 0.0;
  std::vector<std::pair<TimePoint, Duration>> ttr_series_;
  Timer timer_;
  Subscribers subscribers_;
  std::uint64_t loss_draws_ = 0;
  std::uint64_t client_reads_ = 0;
  std::vector<TimePoint> pending_retries_;
};

/// Temporal-domain object driven by a RefreshPolicy (paper §3).
class TemporalObject final : public TrackedObject {
 public:
  TemporalObject(ObjectId id, std::unique_ptr<RefreshPolicy> policy);

  bool temporal() const override { return true; }
  PollOutcome on_response(const Response& response, TimePoint now,
                          TimePoint previous, PollCause cause) override;
  std::optional<Duration> reset() override;

 private:
  std::unique_ptr<RefreshPolicy> policy_;
  /// client_reads() at the previous observation, for the per-interval
  /// diff exposed as TemporalPollObservation::client_reads.
  std::uint64_t reads_at_last_obs_ = 0;
};

/// Shared state of the value-domain kinds: the most recently observed
/// server value and the Δv poll observation built from each response.
class ValueDomainObject : public TrackedObject {
 public:
  using TrackedObject::TrackedObject;

  double last_value() const { return last_value_; }
  bool has_value() const { return has_value_; }

 protected:
  /// One absorbed value-domain response.
  struct ValueSample {
    ValuePollObservation obs;
    /// True when no prior value existed (initial fetch, or a retry racing
    /// it): policies fall back to their initial TTR.
    bool first = false;
  };

  /// Extract the object value of a 200 (a 304 keeps the previous value)
  /// and remember it.
  ValueSample absorb_value(const Response& response, TimePoint now,
                           TimePoint previous, PollCause cause);

 private:
  double last_value_ = 0.0;
  bool has_value_ = false;
};

/// Value-domain object with its own adaptive Δv policy (paper §4.1).
class ValueObject final : public ValueDomainObject {
 public:
  ValueObject(ObjectId id, AdaptiveValueTtrPolicy::Config config);

  PollOutcome on_response(const Response& response, TimePoint now,
                          TimePoint previous, PollCause cause) override;
  std::optional<Duration> reset() override;

 private:
  AdaptiveValueTtrPolicy policy_;
};

/// Member of a partitioned-tolerance group (paper §4.2): polls
/// independently against the group policy's δᵢ share for its slot.
class PartitionedMemberObject final : public ValueDomainObject {
 public:
  /// `policy` is owned by the engine's group record and outlives the
  /// member.
  PartitionedMemberObject(ObjectId id, PartitionedTolerancePolicy* policy,
                          std::size_t index);

  PollOutcome on_response(const Response& response, TimePoint now,
                          TimePoint previous, PollCause cause) override;
  std::optional<Duration> reset() override;

 private:
  PartitionedTolerancePolicy* policy_;
  std::size_t index_;
};

/// Member of a virtual-object group (paper §4.2): fetched on each joint
/// poll; the group policy owns all scheduling.
class VirtualMemberObject final : public ValueDomainObject {
 public:
  explicit VirtualMemberObject(ObjectId id);

  PollOutcome on_response(const Response& response, TimePoint now,
                          TimePoint previous, PollCause cause) override;
  std::optional<Duration> reset() override;
};

}  // namespace broadway
