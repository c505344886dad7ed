// Discrete-event simulation engine.
//
// The paper evaluates its consistency mechanisms with an event-based
// simulator ("we implemented an event-based simulator to evaluate the
// efficacy of various cache consistency mechanisms", §6.1.1).  This engine
// is that substrate: a virtual clock plus an ordered queue of callbacks.
//
// Ordering guarantees:
//  * events fire in non-decreasing time order;
//  * events scheduled for the same instant fire in the order they were
//    scheduled (FIFO tie-break), which makes runs reproducible.  Re-arming
//    a timer schedules it anew: it fires after every same-instant event
//    scheduled before the re-arm.
//
// Events may schedule or cancel other events while running.  Cancelling an
// already-fired or unknown event is a no-op and reported via the return
// value, never an error — timers race with the actions that obsolete them
// in every real proxy, and the engine absorbs that race.
//
// Storage: the pending set is an indexed binary heap of small
// (time, seq, node) entries, and every node records its own heap
// position.  Cancelling removes an entry in place and re-arming a timer
// moves its entry (a re-key), so the heap holds live entries only and its
// head is always the next event: O(log n) per operation, no tombstones.
// Every node is a Timer, and every firing calls the node's owner through
// a pointer plus an owner-defined kind and subject.  A node is either
//  * owner-held — it lives inside the object it wakes (a tracked object's
//    poll timer, a client stream's tick), and re-arming it re-keys the
//    same entry: no slot, no closure, no allocation; or
//  * the node of a one-off Callback (schedule_at), held in a
//    generation-tagged slot pool addressed by EventId, for crash/recover
//    edges, push deliveries, relays, retries and tests.  The simulator
//    owns these nodes (subject = slot index) and runs the callback from
//    its own on_timer.
// Either way the key is (time, seq) with one fresh seq per schedule or
// re-key, so the fire order does not depend on which kind a node is or
// where the heap keeps it.  tests/test_sim_event_queue.cpp pins that
// order against a naive scan-for-the-minimum model.  At fleet scale every
// poll is at least one event; this is the floor under the whole
// simulation.
//
// Entered instants: a freshly constructed simulator sits at time 0
// without having *entered* it — nothing has fired there yet.  reached()
// tells clock-derived state (the origin's trace-backed objects) whether
// work due at the current instant is already visible: the simulator
// enters an instant by firing an event there, by finishing run_until at
// it, by advance_clock to it, or by running ahead to it.
//
// Run bounds and run-ahead: run_until(h) and run_before(f) are *bounded*
// runs — every event due by h (strictly before f) fires, later ones stay
// pending.  Inside a bounded run a callback may run ahead: try_advance(t)
// moves the clock to t without an event iff t is strictly before both
// the earliest live event and the run's bound, i.e. iff an event
// scheduled now for t would have been the very next one to fire.  A
// self-rescheduling chain (the client request streams) uses this to do
// its next firing's work in place instead of paying a heap push, pop and
// callback dispatch per firing; the fire order is exactly the queue's.
// Outside a bounded run — in step() and run(), where a caller counts
// events — try_advance always refuses.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/time.h"

namespace broadway {

class Simulator;
class Timer;

/// Handle for a scheduled one-off callback; valid until the event fires or
/// is cancelled.  Layout (slot index + generation) is the Simulator's.
using EventId = std::uint64_t;

/// Sentinel returned by APIs that may have nothing scheduled.
inline constexpr EventId kInvalidEventId = 0;

/// Receives the firings of the timers it owns.
class TimerOwner {
 public:
  /// `timer` fired at the simulator's now().  It is no longer pending, so
  /// re-arming it here schedules its next firing.
  virtual void on_timer(Timer& timer) = 0;

 protected:
  ~TimerOwner() = default;
};

/// An owner-held event: a re-keyable queue entry that lives inside the
/// object it wakes.  At most one firing is pending at a time; arming a
/// pending timer moves its entry instead of adding one, so a timer pulled
/// forward (a triggered poll, paper §3.2) leaves nothing behind.  When it
/// fires, the simulator calls `owner.on_timer(*this)`; `kind` and
/// `subject` are the owner's to define (say, what the timer polls and the
/// index of its target).  The record must not move while bound (the
/// simulator's heap points at it), so it is neither copyable nor movable.
class Timer {
 public:
  /// An unbound timer (never pending); bind() before arming it.
  Timer() = default;
  ~Timer() { stop(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Attach the timer to its simulator and owner.  Not while pending.
  void bind(Simulator& sim, TimerOwner& owner, std::uint32_t kind = 0,
            std::uint32_t subject = 0);
  bool bound() const { return owner_ != nullptr; }

  /// Arm the first firing `delay` from now; the timer must not be pending.
  void start(Duration delay);

  /// Fire `delay` from now, replacing the pending firing if there is one.
  /// Stamps the key exactly as a fresh schedule_after would: a new
  /// sequence number, scheduled-at = now(), the current schedule tag.
  void reschedule(Duration delay);

  /// Cancel the pending firing, if any.
  void stop();

  /// True if a firing is pending.
  bool active() const { return pos_ != kIdle; }

  /// Absolute time of the pending firing; kTimeInfinity if inactive.
  TimePoint next_fire_time() const { return active() ? time_ : kTimeInfinity; }

  std::uint32_t kind() const { return kind_; }
  std::uint32_t subject() const { return subject_; }

 private:
  friend class Simulator;
  static constexpr std::uint32_t kIdle = 0xffffffffu;

  Simulator* sim_ = nullptr;
  TimerOwner* owner_ = nullptr;
  TimePoint time_ = 0.0;          // fire time while pending
  TimePoint scheduled_at_ = 0.0;  // now() when last armed
  std::uint32_t pos_ = kIdle;     // heap position; kIdle when not pending
  std::uint32_t tag_ = 0;         // schedule tag in force when last armed
  std::uint32_t kind_ = 0;
  std::uint32_t subject_ = 0;
};

/// The simulation engine.  Not thread-safe: a simulation is a single
/// logical timeline.  It owns the nodes of its one-off callbacks, so every
/// firing dispatches the same way: through the node's owner.
class Simulator : private TimerOwner {
 public:
  using Callback = std::function<void()>;

  /// Peek at the earliest pending event without running it (see
  /// next_event_info).  `valid` is false when the queue is empty and the
  /// other fields are then meaningless.
  struct NextEvent {
    bool valid = false;
    TimePoint time = 0.0;          ///< when the event fires
    TimePoint scheduled_at = 0.0;  ///< now() at the moment it was scheduled
    std::uint32_t tag = 0;         ///< schedule tag in force when scheduled
    std::uint64_t seq = 0;         ///< FIFO tie-break sequence number
  };

  Simulator() = default;
  /// Timers still pending are detached (left unarmed), so their owners
  /// may outlive the simulator.
  ~Simulator();

  // A simulation owns its pending events, and timers point at it; copying
  // one timeline into another has no meaningful semantics.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.  Starts at 0.
  TimePoint now() const { return now_; }

  /// Whether the timeline has reached instant `t`: `t` is in the past,
  /// or `t` is the current instant and the simulator has entered it (see
  /// the file comment).  Before anything runs, reached(0) is false.
  bool reached(TimePoint t) const { return t < now_ || t <= entered_; }

  /// Schedule `fn` to run at absolute time `t`.  `t` must not be in the
  /// past (it may equal `now()`, in which case the event runs after all
  /// currently-runnable events scheduled earlier).
  EventId schedule_at(TimePoint t, Callback fn);

  /// Schedule `fn` to run `d` from now.  `d` must be non-negative.
  EventId schedule_after(Duration d, Callback fn);

  /// Cancel a pending event.  Returns true if the event existed and was
  /// removed; false if it already fired, was already cancelled, or never
  /// existed.
  bool cancel(EventId id);

  /// True if the event is still pending.
  bool is_pending(EventId id) const;

  /// Time at which the pending event will fire; kTimeInfinity if unknown.
  TimePoint fire_time(EventId id) const;

  /// Run a single event.  Returns false when the queue is empty.
  bool step();

  /// Run events until the queue is empty or `limit` events have run.
  /// Returns the number of events executed.
  std::size_t run(std::size_t limit = SIZE_MAX);

  /// Run all events with time <= horizon, then advance the clock to
  /// `horizon` (even if no event fires exactly there).  Events scheduled
  /// beyond the horizon remain pending.  A bounded run with bound
  /// `horizon` (see try_advance).
  std::size_t run_until(TimePoint horizon);

  /// Run all events with time < fence; events at or after the fence stay
  /// pending and the clock stays where the last one left it (it does not
  /// move to the fence).  A bounded run with bound `fence`.  For drivers
  /// that must interleave external work at the fence instant itself.
  std::size_t run_before(TimePoint fence);

  /// Run ahead to `t` (>= now()) from inside a bounded run: if `t` is
  /// strictly before the earliest pending event and strictly before the
  /// run's bound, move the clock to `t`, enter it and return true;
  /// otherwise change nothing and return false.  Always false outside
  /// run_until / run_before.  The caller does at `t` exactly what an
  /// event scheduled for `t` would have done — it would have fired next.
  bool try_advance(TimePoint t);

  /// Earliest pending event, without running it: fire time, the clock
  /// value at which it was scheduled, and the schedule tag in force then.
  /// A parallel driver interleaving an external message stream with the
  /// local queue needs exactly this triple to decide which side fires
  /// next under the canonical (fire, scheduled, tag) order.
  NextEvent next_event_info() const;

  /// Jump the clock forward to `t` without running anything.  `t` must
  /// not be in the past and no pending event may fire before it — this is
  /// for drivers that deliver externally-ordered work (e.g. cross-shard
  /// messages) between events, not for skipping them.
  void advance_clock(TimePoint t);

  /// Tag stamped on events scheduled (and timers armed) from now on.
  /// While an event runs, the tag reverts to the one it was scheduled
  /// under, so chains of events (timers rescheduling themselves, retries)
  /// inherit the tag of the action that started them.  The fleet uses
  /// proxy ids as tags to give every event a stable owner for
  /// deterministic cross-shard ordering; standalone simulations can ignore
  /// tags entirely (tag 0).
  void set_schedule_tag(std::uint32_t tag) { schedule_tag_ = tag; }
  std::uint32_t schedule_tag() const { return schedule_tag_; }

  /// Number of pending events (callbacks and armed timers).
  std::size_t pending() const { return heap_.size(); }

  /// Id of the one-off callback currently executing; kInvalidEventId
  /// outside any callback and while a Timer fires.  Lets a callback
  /// deregister itself from caller-side bookkeeping (e.g. the polling
  /// engine's pending-retry set) without capturing its own id at schedule
  /// time.
  EventId current_event() const { return current_event_; }

  /// Total queue events executed over the lifetime of the simulator.
  /// Work done by running ahead (try_advance) is not an event and is not
  /// counted.
  std::uint64_t executed() const { return executed_; }

 private:
  friend class Timer;

  // One heap entry: the ordering key inline, plus the node it schedules.
  struct Entry {
    TimePoint time;
    std::uint64_t seq;
    Timer* node;
  };
  // Strict event ordering: earlier time first, then lower sequence number
  // (same-instant FIFO).
  static bool fires_before(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // One pooled one-off callback.  `generation` advances every time the
  // slot is released (fire or cancel), so a stale EventId can never
  // address a reused slot.  The node is bound to this simulator, with the
  // slot's index as its subject.
  struct Slot {
    Timer node;
    Callback fn;
    std::uint32_t generation = 1;  // generation 0 never exists: see below
  };

  // EventId layout: generation (high 32 bits) | slot index (low 32 bits).
  // Generations start at 1 so no valid id equals kInvalidEventId (0).
  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// The slot addressed by `id` iff it is pending and the generation
  /// matches.
  const Slot* live_slot(EventId id) const;

  /// A callback slot's node fired: release the slot and run its callback.
  void on_timer(Timer& node) override;

  /// Release a fired or cancelled slot to the free list (bumps the
  /// generation).
  void release(std::uint32_t index);

  /// Fail unless `t` is finite and not in the past.
  void check_schedulable(TimePoint t) const;

  /// Key `node` to fire at `t` with a fresh seq, scheduled-at and tag:
  /// a push when it is idle, a re-key of its entry when it is pending.
  void arm(Timer& node, TimePoint t);

  // Indexed-heap primitives; every entry placed records its position in
  // its node.
  void place(std::size_t pos, const Entry& entry) {
    heap_[pos] = entry;
    entry.node->pos_ = static_cast<std::uint32_t>(pos);
  }
  void sift_up(std::size_t pos, const Entry& entry);
  void sift_down(std::size_t pos, const Entry& entry);
  /// Remove the entry at `pos` and mark its node idle.
  void remove_at(std::size_t pos);

  /// Fire events due by `bound` (strictly before it unless `inclusive`)
  /// with `bound` as the run bound.
  std::size_t run_bounded(TimePoint bound, bool inclusive);

  TimePoint now_ = 0.0;
  /// Bound of the bounded run in progress; -infinity outside one, which
  /// makes every try_advance refuse.
  TimePoint run_bound_ = -kTimeInfinity;
  /// Latest instant entered (<= now_); -infinity until the first one.
  TimePoint entered_ = -kTimeInfinity;
  EventId current_event_ = kInvalidEventId;
  std::uint32_t schedule_tag_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  // Slots come in fixed chunks, so a slot's node keeps its address as the
  // pool grows.
  static constexpr std::uint32_t kSlotChunk = 256;
  Slot& slot(std::uint32_t index) {
    return slot_chunks_[index / kSlotChunk][index % kSlotChunk];
  }
  const Slot& slot(std::uint32_t index) const {
    return slot_chunks_[index / kSlotChunk][index % kSlotChunk];
  }
  std::vector<std::unique_ptr<Slot[]>> slot_chunks_;
  std::uint32_t slot_count_ = 0;  // slots ever handed out
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace broadway
