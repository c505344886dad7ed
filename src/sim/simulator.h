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
//    scheduled (FIFO tie-break), which makes runs reproducible.
//
// Events may schedule or cancel other events while running.  Cancelling an
// already-fired or unknown event is a no-op and reported via the return
// value, never an error — timers race with the actions that obsolete them
// in every real proxy, and the engine absorbs that race.
//
// Storage: pending callbacks live in a generation-tagged slot pool (an
// EventId encodes slot index + generation), so scheduling an event is a
// slot reuse plus a queue push — no per-event node allocation, no hashing
// — and cancellation just bumps the slot's generation, turning the queue
// entry into a tombstone that the next peek pops and discards.  The
// ordered queue itself is a binary heap (std::priority_queue) of small
// (time, seq, id) entries: O(log n) per operation, and at this codebase's
// pending-set sizes the cheapest structure measured end to end.  It is the
// only one; tests/test_sim_event_queue.cpp pins its fire order against a
// naive scan-for-the-minimum model.  At fleet scale every poll is at least
// one event; this is the floor under the whole simulation.
//
// Entered instants: a freshly constructed simulator sits at time 0
// without having *entered* it — nothing has fired there yet.  reached()
// tells clock-derived state (the origin's trace-backed objects) whether
// work due at the current instant is already visible: the simulator
// enters an instant by firing an event there, by finishing run_until at
// it, or by advance_clock to it.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/time.h"

namespace broadway {

/// Handle for a scheduled event; valid until the event fires or is
/// cancelled.  Layout (slot index + generation) is the Simulator's.
using EventId = std::uint64_t;

/// Sentinel returned by APIs that may have nothing scheduled.
inline constexpr EventId kInvalidEventId = 0;

/// One pending queue entry: fire time, FIFO tie-break, event handle.
struct EventEntry {
  TimePoint time;
  std::uint64_t seq;
  EventId id;
};

/// Strict event ordering: earlier time first, then lower sequence number
/// (same-instant FIFO).
inline bool fires_before(const EventEntry& a, const EventEntry& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.seq < b.seq;
}

/// The simulation engine.  Not thread-safe: a simulation is a single
/// logical timeline.
class Simulator {
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

  // A simulation owns its pending callbacks; copying one timeline into
  // another has no meaningful semantics.
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
  /// beyond the horizon remain pending.
  std::size_t run_until(TimePoint horizon);

  /// Earliest pending event, without running it: fire time, the clock
  /// value at which it was scheduled, and the schedule tag in force then.
  /// A parallel driver interleaving an external message stream with the
  /// local queue needs exactly this triple to decide which side fires
  /// next under the canonical (fire, scheduled, tag) order.
  NextEvent next_event_info();

  /// Jump the clock forward to `t` without running anything.  `t` must
  /// not be in the past and no pending event may fire before it — this is
  /// for drivers that deliver externally-ordered work (e.g. cross-shard
  /// messages) between events, not for skipping them.
  void advance_clock(TimePoint t);

  /// Tag stamped on events scheduled from now on.  While an event runs,
  /// the tag reverts to the one it was scheduled under, so chains of
  /// events (timers rescheduling themselves, retries) inherit the tag of
  /// the action that started them.  The fleet uses proxy ids as tags to
  /// give every event a stable owner for deterministic cross-shard
  /// ordering; standalone simulations can ignore tags entirely (tag 0).
  void set_schedule_tag(std::uint32_t tag) { schedule_tag_ = tag; }
  std::uint32_t schedule_tag() const { return schedule_tag_; }

  /// Number of pending events.
  std::size_t pending() const { return pending_count_; }

  /// Id of the event whose callback is currently executing;
  /// kInvalidEventId outside any callback.  Lets a callback deregister
  /// itself from caller-side bookkeeping (e.g. the polling engine's
  /// pending-retry set) without capturing its own id at schedule time.
  EventId current_event() const { return current_event_; }

  /// Total events executed over the lifetime of the simulator.
  std::uint64_t executed() const { return executed_; }

 private:
  struct Later {
    bool operator()(const EventEntry& a, const EventEntry& b) const {
      return fires_before(b, a);
    }
  };
  // One pooled event slot.  `generation` advances every time the slot is
  // released (fire or cancel), so a stale EventId — and the queue entry
  // carrying it — can never address a reused slot.
  struct Slot {
    Callback fn;
    TimePoint time = 0.0;
    TimePoint scheduled_at = 0.0;  // now() when the event was scheduled
    std::uint32_t generation = 1;  // generation 0 never exists: see below
    std::uint32_t tag = 0;         // schedule tag in force at schedule time
    bool live = false;
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

  /// The slot addressed by `id` iff it is live and the generation matches.
  const Slot* live_slot(EventId id) const;
  Slot* live_slot(EventId id);

  /// Release a slot back to the free list (bumps the generation).
  void release(std::uint32_t index);

  /// Earliest live entry, or nullptr when nothing is pending.  Tombstones
  /// (entries of cancelled events) at the head are popped on the way.
  const EventEntry* peek_live();

  TimePoint now_ = 0.0;
  /// Latest instant entered (<= now_); -infinity until the first one.
  TimePoint entered_ = -kTimeInfinity;
  EventId current_event_ = kInvalidEventId;
  std::uint32_t schedule_tag_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t pending_count_ = 0;
  std::priority_queue<EventEntry, std::vector<EventEntry>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace broadway
