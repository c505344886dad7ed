#include "sim/simulator.h"

#include <cmath>

#include "util/check.h"

namespace broadway {

// ---- timers ----------------------------------------------------------------

void Timer::bind(Simulator& sim, TimerOwner& owner, std::uint32_t kind,
                 std::uint32_t subject) {
  BROADWAY_CHECK_MSG(!active(), "Timer rebound while pending");
  sim_ = &sim;
  owner_ = &owner;
  kind_ = kind;
  subject_ = subject;
}

void Timer::start(Duration delay) {
  BROADWAY_CHECK_MSG(!active(), "Timer started twice");
  reschedule(delay);
}

void Timer::reschedule(Duration delay) {
  BROADWAY_CHECK_MSG(bound(), "Timer armed before bind()");
  BROADWAY_CHECK_MSG(delay >= 0.0, "Timer delay " << delay);
  const TimePoint t = sim_->now() + delay;
  sim_->check_schedulable(t);
  sim_->arm(*this, t);
}

void Timer::stop() {
  if (active()) sim_->remove_at(pos_);
}

// ---- the indexed heap ------------------------------------------------------

Simulator::~Simulator() {
  for (const Entry& entry : heap_) entry.node->pos_ = Timer::kIdle;
}

void Simulator::sift_up(std::size_t pos, const Entry& entry) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!fires_before(entry, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, entry);
}

void Simulator::sift_down(std::size_t pos, const Entry& entry) {
  const std::size_t size = heap_.size();
  while (true) {
    std::size_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && fires_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    if (!fires_before(heap_[child], entry)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, entry);
}

void Simulator::remove_at(std::size_t pos) {
  heap_[pos].node->pos_ = Timer::kIdle;
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (pos == size) return;  // the removed entry was the last one
  // Floyd's deletion, as std::pop_heap does it: walk the hole down to a
  // leaf along the earlier children (one comparison per level), then sift
  // the last entry up from there.  Every entry below `pos` fires after
  // every ancestor of `pos`, so the sift-up also covers a last entry that
  // belongs above `pos`.
  std::size_t hole = pos;
  for (std::size_t child = 2 * hole + 1; child < size;
       child = 2 * hole + 1) {
    if (child + 1 < size && fires_before(heap_[child + 1], heap_[child])) {
      ++child;
    }
    place(hole, heap_[child]);
    hole = child;
  }
  sift_up(hole, last);
}

void Simulator::check_schedulable(TimePoint t) const {
  BROADWAY_CHECK_MSG(std::isfinite(t), "schedule_at(" << t << ")");
  BROADWAY_CHECK_MSG(t >= now_,
                     "schedule_at in the past: t=" << t << " now=" << now_);
}

void Simulator::arm(Timer& node, TimePoint t) {
  node.time_ = t;
  node.scheduled_at_ = now_;
  node.tag_ = schedule_tag_;
  const Entry entry{t, next_seq_++, &node};
  if (!node.active()) {
    BROADWAY_CHECK_MSG(heap_.size() < Timer::kIdle, "event queue full");
    heap_.push_back(entry);
    sift_up(heap_.size() - 1, entry);
    return;
  }
  // Re-key in place.  The fresh seq is the largest issued, so the new key
  // sorts after the old one unless the time moved earlier.
  const std::size_t pos = node.pos_;
  if (fires_before(entry, heap_[pos])) {
    sift_up(pos, entry);
  } else {
    sift_down(pos, entry);
  }
}

// ---- one-off callbacks -----------------------------------------------------

const Simulator::Slot* Simulator::live_slot(EventId id) const {
  const std::uint32_t index = slot_of(id);
  if (index >= slot_count_) return nullptr;
  const Slot& live = slot(index);
  if (!live.node.active() || live.generation != generation_of(id)) {
    return nullptr;
  }
  return &live;
}

void Simulator::release(std::uint32_t index) {
  Slot& released = slot(index);
  ++released.generation;
  if (released.generation == 0) ++released.generation;  // skip 0 on wrap
  released.fn = nullptr;  // drop captured state promptly
  free_slots_.push_back(index);
}

EventId Simulator::schedule_at(TimePoint t, Callback fn) {
  check_schedulable(t);
  BROADWAY_CHECK(fn != nullptr);
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    BROADWAY_CHECK_MSG(slot_count_ < 0xffffffffu - kSlotChunk,
                       "event pool full");
    index = slot_count_++;
    if (index % kSlotChunk == 0) {
      slot_chunks_.push_back(std::make_unique<Slot[]>(kSlotChunk));
      for (std::uint32_t i = 0; i < kSlotChunk; ++i) {
        slot_chunks_.back()[i].node.bind(*this, *this, /*kind=*/0, index + i);
      }
    }
  }
  Slot& taken = slot(index);
  arm(taken.node, t);
  taken.fn = std::move(fn);
  return make_id(index, taken.generation);
}

EventId Simulator::schedule_after(Duration d, Callback fn) {
  BROADWAY_CHECK_MSG(d >= 0.0, "schedule_after(" << d << ")");
  return schedule_at(now_ + d, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  const Slot* slot = live_slot(id);
  if (slot == nullptr) return false;
  remove_at(slot->node.pos_);
  release(slot_of(id));
  return true;
}

bool Simulator::is_pending(EventId id) const {
  return live_slot(id) != nullptr;
}

TimePoint Simulator::fire_time(EventId id) const {
  const Slot* slot = live_slot(id);
  return slot == nullptr ? kTimeInfinity : slot->node.time_;
}

// ---- execution -------------------------------------------------------------

bool Simulator::step() {
  if (heap_.empty()) return false;
  const Entry head = heap_.front();
  remove_at(0);
  BROADWAY_CHECK_MSG(head.time >= now_, "event time went backwards");
  now_ = head.time;
  entered_ = now_;
  ++executed_;
  // A timer carries no id; a callback's slot exposes the running
  // callback's id for the duration of the call (callbacks nest only
  // through step()-free paths, so a plain save and restore covers
  // reentrant step() calls too).  The schedule tag reverts to the firing
  // event's tag so follow-on schedules inherit its owner.
  Timer& node = *head.node;
  const EventId outer = current_event_;
  const std::uint32_t outer_tag = schedule_tag_;
  schedule_tag_ = node.tag_;
  current_event_ = kInvalidEventId;
  node.owner_->on_timer(node);
  schedule_tag_ = outer_tag;
  current_event_ = outer;
  return true;
}

void Simulator::on_timer(Timer& node) {
  const std::uint32_t index = node.subject_;
  Slot& fired = slot(index);
  Callback fn = std::move(fired.fn);
  current_event_ = make_id(index, fired.generation);
  release(index);
  fn();
}

Simulator::NextEvent Simulator::next_event_info() const {
  NextEvent info;
  if (heap_.empty()) return info;
  const Entry& head = heap_.front();
  info.valid = true;
  info.time = head.time;
  info.scheduled_at = head.node->scheduled_at_;
  info.tag = head.node->tag_;
  info.seq = head.seq;
  return info;
}

void Simulator::advance_clock(TimePoint t) {
  BROADWAY_CHECK_MSG(t >= now_, "advance_clock into the past: t="
                                    << t << " now=" << now_);
  BROADWAY_CHECK_MSG(heap_.empty() || heap_.front().time >= t,
                     "advance_clock would skip a pending event");
  now_ = t;
  entered_ = t;
}

std::size_t Simulator::run(std::size_t limit) {
  std::size_t executed = 0;
  while (executed < limit && step()) ++executed;
  return executed;
}

std::size_t Simulator::run_bounded(TimePoint bound, bool inclusive) {
  // Restore the enclosing bound on every exit, a throwing callback
  // included, so a caught failure cannot leave run-ahead enabled.
  struct BoundScope {
    TimePoint& slot;
    TimePoint outer;
    ~BoundScope() { slot = outer; }
  } scope{run_bound_, run_bound_};
  run_bound_ = bound;
  std::size_t executed = 0;
  while (!heap_.empty()) {
    const TimePoint next = heap_.front().time;
    if (next > bound || (!inclusive && next == bound)) break;
    step();
    ++executed;
  }
  return executed;
}

std::size_t Simulator::run_until(TimePoint horizon) {
  BROADWAY_CHECK_MSG(horizon >= now_, "run_until in the past");
  const std::size_t executed = run_bounded(horizon, /*inclusive=*/true);
  now_ = horizon;
  entered_ = horizon;
  return executed;
}

std::size_t Simulator::run_before(TimePoint fence) {
  BROADWAY_CHECK_MSG(fence >= now_, "run_before in the past");
  return run_bounded(fence, /*inclusive=*/false);
}

bool Simulator::try_advance(TimePoint t) {
  BROADWAY_CHECK_MSG(t >= now_,
                     "try_advance into the past: t=" << t << " now=" << now_);
  if (!(t < run_bound_)) return false;
  if (!heap_.empty() && !(t < heap_.front().time)) return false;
  now_ = t;
  entered_ = t;
  return true;
}

}  // namespace broadway
