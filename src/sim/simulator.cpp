#include "sim/simulator.h"

#include <cmath>

#include "util/check.h"

namespace broadway {

const Simulator::Slot* Simulator::live_slot(EventId id) const {
  const std::uint32_t index = slot_of(id);
  if (index >= slots_.size()) return nullptr;
  const Slot& slot = slots_[index];
  if (!slot.live || slot.generation != generation_of(id)) return nullptr;
  return &slot;
}

Simulator::Slot* Simulator::live_slot(EventId id) {
  return const_cast<Slot*>(
      static_cast<const Simulator*>(this)->live_slot(id));
}

void Simulator::release(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  ++slot.generation;
  if (slot.generation == 0) ++slot.generation;  // skip 0 on wrap
  slot.fn = nullptr;  // drop captured state promptly
  free_slots_.push_back(index);
  --pending_count_;
}

const EventEntry* Simulator::peek_live() {
  while (!heap_.empty() && live_slot(heap_.top().id) == nullptr) {
    heap_.pop();
  }
  return heap_.empty() ? nullptr : &heap_.top();
}

// ---- scheduling ------------------------------------------------------------

EventId Simulator::schedule_at(TimePoint t, Callback fn) {
  BROADWAY_CHECK_MSG(std::isfinite(t), "schedule_at(" << t << ")");
  BROADWAY_CHECK_MSG(t >= now_,
                     "schedule_at in the past: t=" << t << " now=" << now_);
  BROADWAY_CHECK(fn != nullptr);
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    BROADWAY_CHECK_MSG(slots_.size() < 0xffffffffu, "event pool full");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.time = t;
  slot.scheduled_at = now_;
  slot.tag = schedule_tag_;
  slot.live = true;
  ++pending_count_;
  const EventId id = make_id(index, slot.generation);
  heap_.push(EventEntry{t, next_seq_++, id});
  return id;
}

EventId Simulator::schedule_after(Duration d, Callback fn) {
  BROADWAY_CHECK_MSG(d >= 0.0, "schedule_after(" << d << ")");
  return schedule_at(now_ + d, std::move(fn));
}

bool Simulator::cancel(EventId id) {
  Slot* slot = live_slot(id);
  if (slot == nullptr) return false;
  release(slot_of(id));
  return true;
}

bool Simulator::is_pending(EventId id) const {
  return live_slot(id) != nullptr;
}

TimePoint Simulator::fire_time(EventId id) const {
  const Slot* slot = live_slot(id);
  return slot == nullptr ? kTimeInfinity : slot->time;
}

// ---- execution -------------------------------------------------------------

bool Simulator::step() {
  if (peek_live() == nullptr) return false;
  const EventEntry entry = heap_.top();
  heap_.pop();
  Slot* slot = live_slot(entry.id);
  BROADWAY_CHECK(slot != nullptr);
  Callback fn = std::move(slot->fn);
  const std::uint32_t tag = slot->tag;
  release(slot_of(entry.id));
  BROADWAY_CHECK_MSG(entry.time >= now_, "event time went backwards");
  now_ = entry.time;
  entered_ = now_;
  ++executed_;
  // Expose the running event's id for the duration of the callback
  // (callbacks nest only through step()-free paths, so a plain save and
  // restore covers reentrant step() calls too).  The schedule tag reverts
  // to the firing event's tag so follow-on schedules inherit its owner.
  const EventId outer = current_event_;
  const std::uint32_t outer_tag = schedule_tag_;
  current_event_ = entry.id;
  schedule_tag_ = tag;
  fn();
  schedule_tag_ = outer_tag;
  current_event_ = outer;
  return true;
}

Simulator::NextEvent Simulator::next_event_info() {
  NextEvent info;
  const EventEntry* head = peek_live();
  if (head == nullptr) return info;
  const Slot* slot = live_slot(head->id);
  BROADWAY_CHECK(slot != nullptr);
  info.valid = true;
  info.time = head->time;
  info.scheduled_at = slot->scheduled_at;
  info.tag = slot->tag;
  info.seq = head->seq;
  return info;
}

void Simulator::advance_clock(TimePoint t) {
  BROADWAY_CHECK_MSG(t >= now_, "advance_clock into the past: t="
                                    << t << " now=" << now_);
  const EventEntry* head = peek_live();
  BROADWAY_CHECK_MSG(head == nullptr || head->time >= t,
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
  while (true) {
    const EventEntry* head = peek_live();
    if (head == nullptr || head->time > bound ||
        (!inclusive && head->time == bound)) {
      break;
    }
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
  const EventEntry* head = peek_live();
  if (head != nullptr && !(t < head->time)) return false;
  now_ = t;
  entered_ = t;
  return true;
}

}  // namespace broadway
