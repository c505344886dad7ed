#include "proxy/poll_log.h"

#include <algorithm>

#include "util/check.h"

namespace broadway {

namespace {
// Compaction runs when at least this many records are evictable AND they
// are at least half the log — amortised O(1) per append.
constexpr std::size_t kMinCompactSlack = 64;

// The `field` of each record in `indices`, in order.
std::vector<TimePoint> record_times(const std::vector<PollRecord>& records,
                                    const std::vector<std::size_t>& indices,
                                    TimePoint PollRecord::*field) {
  std::vector<TimePoint> out;
  out.reserve(indices.size());
  for (const std::size_t i : indices) out.push_back(records[i].*field);
  return out;
}

}  // namespace

PollLog::PollLog(UriTable& table) : table_(&table) {}

void PollLog::count(UriIndex& index, const PollRecord& record) {
  ++index.live;
  if (window_ > 0 && index.live > window_) ++evictable_;
  if (record.failed) {
    ++failed_total_;
    return;
  }
  index.successful.push_back(records_.size());
  if (record.cause == PollCause::kRelay) {
    // A relay refreshes the copy without an origin message: it appears
    // in the successful-record series (the evaluation sees the refresh)
    // but not in the origin-poll counters.
    ++index.relays;
    ++relay_total_;
  } else if (record.cause == PollCause::kInitial) {
    ++initial_total_;
  } else {
    ++index.performed;
    ++performed_total_;
  }
  if (record.cause == PollCause::kTriggered) {
    ++index.triggered;
    ++triggered_total_;
  } else if (record.cause == PollCause::kClientMiss) {
    ++index.demand;
    ++demand_total_;
  }
}

void PollLog::append(ObjectId object, PollCause cause, bool modified,
                     bool failed, TimePoint snapshot, TimePoint complete) {
  PollRecord record;
  record.snapshot_time = snapshot;
  record.complete_time = complete;
  record.uri = table_->uri(object);
  record.object = object;
  record.cause = cause;
  record.modified = modified;
  record.failed = failed;
  count(by_id_[object], record);
  records_.push_back(std::move(record));
  maybe_compact();
}

const PollLog::UriIndex& PollLog::index_of(ObjectId object) const {
  static const UriIndex kNoRecords;
  const UriIndex* index = by_id_.find(object);
  return index == nullptr ? kNoRecords : *index;
}

std::vector<TimePoint> PollLog::completion_times(ObjectId object) const {
  return record_times(records_, successful_records(object),
                      &PollRecord::complete_time);
}

std::vector<TimePoint> PollLog::snapshot_times(ObjectId object) const {
  return record_times(records_, successful_records(object),
                      &PollRecord::snapshot_time);
}

void PollLog::set_retention_window(std::size_t window) {
  window_ = window;
  evictable_ = 0;
  if (window_ == 0) return;
  for (const UriIndex& index : by_id_) {
    if (index.live > window_) evictable_ += index.live - window_;
  }
  maybe_compact();
}

void PollLog::maybe_compact() {
  if (window_ == 0 || evictable_ < kMinCompactSlack) return;
  if (evictable_ * 2 < records_.size()) return;
  compact();
}

void PollLog::compact() {
  if (window_ == 0 || evictable_ == 0) return;
  // Per-object: drop the oldest (live - window) records.  One forward
  // pass keeps relative order, so the rebuilt successful indices stay
  // ascending in both record order and time.  Drop counts are kept per
  // index slot, one lookup per record.
  std::vector<std::size_t> drop;
  drop.reserve(by_id_.size());
  for (const UriIndex& index : by_id_) {
    drop.push_back(index.live > window_ ? index.live - window_ : 0);
  }
  std::vector<PollRecord> kept;
  kept.reserve(records_.size() - evictable_);
  for (PollRecord& record : records_) {
    const std::uint32_t slot = by_id_.slot_of(record.object);
    BROADWAY_CHECK(slot != IdSlots<UriIndex>::kNoSlot);
    if (drop[slot] > 0) {
      --drop[slot];
      continue;
    }
    kept.push_back(std::move(record));
  }
  records_ = std::move(kept);
  // Rebuild the positional state (successful indices, live counts); the
  // running counters are *totals* and must survive eviction untouched.
  for (UriIndex& index : by_id_) {
    index.successful.clear();
    index.live = 0;
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    UriIndex& index = *by_id_.find(records_[i].object);
    ++index.live;
    if (!records_[i].failed) index.successful.push_back(i);
  }
  evictable_ = 0;
}

}  // namespace broadway
