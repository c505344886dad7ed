#include "proxy/poll_log.h"

#include <cstdint>
#include <limits>

#include "util/check.h"

namespace broadway {

namespace {
// Compaction runs when at least this many records are evictable AND they
// are at least half the log — amortised O(1) per append.
constexpr std::size_t kMinCompactSlack = 64;
}  // namespace

PollLog::PollLog(UriTable& table) : table_(&table) {}

void PollLog::count(UriIndex& index, const PollRecord& record) {
  ++index.live;
  if (window_ > 0 && index.live > window_) ++evictable_;
  if (record.failed) {
    ++failed_total_;
    return;
  }
  index.successful.push_back(static_cast<std::uint32_t>(records_.size()));
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
  BROADWAY_CHECK_MSG(
      records_.size() < std::numeric_limits<std::uint32_t>::max(),
      "poll log full: the index holds 32-bit positions");
  const PollRecord record{.snapshot_time = snapshot,
                          .complete_time = complete,
                          .uri = table_->uri(object),
                          .object = object,
                          .cause = cause,
                          .modified = modified,
                          .failed = failed};
  count(by_id_[object], record);
  records_.push_back(record);
  maybe_compact();
}

const PollLog::UriIndex& PollLog::index_of(ObjectId object) const {
  static const UriIndex kNoRecords;
  const UriIndex* index = by_id_.find(object);
  return index == nullptr ? kNoRecords : *index;
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
  // pass slides each kept record down to a write cursor, which keeps
  // relative order, so the rebuilt successful indices stay ascending in
  // both record order and time.  Drop counts are kept per index slot, one
  // lookup per record.  The running counters are *totals* and survive
  // eviction untouched; only the positional state (successful indices,
  // live counts) is rebuilt.
  std::vector<std::size_t> drop;
  drop.reserve(by_id_.size());
  for (UriIndex& index : by_id_) {
    drop.push_back(index.live > window_ ? index.live - window_ : 0);
    index.successful.clear();
    index.live = 0;
  }
  const auto index_at = by_id_.begin();
  std::size_t kept = 0;
  for (const PollRecord& record : records_) {
    const std::uint32_t slot = by_id_.slot_of(record.object);
    BROADWAY_CHECK(slot != IdSlots<UriIndex>::kNoSlot);
    if (drop[slot] > 0) {
      --drop[slot];
      continue;
    }
    UriIndex& index = index_at[slot];
    ++index.live;
    if (!record.failed) {
      index.successful.push_back(static_cast<std::uint32_t>(kept));
    }
    records_[kept++] = record;
  }
  records_.erase(records_.begin() + static_cast<std::ptrdiff_t>(kept),
                 records_.end());
  evictable_ = 0;
}

}  // namespace broadway
