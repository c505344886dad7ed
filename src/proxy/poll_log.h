// The proxy's poll log: the append-only record stream the paper's
// evaluation is computed from, with per-object indices and running
// counters.
//
// Every poll of every tracked object — temporal, value, virtual-group
// member or partitioned-group member — is appended here by the engine's
// single poll pipeline.  The harness sweeps query per-object series
// (the successful records of an object) and per-object counters (polls
// performed, triggered polls) after every run; indexing at append time
// turns those from O(total-polls) scans of the global log into
// O(records-for-object) and O(1) lookups respectively.
//
// Records, the index and every per-object query are keyed by interned
// ObjectId: a record enters only through append(ObjectId, ...), which
// points the record's human-readable uri at the shared table's string,
// and a caller holding a uri resolves it once through that table.  A
// record is a 32-byte trivially copyable value (two instants, the uri
// reference, the id, the cause and two flags), so a run pays 32 B per
// poll plus 4 B per successful poll in the per-object index.  The
// per-object index lives in sparse slots (util/id_slots.h), so a log
// costs its records plus one index per object it has actually seen,
// however many ids the shared table holds.
//
// Long-horizon runs can cap memory with a retention window
// (set_retention_window): each object keeps only its newest W records,
// while every counter remains exact — eviction compacts storage in
// place, it never rewinds accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <type_traits>
#include <vector>

#include "consistency/types.h"
#include "util/id_slots.h"
#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// One completed (or failed) poll: 32 bytes, trivially copyable.
struct PollRecord {
  /// Server-state instant the response reflects (fire time).
  TimePoint snapshot_time = 0.0;
  /// Instant the refreshed copy became visible at the proxy.
  TimePoint complete_time = 0.0;
  /// The polled object's uri: a reference to the string of the table the
  /// log resolves ids through (set by PollLog::append).  Valid only while
  /// that table lives — a record copied out of a finished run must not
  /// read it after the run's table is gone; key such copies by `object`.
  /// Kept for the benchmark's private-object join, which looks records up
  /// by uri; once that join keys on `object`, this member goes and the
  /// record shrinks to 24 B.
  std::reference_wrapper<const std::string> uri;
  /// Interned id of `uri`.
  ObjectId object = kInvalidObjectId;
  PollCause cause = PollCause::kScheduled;
  /// True when the server answered 200.
  bool modified = false;
  /// True when the poll was lost (no other fields beyond uri/cause/time
  /// are meaningful).
  bool failed = false;
};

static_assert(sizeof(PollRecord) == 32 &&
                  std::is_trivially_copyable_v<PollRecord>,
              "PollRecord is 8+8+8+4+1+1+1 bytes, copied as raw memory");

/// Append-only, indexed poll log.  Reads behave like the plain record
/// vector this class replaces (size/operator[]/iteration), and the indexed
/// queries answer the evaluation's per-object questions without scanning
/// other objects' records.
class PollLog {
 public:
  /// Log resolving ids through `table` (a polling engine shares its
  /// origin's).  `table` must outlive the log.
  explicit PollLog(UriTable& table);

  PollLog(const PollLog&) = delete;
  PollLog& operator=(const PollLog&) = delete;
  PollLog(PollLog&&) = default;
  PollLog& operator=(PollLog&&) = default;

  /// Append one record, updating the per-object index and the counters:
  /// no string hashing, one slot lookup.  `object` must be an id of the
  /// table; the record's uri refers to the table's string for it.  A log
  /// holds fewer than 2^32 records (the index stores 32-bit positions).
  void append(ObjectId object, PollCause cause, bool modified, bool failed,
              TimePoint snapshot, TimePoint complete);

  // ---- whole-log access (vector-compatible) ----

  const std::vector<PollRecord>& records() const { return records_; }
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const PollRecord& operator[](std::size_t index) const {
    return records_[index];
  }
  std::vector<PollRecord>::const_iterator begin() const {
    return records_.begin();
  }
  std::vector<PollRecord>::const_iterator end() const {
    return records_.end();
  }

  /// The intern table this log resolves uris through.
  const UriTable& uri_table() const { return *table_; }

  // ---- per-object indexed queries ----

  /// Indices (into records()) of the successful polls of `object`,
  /// including the initial fetch, ascending.  Empty for an object that
  /// was never polled.
  const std::vector<std::uint32_t>& successful_records(
      ObjectId object) const {
    return index_of(object).successful;
  }

  // ---- O(1) counters (exact even under a retention window) ----
  //
  // Each counter comes as a total over all objects and a per-object
  // form; an object the log has never seen counts 0.

  /// Successful polls excluding initial fetches — the paper's "number of
  /// polls" metric.  Relay refreshes (PollCause::kRelay) are *not*
  /// counted: they refresh the cached copy without an origin message, so
  /// they are not polls in the paper's sense.
  std::size_t polls_performed() const { return performed_total_; }
  std::size_t polls_performed(ObjectId object) const {
    return index_of(object).performed;
  }

  /// Successful triggered polls (the mutual-consistency overhead).
  std::size_t triggered_polls() const { return triggered_total_; }
  std::size_t triggered_polls(ObjectId object) const {
    return index_of(object).triggered;
  }

  /// Refreshes applied from sibling-proxy relays (cooperative push).
  std::size_t relay_refreshes() const { return relay_total_; }
  std::size_t relay_refreshes(ObjectId object) const {
    return index_of(object).relays;
  }

  /// Successful demand fills (PollCause::kClientMiss): origin fetches
  /// triggered by a client read that missed the cache.  A subset of
  /// polls_performed() — demand fills are real origin polls — split out
  /// so accounting can separate policy-driven polls from demand-driven
  /// ones (`polls_performed == policy polls + demand_fills`).
  std::size_t demand_fills() const { return demand_total_; }
  std::size_t demand_fills(ObjectId object) const {
    return index_of(object).demand;
  }

  /// Successful initial fetches, all objects.
  std::size_t initial_polls() const { return initial_total_; }

  /// Failed (lost) poll attempts, all objects.
  std::size_t failed_polls() const { return failed_total_; }

  /// Records evicted by the retention window since construction (total
  /// appended minus retained).  0 on a full log; evaluations that replay
  /// the record *series* (read_transactions) fail fast when this is
  /// non-zero.
  std::size_t dropped_records() const {
    return initial_total_ + performed_total_ + relay_total_ + failed_total_ -
           records_.size();
  }

  // ---- windowed retention ----

  /// Keep at most `window` records (of any kind) per object, evicting the
  /// oldest; 0 (the default) disables eviction.  Counters stay exact;
  /// per-object record *series* (successful_records) are truncated to the
  /// retained window, so long-horizon fleet runs that only need counters
  /// stop growing without bound.  May be set at any
  /// time; an over-budget log compacts on the next append (or compact()).
  void set_retention_window(std::size_t window);
  std::size_t retention_window() const { return window_; }

  /// Force eviction of everything beyond the window now (no-op when the
  /// window is 0 or nothing is evictable).  Compacts in place: the kept
  /// records slide down over the evicted ones, no second log is built.
  void compact();

 private:
  struct UriIndex {
    std::vector<std::uint32_t> successful;  ///< record indices, !failed
    std::size_t performed = 0;  ///< successful, non-initial origin
    std::size_t triggered = 0;  ///< successful, kTriggered
    std::size_t relays = 0;     ///< successful, kRelay
    std::size_t demand = 0;     ///< successful, kClientMiss
    std::size_t live = 0;       ///< records currently retained
  };

  /// The object's index; an empty one when the object has no records.
  const UriIndex& index_of(ObjectId object) const;

  void count(UriIndex& index, const PollRecord& record);
  void maybe_compact();

  UriTable* table_;
  std::vector<PollRecord> records_;
  IdSlots<UriIndex> by_id_;
  std::size_t performed_total_ = 0;
  std::size_t triggered_total_ = 0;
  std::size_t relay_total_ = 0;
  std::size_t demand_total_ = 0;
  std::size_t initial_total_ = 0;
  std::size_t failed_total_ = 0;
  std::size_t window_ = 0;
  std::size_t evictable_ = 0;  ///< records beyond their object's window
};

}  // namespace broadway
