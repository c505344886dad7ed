// A versioned web object as the origin server sees it.
//
// Version numbering follows the paper (§2): version 0 at creation,
// incremented on each update; the proxy's version is the server version it
// last fetched.  The object keeps its full modification history so the
// server can answer the paper's proposed X-Modification-History extension
// and so tests can validate proxy-side inference against ground truth.
//
// Trace-backed objects: the origin queues a replayed trace on its object
// (queue_updates), and catch_up() applies the queued updates that are due
// whenever the object is read.  An object nobody reads costs nothing; a
// polled one costs one cursor step per update.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "util/time.h"

namespace broadway {

/// One origin-side object.  Mutated only through `apply_update` (directly
/// or by catching up queued trace updates), which enforces monotone time
/// and version growth.
class VersionedObject {
 public:
  /// Create version 0 at `creation_time`.  `value` is the numeric payload
  /// of value-domain objects (stock price); temporal-domain objects carry
  /// no value.
  VersionedObject(std::string uri, TimePoint creation_time,
                  std::optional<double> value = std::nullopt);

  const std::string& uri() const { return uri_; }

  /// Current version number (0-based; equals number of updates applied).
  std::size_t version() const { return modifications_.size(); }

  /// Instant of the most recent modification (creation time for version 0).
  TimePoint last_modified() const;

  /// Numeric value, if this is a value-domain object.
  std::optional<double> value() const { return value_; }

  /// Whether the object has been modified strictly after `t`.
  bool modified_since(TimePoint t) const { return last_modified() > t; }

  /// Apply an update at time `t` (must be >= last_modified()).  For
  /// value-domain objects pass the new value.
  void apply_update(TimePoint t, std::optional<double> new_value = std::nullopt);

  /// Queue trace updates for catch_up() to apply.  `times` must be
  /// non-decreasing and not before last_modified(); `values` is empty for
  /// temporal objects, else parallel to `times`.  An object replays one
  /// trace at a time: the previous one must be fully applied.
  void queue_updates(std::vector<TimePoint> times,
                     std::vector<double> values = {});

  /// Apply the queued updates due by `now`: every one before `now`, and
  /// those exactly at `now` too when `inclusive`.  Cheap when nothing is
  /// due.
  void catch_up(TimePoint now, bool inclusive) {
    if (next_queued_ >= queued_times_.size()) return;
    const TimePoint next = queued_times_[next_queued_];
    if (next < now || (inclusive && next == now)) {
      apply_queued(now, inclusive);
    }
  }

  /// Queued updates not yet applied.
  std::size_t queued() const { return queued_times_.size() - next_queued_; }

  /// Modification instants strictly after `t`, oldest first, capped at
  /// `limit` *most recent* entries (0 = no cap).  This is the payload of
  /// the X-Modification-History extension.
  std::vector<TimePoint> history_since(TimePoint t, std::size_t limit) const;

  /// The same selection as history_since, but as a zero-copy span of
  /// *millisecond-quantised* instants — exactly the values a proxy would
  /// read back from the rendered header.  Valid until the next
  /// apply_update(); the typed wire path points ResponseMeta at it.
  struct WireHistorySpan {
    const TimePoint* data = nullptr;
    std::size_t size = 0;
  };
  WireHistorySpan wire_history_since(TimePoint t, std::size_t limit) const;

  /// Millisecond-quantised last_modified(), as the wire reports it.
  TimePoint wire_last_modified() const { return wire_last_modified_; }

  /// Full modification history (ascending).  Ground truth for tests.
  const std::vector<TimePoint>& modifications() const {
    return modifications_;
  }

  TimePoint creation_time() const { return creation_time_; }

  /// Synthesised HTML body for the current version, embedding the version
  /// stamp and any declared related links (used by the syntactic grouping
  /// machinery and by examples).
  std::string render_body() const;

  /// Declare embedded objects that render_body() should reference, e.g.
  /// images accompanying a news story (paper §1 example 1).
  void set_embedded_links(std::vector<std::string> links);
  const std::vector<std::string>& embedded_links() const {
    return embedded_links_;
  }

 private:
  std::string uri_;
  TimePoint creation_time_;
  std::vector<TimePoint> modifications_;
  /// modifications_, ms-quantised once per update (index-aligned).  The
  /// history *selection* always compares the exact instants so the typed
  /// span matches history_since entry for entry; only the transported
  /// values are quantised.
  std::vector<TimePoint> wire_modifications_;
  TimePoint wire_last_modified_;
  std::optional<double> value_;
  std::vector<std::string> embedded_links_;
  /// Trace updates not yet applied start at next_queued_; the vectors are
  /// released once the last one is.
  std::vector<TimePoint> queued_times_;
  std::vector<double> queued_values_;  ///< empty for temporal objects
  std::size_t next_queued_ = 0;

  void apply_queued(TimePoint now, bool inclusive);
};

}  // namespace broadway
