// A versioned web object as the origin server sees it.
//
// Version numbering follows the paper (§2): version 0 at creation,
// incremented on each update; the proxy's version is the server version it
// last fetched.  The object keeps its full modification history so the
// server can answer the paper's proposed X-Modification-History extension
// and so tests can validate proxy-side inference against ground truth.
//
// Trace-backed and immutable: an object holds its creation time and value
// plus every update instant (and value) of its trace, and the state a
// reader sees is a pure function of the reader's clock — version n has the
// trace's first n updates applied (ObjectVersion).  Nothing is replayed
// and nothing mutates on read, so any number of simulators may read one
// object concurrently once its content is built.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/time.h"

namespace broadway {

class VersionedObject;

/// One object as a reader sees it: the first `version()` updates of its
/// trace applied.  A cheap view, valid while the object lives.
class ObjectVersion {
 public:
  ObjectVersion(const VersionedObject& object, std::size_t version)
      : object_(&object), version_(version) {}

  const VersionedObject& object() const { return *object_; }

  /// Version number (0-based; equals the number of updates applied).
  std::size_t version() const { return version_; }

  /// Instant of the most recent modification (creation time for version 0).
  TimePoint last_modified() const;

  /// Numeric value, if this is a value-domain object.
  std::optional<double> value() const;

  /// Whether the object has been modified strictly after `t`.
  bool modified_since(TimePoint t) const { return last_modified() > t; }

  /// Modification instants strictly after `t`, oldest first, capped at
  /// `limit` *most recent* entries (0 = no cap).  This is the payload of
  /// the X-Modification-History extension (exact, not ms-quantised).
  std::span<const TimePoint> history_since(TimePoint t,
                                           std::size_t limit) const;

  /// Synthesised HTML body for this version, embedding the version stamp
  /// and any declared related links (used by the syntactic grouping
  /// machinery and by examples).
  std::string render_body() const;

 private:
  const VersionedObject* object_;
  std::size_t version_;
};

/// One origin-side object: creation state plus its update trace.  Built
/// through `append_updates`, which enforces monotone time; read through
/// `at`.
class VersionedObject {
 public:
  /// Create version 0 at `creation_time`.  `value` is the numeric payload
  /// of value-domain objects (stock price); temporal-domain objects carry
  /// no value.
  VersionedObject(std::string uri, TimePoint creation_time,
                  std::optional<double> value = std::nullopt);

  const std::string& uri() const { return uri_; }
  TimePoint creation_time() const { return creation_time_; }

  /// Append trace updates.  `times` must be non-decreasing and not before
  /// the last update (or the creation time); `values` is empty for
  /// temporal objects, else parallel to `times`.
  void append_updates(std::vector<TimePoint> times,
                      std::vector<double> values = {});

  /// Every update instant of the trace, ascending — due or not.
  const std::vector<TimePoint>& updates() const { return times_; }

  /// The object as a reader at `now` sees it: every update before `now`
  /// applied, and those exactly at `now` too when `inclusive`.  `from`
  /// is a hint — typically the version the reader saw at an earlier
  /// clock — that the search gallops from (util/gallop.h): any hint gives
  /// the same answer, one d versions away costs O(log d).
  ObjectVersion at(TimePoint now, bool inclusive, std::size_t from = 0) const;

  /// Declare embedded objects that render_body() should reference, e.g.
  /// images accompanying a news story (paper §1 example 1).
  void set_embedded_links(std::vector<std::string> links);
  const std::vector<std::string>& embedded_links() const {
    return embedded_links_;
  }

 private:
  friend class ObjectVersion;

  std::string uri_;
  TimePoint creation_time_;
  std::optional<double> initial_value_;
  std::vector<TimePoint> times_;
  std::vector<double> values_;  ///< empty for temporal objects
  std::vector<std::string> embedded_links_;
};

}  // namespace broadway
