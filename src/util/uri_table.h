// Uri interning: dense ObjectId handles for the poll hot path.
//
// A UriTable interns each uri once and hands out a dense uint32 ObjectId;
// the origin store, the proxy cache, the poll log, the coordinators and
// the fleet relay path all key their tables by that id, through IdSlots
// (util/id_slots.h), which costs what a table holds rather than one entry
// per id of the table.  ObjectId is the one key of every per-object query.
// Uris are resolved here once, at the edges that keep them: registration,
// δ-group member lists, printed reports and the HTTP and trace surfaces
// (`find(uri)`); `uri(id)` gives the string back for reports.
//
// Storage is a deque so interned strings never move: `uri(id)` references
// and the string_views handed to PollRecord stay valid for the life of the
// table.  Tables are append-only (a web origin retires content by updating
// it, not deleting it — see ObjectStore), so ids are stable forever.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace broadway {

/// Dense handle for an interned uri.  Ids count up from 0 in intern order.
using ObjectId = std::uint32_t;

/// "No object": returned by find() for unknown uris, and the default of
/// id-carrying records.  Per-object queries answer it as an object they
/// have never seen.
inline constexpr ObjectId kInvalidObjectId = 0xffffffffu;

/// Append-only intern table mapping uri <-> ObjectId.
class UriTable {
 public:
  UriTable() = default;

  // Interned views point into this table; moving or copying it would
  // silently detach every id already handed out.
  UriTable(const UriTable&) = delete;
  UriTable& operator=(const UriTable&) = delete;

  /// Id for `uri`, interning it first if unseen.  On a frozen table a
  /// known uri degrades to a lookup; an unseen one is a hard error.
  ObjectId intern(std::string_view uri);

  /// Seal the table: every object the simulation will ever touch must be
  /// interned by now.  After freeze() the table is immutable, so lookups
  /// (find / uri / contains, and intern of already-known uris) are safe
  /// from any number of threads without synchronisation; interning a NEW
  /// uri throws CheckFailure.  Idempotent.
  void freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

  /// Id for `uri` if already interned; kInvalidObjectId otherwise.
  ObjectId find(std::string_view uri) const;

  /// The interned uri string.  The reference is stable for the life of the
  /// table.  `id` must be a value this table returned.
  const std::string& uri(ObjectId id) const;

  /// Number of interned uris (== the smallest id not yet in use).
  std::size_t size() const { return uris_.size(); }

  bool contains(std::string_view uri) const {
    return find(uri) != kInvalidObjectId;
  }

 private:
  std::deque<std::string> uris_;  // deque: element addresses never move
  std::unordered_map<std::string_view, ObjectId> index_;  // views into uris_
  bool frozen_ = false;
};

}  // namespace broadway
