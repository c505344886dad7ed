// The proxy's object cache.
//
// Entries record not just the payload but the provenance the consistency
// machinery and the evaluation need: when the copy was fetched (the server
// snapshot it represents), when it became visible to clients, and the
// last-modified instant the server reported.  The paper assumes an
// infinitely large cache (§6.1.1), so there is no eviction.
//
// Storage and every lookup are keyed by interned ObjectId in sparse slots
// (util/id_slots.h): a cache costs its entries plus a small id -> slot
// map, never a payload per id of the shared table, so an engine slice
// caching a hundred objects of a large origin pays for a hundred.  A
// caller holding a uri resolves it once through the shared UriTable; the
// uri itself is stored only there.
//
// Entry pointers (find, lookup_counted) and references (refresh_entry) are
// invalidated by the next insert of a new object: look the entry up again
// after anything that may store.
#pragma once

#include <optional>
#include <string>

#include "util/id_slots.h"
#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// One cached object.
struct CacheEntry {
  std::string body;
  /// Server-side instant whose state this copy reflects.
  TimePoint snapshot_time = 0.0;
  /// Proxy-side instant the copy became visible (snapshot + latency).
  TimePoint stored_time = 0.0;
  /// Last-Modified reported by the server for this copy.
  std::optional<TimePoint> last_modified;
  /// Numeric value for value-domain objects.
  std::optional<double> value;
  /// Number of refreshes applied to this entry (0 = initial fetch only).
  std::size_t refresh_count = 0;
};

/// ObjectId-keyed cache.  Monotonicity invariant (paper §2: "we implicitly
/// require all cache consistency mechanisms to ensure that P_t
/// monotonically increases over time"): a refresh must never move an
/// entry's snapshot backwards.
class ProxyCache {
 public:
  /// Cache naming its ids through `table` (a polling engine shares its
  /// origin's).  `table` must outlive the cache.
  explicit ProxyCache(const UriTable& table);

  ProxyCache(const ProxyCache&) = delete;
  ProxyCache& operator=(const ProxyCache&) = delete;

  /// The one write path: return the entry for `id`, creating it if absent
  /// or bumping refresh_count if present, after checking that `snapshot`
  /// does not move the entry backwards.  The caller overwrites payload and
  /// provenance fields in place, reusing their allocations.
  CacheEntry& refresh_entry(ObjectId id, TimePoint snapshot);

  /// Lookup; nullptr on miss (and for kInvalidObjectId).
  const CacheEntry* find(ObjectId id) const;

  std::size_t size() const { return entries_.size(); }

  /// Lookup with hit/miss accounting, for client-facing reads (the
  /// client-traffic hot path: one slot lookup).
  const CacheEntry* lookup_counted(ObjectId id);
  std::size_t hits() const { return hits_; }
  std::size_t misses() const { return misses_; }

 private:
  const UriTable* table_;
  IdSlots<CacheEntry> entries_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace broadway
