// Sparse ObjectId-keyed storage: memory proportional to the ids a table
// holds, not to the size of the namespace.
//
// Every per-object table of a proxy — cache entries, poll-log indices,
// tracked objects, fleet fan-out lists — is keyed by the interned ObjectId
// of a table shared with the whole origin.  A vector indexed by that id
// costs one payload per id ever interned, so a sharded engine slice that
// tracks a hundred objects of an eight-thousand-object origin would pay
// for eight thousand.  IdSlots stores payloads densely, in first-insert
// order, and maps an id to its slot through one of two indexes, chosen by
// how densely the held ids cover [0, largest id]:
//
//  * dense — a std::vector<uint32_t> indexed by id (one load per lookup),
//    kept while that span is at most 16x the entries: 4 B per id of the
//    span, at most 64 B per entry;
//  * sparse — an open-addressing table (power-of-two buckets, load <= 1/4,
//    linear probing, Fibonacci hashing of the id): 32-64 B of buckets per
//    entry and nothing per absent id.  The low load keeps probe runs
//    short, so a miss — the common answer in a slice asked about another
//    slice's objects — usually ends at the first bucket.  A sparse table
//    turns dense once the span is at most 8x the entries, where the dense
//    index is the smaller of the two; the gap between the two thresholds
//    keeps inserts near one of them from rebuilding on every call.
//
// An engine that tracks nearly every id of its table stays dense; a slice
// that tracks a scattered few stays sparse.  Either way the table also
// keeps each entry's id (4 B) in first-insert order.  Payload pointers and
// references are invalidated by the next insert (the payload vector may
// grow) and by clear(); re-find after inserting.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/uri_table.h"

namespace broadway {

template <typename T>
class IdSlots {
 public:
  /// slot_of() result for an absent id.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Slot of `id` (its position in first-insert order), or kNoSlot.
  std::uint32_t slot_of(ObjectId id) const {
    if (id < dense_.size()) return dense_[id];
    // Dense and past the span, or empty: either way buckets_ is empty.
    if (buckets_.empty()) return kNoSlot;
    const std::size_t mask = buckets_.size() - 1;
    for (std::size_t b = home(id);; b = (b + 1) & mask) {
      const std::uint64_t entry = buckets_[b];
      // An empty bucket reads as (kInvalidObjectId, kNoSlot), so looking
      // up kInvalidObjectId itself lands here too and reports absence.
      if (static_cast<ObjectId>(entry >> 32) == id ||
          entry == kEmptyBucket) {
        return static_cast<std::uint32_t>(entry);
      }
    }
  }

  /// Payload of `id`; nullptr when absent.
  T* find(ObjectId id) {
    const std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &values_[slot];
  }
  const T* find(ObjectId id) const {
    const std::uint32_t slot = slot_of(id);
    return slot == kNoSlot ? nullptr : &values_[slot];
  }
  bool contains(ObjectId id) const { return slot_of(id) != kNoSlot; }

  /// Payload of `id`, value-initialised on first insert; `second` is true
  /// when this call inserted it.
  std::pair<T&, bool> try_emplace(ObjectId id) {
    const std::uint32_t slot = slot_of(id);
    if (slot != kNoSlot) return {values_[slot], false};
    BROADWAY_CHECK_MSG(id != kInvalidObjectId, "IdSlots: invalid id");
    span_ = std::max<std::size_t>(span_, std::size_t{id} + 1);
    ids_.push_back(id);
    values_.emplace_back();
    index_last();
    return {values_.back(), true};
  }
  T& operator[](ObjectId id) { return try_emplace(id).first; }

  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// True while the dense index is in use (tests and diagnostics).
  bool dense() const { return !dense_.empty(); }

  /// Ids in first-insert order (ids()[slot] is the id stored at `slot`).
  const std::vector<ObjectId>& ids() const { return ids_; }

  /// Payloads in first-insert order.
  auto begin() { return values_.begin(); }
  auto end() { return values_.end(); }
  auto begin() const { return values_.begin(); }
  auto end() const { return values_.end(); }

  /// Drop every payload and id.
  void clear() {
    dense_.clear();
    buckets_.clear();
    ids_.clear();
    values_.clear();
    span_ = 0;
  }

 private:
  static constexpr std::uint64_t kEmptyBucket = ~std::uint64_t{0};
  static constexpr std::size_t kMinBuckets = 8;
  static constexpr std::size_t kToDense = 8;    // sparse -> dense: span <= 8n
  static constexpr std::size_t kToSparse = 16;  // dense -> sparse: span > 16n
  static constexpr std::size_t kBucketsPerEntry = 4;  // load <= 1/4

  // Index the newest entry, switching index kind when the span crosses
  // the current kind's threshold.
  void index_last() {
    const std::size_t entries = ids_.size();
    const auto slot = static_cast<std::uint32_t>(entries - 1);
    const bool dense = dense_.empty() ? span_ <= kToDense * entries
                                      : span_ <= kToSparse * entries;
    if (dense && dense_.empty()) {
      buckets_ = {};
      dense_.assign(span_, kNoSlot);
      for (std::size_t s = 0; s < entries; ++s) {
        dense_[ids_[s]] = static_cast<std::uint32_t>(s);
      }
    } else if (dense) {
      if (dense_.size() < span_) dense_.resize(span_, kNoSlot);
      dense_[ids_.back()] = slot;
    } else if (!dense_.empty() ||
               kBucketsPerEntry * entries > buckets_.size()) {
      dense_ = {};
      rehash(std::max(kMinBuckets, std::bit_ceil(kBucketsPerEntry * entries)));
    } else {
      place(ids_.back(), slot);
    }
  }

  std::size_t home(ObjectId id) const {
    return static_cast<std::size_t>(
        (std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void place(ObjectId id, std::uint32_t slot) {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = home(id);
    while (buckets_[b] != kEmptyBucket) b = (b + 1) & mask;
    buckets_[b] = (std::uint64_t{id} << 32) | slot;
  }

  // Rebuild the sparse index over every entry with `buckets` buckets.
  void rehash(std::size_t buckets) {
    buckets_.assign(buckets, kEmptyBucket);
    shift_ = 64 - std::countr_zero(buckets);
    for (std::size_t s = 0; s < ids_.size(); ++s) {
      place(ids_[s], static_cast<std::uint32_t>(s));
    }
  }

  std::vector<std::uint32_t> dense_;    // id -> slot; empty when sparse
  std::vector<std::uint64_t> buckets_;  // (id << 32 | slot), or empty
  unsigned shift_ = 64;                 // 64 - log2(buckets_.size())
  std::size_t span_ = 0;                // largest id held + 1
  std::vector<ObjectId> ids_;           // first-insert order
  std::vector<T> values_;               // parallel to ids_
};

}  // namespace broadway
