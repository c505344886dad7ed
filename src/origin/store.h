// Object store: the origin's content — its versioned objects and the uri
// intern table every co-located consumer shares.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "origin/object.h"
#include "util/id_slots.h"
#include "util/uri_table.h"

namespace broadway {

/// Owning uri -> VersionedObject map, keyed by the interned ObjectId.
/// Pointers returned by `find` stay valid for the life of the store
/// (objects are never removed; a web origin in this model retires content
/// by updating it, not deleting it).  Once the table is frozen no object
/// may be created; reads are then safe from any number of threads.
class ObjectStore {
 public:
  /// Create an object; throws via BROADWAY_CHECK if the uri already exists
  /// or the table is frozen.
  VersionedObject& create(const std::string& uri, TimePoint creation_time,
                          std::optional<double> value = std::nullopt);

  /// Lookup; nullptr if absent.
  VersionedObject* find(const std::string& uri);
  const VersionedObject* find(const std::string& uri) const;

  /// Lookup by interned id; nullptr when the table interned a uri this
  /// store does not host (e.g. a proxy-only registration).  O(1).
  const VersionedObject* by_id(ObjectId id) const {
    const auto* object = objects_.find(id);
    return object == nullptr ? nullptr : object->get();
  }

  bool contains(const std::string& uri) const {
    return find(uri) != nullptr;
  }

  std::size_t size() const { return objects_.size(); }

  /// All uris, sorted (deterministic iteration for tests and reports).
  std::vector<std::string> uris() const;

  UriTable& uri_table() { return uris_; }
  const UriTable& uri_table() const { return uris_; }

 private:
  UriTable uris_;
  /// ObjectId -> object, for the ids this store hosts (the table may also
  /// hold proxy-only registrations).
  IdSlots<std::unique_ptr<VersionedObject>> objects_;
};

}  // namespace broadway
