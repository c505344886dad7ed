#include "origin/store.h"

#include "util/check.h"

namespace broadway {

VersionedObject& ObjectStore::create(const std::string& uri,
                                     TimePoint creation_time,
                                     std::optional<double> value) {
  BROADWAY_CHECK_MSG(!uris_.frozen(),
                     "origin content is frozen; cannot add " << uri);
  BROADWAY_CHECK_MSG(!contains(uri), "duplicate object " << uri);
  auto object = std::make_unique<VersionedObject>(uri, creation_time, value);
  VersionedObject& created = *object;
  objects_[uris_.intern(uri)] = std::move(object);
  return created;
}

VersionedObject* ObjectStore::find(const std::string& uri) {
  auto* object = objects_.find(uris_.find(uri));
  return object == nullptr ? nullptr : object->get();
}

const VersionedObject* ObjectStore::find(const std::string& uri) const {
  return by_id(uris_.find(uri));
}

}  // namespace broadway
