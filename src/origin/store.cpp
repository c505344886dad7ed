#include "origin/store.h"

#include <algorithm>

#include "util/check.h"

namespace broadway {

VersionedObject& ObjectStore::create(const std::string& uri,
                                     TimePoint creation_time,
                                     std::optional<double> value) {
  BROADWAY_CHECK_MSG(!uris_.frozen(),
                     "origin content is frozen; cannot add " << uri);
  BROADWAY_CHECK_MSG(!contains(uri), "duplicate object " << uri);
  auto object = std::make_unique<VersionedObject>(uri, creation_time, value);
  const ObjectId id = uris_.intern(uri);
  if (objects_.size() <= id) objects_.resize(id + 1);
  objects_[id] = std::move(object);
  ++size_;
  return *objects_[id];
}

VersionedObject* ObjectStore::find(const std::string& uri) {
  const ObjectId id = uris_.find(uri);
  return id < objects_.size() ? objects_[id].get() : nullptr;
}

const VersionedObject* ObjectStore::find(const std::string& uri) const {
  return by_id(uris_.find(uri));
}

const VersionedObject& ObjectStore::at(const std::string& uri) const {
  const VersionedObject* object = find(uri);
  BROADWAY_CHECK_MSG(object != nullptr, "no such object " << uri);
  return *object;
}

std::vector<std::string> ObjectStore::uris() const {
  std::vector<std::string> out;
  out.reserve(size_);
  for (const auto& object : objects_) {
    if (object != nullptr) out.push_back(object->uri());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace broadway
