#include "proxy/cache.h"

#include "util/check.h"

namespace broadway {

ProxyCache::ProxyCache(const UriTable& table) : table_(&table) {}

CacheEntry& ProxyCache::refresh_entry(ObjectId id, TimePoint snapshot) {
  auto [existing, inserted] = entries_.try_emplace(id);
  if (inserted) return existing;
  BROADWAY_CHECK_MSG(snapshot >= existing.snapshot_time,
                     table_->uri(id) << ": snapshot would move backwards");
  ++existing.refresh_count;
  return existing;
}

const CacheEntry* ProxyCache::find(ObjectId id) const {
  return entries_.find(id);
}

const CacheEntry* ProxyCache::lookup_counted(ObjectId id) {
  const CacheEntry* entry = find(id);
  if (entry != nullptr) {
    ++hits_;
  } else {
    ++misses_;
  }
  return entry;
}

}  // namespace broadway
