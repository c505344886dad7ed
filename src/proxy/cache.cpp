#include "proxy/cache.h"

#include <algorithm>

#include "util/check.h"

namespace broadway {

ProxyCache::ProxyCache(UriTable& table) : table_(&table) {}

void ProxyCache::store(CacheEntry entry) {
  BROADWAY_CHECK_MSG(!entry.uri.empty(), "cache entry without uri");
  auto [existing, inserted] = entries_.try_emplace(table_->intern(entry.uri));
  if (!inserted) {
    BROADWAY_CHECK_MSG(entry.snapshot_time >= existing.snapshot_time,
                       entry.uri << ": snapshot would move backwards");
    entry.refresh_count = existing.refresh_count + 1;
  }
  existing = std::move(entry);
}

CacheEntry& ProxyCache::refresh_entry(ObjectId id, TimePoint snapshot) {
  auto [existing, inserted] = entries_.try_emplace(id);
  if (inserted) {
    existing.uri = table_->uri(id);
    return existing;
  }
  BROADWAY_CHECK_MSG(snapshot >= existing.snapshot_time,
                     existing.uri << ": snapshot would move backwards");
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

std::vector<std::string> ProxyCache::uris() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const CacheEntry& entry : entries_) out.push_back(entry.uri);
  std::sort(out.begin(), out.end());
  return out;
}

void ProxyCache::clear() {
  entries_.clear();
}

}  // namespace broadway
