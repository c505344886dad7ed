#include "proxy/client.h"

#include "util/check.h"

namespace broadway {

ClientWorkload::Config ClientWorkload::Config::from_uris(
    const OriginServer& origin, double request_rate,
    const std::map<std::string, double>& popularity, std::uint64_t seed) {
  Config config;
  config.request_rate = request_rate;
  config.seed = seed;
  config.popularity.reserve(popularity.size());
  for (const auto& [uri, weight] : popularity) {
    const ObjectId id = origin.uri_table().find(uri);
    BROADWAY_CHECK_MSG(id != kInvalidObjectId,
                       uri << " is not interned at the origin");
    config.popularity.push_back({id, weight});
  }
  return config;
}

ClientWorkload::ClientWorkload(Simulator& sim, ProxyCache& cache,
                               const OriginServer& origin, Config config)
    : sim_(sim),
      cache_(cache),
      origin_(origin),
      config_(std::move(config)),
      rng_(config_.seed),
      task_(sim, [this] {
        issue_request();
        return rng_.exponential(config_.request_rate);
      }) {
  BROADWAY_CHECK_MSG(config_.request_rate > 0.0,
                     "rate " << config_.request_rate);
  BROADWAY_CHECK_MSG(!config_.popularity.empty(), "no objects to request");
  for (const ObjectWeight& entry : config_.popularity) {
    // Fail fast: a ground-truth read needs the origin to host the object,
    // and an id the table never handed out can only be a caller bug.
    BROADWAY_CHECK_MSG(origin_.object_by_id(entry.object) != nullptr,
                       "popularity object " << entry.object
                                            << " not hosted at the origin");
    BROADWAY_CHECK_MSG(entry.weight >= 0.0, "negative popularity for "
                                                << entry.object);
    objects_.push_back(entry.object);
    weights_.push_back(entry.weight);
  }
}

void ClientWorkload::start() {
  task_.start(rng_.exponential(config_.request_rate));
}

void ClientWorkload::stop() { task_.stop(); }

void ClientWorkload::issue_request() {
  const ObjectId object = objects_[rng_.weighted_index(weights_)];
  const CacheEntry* entry = cache_.lookup_counted(object);
  const ClientReadSample sample = classify_client_read(
      sim_.now(), entry != nullptr,
      entry != nullptr ? entry->snapshot_time : 0.0,
      origin_.read(object));
  record_client_read(stats_, sample);
}

}  // namespace broadway
