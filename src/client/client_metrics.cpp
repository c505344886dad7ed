#include "client/client_metrics.h"

#include <algorithm>

#include "util/check.h"

namespace broadway {

ClientMetrics& ClientMetrics::merge(const ClientMetrics& other) {
  requests += other.requests;
  hits += other.hits;
  misses += other.misses;
  fresh += other.fresh;
  stale += other.stale;
  demand_fills += other.demand_fills;
  age.merge(other.age);
  staleness.merge(other.staleness);
  fill_latency.merge(other.fill_latency);
  dark_reads += other.dark_reads;
  dark_stale += other.dark_stale;
  dark_misses += other.dark_misses;
  return *this;
}

ClientReadSample classify_client_read(TimePoint now, bool hit,
                                      TimePoint snapshot,
                                      std::optional<ObjectVersion> truth) {
  ClientReadSample sample;
  if (!hit) return sample;
  BROADWAY_CHECK_MSG(truth.has_value(), "cached object missing at origin");
  sample.hit = true;
  sample.snapshot = snapshot;
  sample.age = now - snapshot;
  if (truth->modified_since(snapshot)) {
    // Lag: how long ago the first update this copy missed happened.
    sample.staleness = now - truth->history_since(snapshot, 0).front();
  } else {
    sample.fresh = true;
  }
  return sample;
}

void record_client_read(ClientMetrics& metrics,
                        const ClientReadSample& sample) {
  ++metrics.requests;
  if (sample.dark) {
    ++metrics.dark_reads;
    if (!sample.hit) {
      ++metrics.dark_misses;
    } else if (!sample.fresh) {
      ++metrics.dark_stale;
    }
  }
  if (!sample.hit) {
    ++metrics.misses;
    if (sample.filled) {
      ++metrics.demand_fills;
      metrics.fill_latency.add(sample.fill_latency);
    }
    return;
  }
  ++metrics.hits;
  metrics.age.add(sample.age);
  if (sample.fresh) {
    ++metrics.fresh;
  } else {
    ++metrics.stale;
    metrics.staleness.add(sample.staleness);
  }
}

std::vector<ClientRequestRecord> merge_client_records(
    std::vector<ProxyClientRecords> streams) {
  // Proxy-ascending concatenation + stable sort by request time gives the
  // (time, proxy, in-stream position) order independent of the order the
  // caller listed the streams in — same contract as merge_poll_records.
  std::sort(streams.begin(), streams.end(),
            [](const ProxyClientRecords& a, const ProxyClientRecords& b) {
              return a.proxy < b.proxy;
            });
  std::size_t total = 0;
  for (const ProxyClientRecords& stream : streams) {
    BROADWAY_CHECK(stream.records != nullptr);
    total += stream.records->size();
  }
  std::vector<ClientRequestRecord> merged;
  merged.reserve(total);
  for (const ProxyClientRecords& stream : streams) {
    merged.insert(merged.end(), stream.records->begin(),
                  stream.records->end());
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const ClientRequestRecord& a,
                      const ClientRequestRecord& b) {
                     return a.time < b.time;
                   });
  return merged;
}

}  // namespace broadway
