// FNV-1a digest for golden-value tests.
//
// A golden test pins a bit-exact hash of a run's observable output (poll
// logs, TTR series, cache contents, counters) to a value captured when a
// second, independent code path was still in the tree and produced the
// same hash.  Doubles are hashed by bit pattern and strings by length +
// bytes, so any change in what a run computes moves the digest.  Digests
// are per toolchain (gcc on x86_64); a mismatch prints the fresh value
// next to the pinned one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "client/client_metrics.h"
#include "proxy/poll_log.h"
#include "util/stats.h"
#include "util/time.h"

namespace broadway {

class Digest {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void u64(std::uint64_t value) { bytes(&value, sizeof value); }
  void f64(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    u64(bits);
  }
  void text(std::string_view text) {
    u64(text.size());
    bytes(text.data(), text.size());
  }
  void records(const std::vector<PollRecord>& records) {
    u64(records.size());
    for (const PollRecord& record : records) {
      f64(record.snapshot_time);
      f64(record.complete_time);
      text(record.uri);
      u64(record.object);
      u64(static_cast<std::uint64_t>(record.cause));
      u64(record.modified);
      u64(record.failed);
    }
  }
  void series(const std::vector<std::pair<TimePoint, Duration>>& series) {
    u64(series.size());
    for (const auto& [t, ttr] : series) {
      f64(t);
      f64(ttr);
    }
  }
  void stats(const OnlineStats& stats) {
    u64(stats.count());
    f64(stats.mean());
    f64(stats.variance());
    f64(stats.min());
    f64(stats.max());
    f64(stats.sum());
  }
  void client_metrics(const ClientMetrics& metrics) {
    u64(metrics.requests);
    u64(metrics.hits);
    u64(metrics.misses);
    u64(metrics.fresh);
    u64(metrics.stale);
    u64(metrics.demand_fills);
    u64(metrics.dark_reads);
    u64(metrics.dark_stale);
    u64(metrics.dark_misses);
    stats(metrics.age);
    stats(metrics.staleness);
    stats(metrics.fill_latency);
  }
  void client_records(const std::vector<ClientRequestRecord>& records) {
    u64(records.size());
    for (const ClientRequestRecord& record : records) {
      f64(record.time);
      u64(record.proxy);
      u64(record.client);
      u64(record.object);
      u64(record.read.hit);
      u64(record.read.fresh);
      u64(record.read.filled);
      u64(record.read.dark);
      f64(record.read.snapshot);
      f64(record.read.age);
      f64(record.read.staleness);
      f64(record.read.fill_latency);
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

}  // namespace broadway
