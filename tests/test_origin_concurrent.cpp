// Concurrent readers of one shared origin content.
//
// A ShardedFleet builds its origin content once and every shard reads it
// from its own thread, each at its own simulator's clock.  Here ThreadPool
// workers do the same directly — handle() calls and client ground-truth
// reads against one frozen content — and must produce exactly the
// transcripts the same readers produce one after another.  Under TSan
// (the CI job) any write on the shared read path is a reported race.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "client/client_metrics.h"
#include "golden_digest.h"
#include "origin/origin_server.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace broadway {
namespace {

constexpr double kHorizon = 500.0;

/// One reader's transcript: its own simulator and OriginServer over the
/// shared content, a seeded walk of clocks, objects and validators.
std::uint64_t transcript(OriginServer& content, std::size_t reader) {
  Simulator sim;
  OriginServer origin(sim, content);
  Rng rng(1000 + reader);
  const auto objects = static_cast<std::int64_t>(content.uri_table().size());
  Digest digest;
  Response response;
  Request request;
  while (true) {
    const TimePoint next = sim.now() + rng.exponential(4.0);
    if (next > kHorizon) break;
    sim.run_until(next);
    const auto id = static_cast<ObjectId>(rng.uniform_int(0, objects - 1));
    request.reset();
    request.uri = content.uri_table().uri(id);
    request.object = id;
    request.meta.active = true;
    if (rng.bernoulli(0.8)) {
      request.meta.if_modified_since =
          quantize_wire_seconds(rng.uniform01() * sim.now());
    }
    origin.handle(request, response);
    digest.u64(static_cast<std::uint64_t>(response.status));
    digest.f64(response.meta.last_modified.value_or(-1.0));
    digest.f64(response.meta.value.value_or(-1.0));
    for (const TimePoint t : response.meta.history) digest.f64(t);
    // The client layer's ground-truth read of a copy from a random past.
    const ClientReadSample sample = classify_client_read(
        sim.now(), true, rng.uniform01() * sim.now(), origin.read(id));
    digest.u64(sample.fresh);
    digest.f64(sample.staleness);
  }
  digest.u64(origin.requests_served());
  digest.u64(origin.responses_200());
  return digest.value();
}

TEST(OriginConcurrency, ThreadPoolReadersAtTheirOwnClocks) {
  Simulator setup;
  OriginServer::Config config;
  config.history_limit = 0;
  config.render_bodies = false;
  OriginServer content(setup, config);
  Rng rng(42);
  for (int i = 0; i < 24; ++i) {
    std::vector<TimePoint> times;
    for (TimePoint t = rng.exponential(0.1); t < kHorizon;
         t += rng.exponential(0.1)) {
      times.push_back(t);
    }
    const std::string uri = "/page" + std::to_string(i);
    content.attach_update_trace(uri, UpdateTrace(uri, times, kHorizon));
  }
  for (int i = 0; i < 8; ++i) {
    std::vector<ValueTrace::Step> steps;
    for (TimePoint t = rng.exponential(0.2); t < kHorizon;
         t += rng.exponential(0.2)) {
      steps.push_back({t, rng.uniform(10.0, 20.0)});
    }
    const std::string uri = "/stock" + std::to_string(i);
    content.attach_value_trace(uri, ValueTrace(uri, 15.0, steps, kHorizon));
  }
  content.uri_table().freeze();

  constexpr std::size_t kReaders = 8;
  std::vector<std::uint64_t> sequential(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    sequential[r] = transcript(content, r);
  }
  for (const std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::uint64_t> concurrent(kReaders);
    pool.run_batch(kReaders, [&](std::size_t r) {
      concurrent[r] = transcript(content, r);
    });
    EXPECT_EQ(concurrent, sequential) << threads << " threads";
  }
  // The readers' traffic never touched the content's own counters.
  EXPECT_EQ(content.requests_served(), 0u);
}

}  // namespace
}  // namespace broadway
