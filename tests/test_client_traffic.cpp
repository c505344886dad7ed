// Client traffic layer unit pins: read classification against ground
// truth, metrics merging, record merge order, the relay-snapshot
// staleness contract, transaction evaluation over hand-built poll logs,
// and the fail-fast construction contracts.
#include <gtest/gtest.h>

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "client/client_metrics.h"
#include "client/client_traffic.h"
#include "client/read_transactions.h"
#include "consistency/fixed_poll.h"
#include "fleet/proxy_fleet.h"
#include "metrics/accounting.h"
#include "origin/object.h"
#include "origin/origin_server.h"
#include "proxy/poll_log.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

// ---- read classification ---------------------------------------------------

TEST(ClassifyClientRead, MissCarriesNoFreshness) {
  const ClientReadSample sample =
      classify_client_read(50.0, /*hit=*/false, 0.0, std::nullopt);
  EXPECT_FALSE(sample.hit);
  EXPECT_FALSE(sample.fresh);
}

TEST(ClassifyClientRead, FreshAndStaleAgainstGroundTruth) {
  VersionedObject truth("/x", 0.0);
  truth.append_updates({100.0, 200.0});

  // Served copy reflects t = 120: it missed the update at 200 (first
  // unseen), so at now = 250 it has been stale for 50 s and is 130 s old.
  const ClientReadSample stale = classify_client_read(
      250.0, /*hit=*/true, 120.0, truth.at(250.0, true));
  EXPECT_TRUE(stale.hit);
  EXPECT_FALSE(stale.fresh);
  EXPECT_EQ(stale.snapshot, 120.0);
  EXPECT_EQ(stale.age, 130.0);
  EXPECT_EQ(stale.staleness, 50.0);

  // A copy reflecting t = 220 saw every update: fresh despite its age.
  const ClientReadSample fresh = classify_client_read(
      250.0, /*hit=*/true, 220.0, truth.at(250.0, true));
  EXPECT_TRUE(fresh.fresh);
  EXPECT_EQ(fresh.age, 30.0);
  EXPECT_EQ(fresh.staleness, 0.0);
}

TEST(ClassifyClientRead, GroundTruthIsTheReadersVersion) {
  // The trace's update at 200 is not yet due for a reader at 150: the
  // t = 120 copy is fresh there, and only the reader past 200 sees it
  // stale.  Same-instant: due once the reader has entered 200.
  VersionedObject truth("/x", 0.0);
  truth.append_updates({100.0, 200.0});
  EXPECT_TRUE(
      classify_client_read(150.0, true, 120.0, truth.at(150.0, true)).fresh);
  EXPECT_TRUE(
      classify_client_read(200.0, true, 120.0, truth.at(200.0, false)).fresh);
  const ClientReadSample entered =
      classify_client_read(200.0, true, 120.0, truth.at(200.0, true));
  EXPECT_FALSE(entered.fresh);
  EXPECT_EQ(entered.staleness, 0.0);
}

TEST(ClientMetrics, RecordAndMergeAccounting) {
  VersionedObject object("/x", 0.0);
  object.append_updates({100.0});
  const auto truth = [&object](TimePoint now) {
    return object.at(now, true);
  };

  ClientMetrics a;
  record_client_read(a,
                     classify_client_read(150.0, true, 120.0, truth(150.0)));
  record_client_read(a, classify_client_read(150.0, true, 50.0, truth(150.0)));
  record_client_read(a,
                     classify_client_read(150.0, false, 0.0, std::nullopt));
  EXPECT_EQ(a.requests, 3u);
  EXPECT_EQ(a.hits, 2u);
  EXPECT_EQ(a.misses, 1u);
  EXPECT_EQ(a.fresh, 1u);
  EXPECT_EQ(a.stale, 1u);
  EXPECT_EQ(a.age.count(), 2u);        // hits only
  EXPECT_EQ(a.staleness.count(), 1u);  // stale hits only
  EXPECT_EQ(a.staleness.max(), 50.0);  // 150 - (first unseen at 100)

  ClientMetrics b;
  record_client_read(b,
                     classify_client_read(200.0, true, 120.0, truth(200.0)));
  ClientMetrics merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.requests, 4u);
  EXPECT_EQ(merged.hits, 3u);
  EXPECT_EQ(merged.age.count(), 3u);
  EXPECT_EQ(merged.age.max(), 100.0);  // a's read of the t=50 copy at t=150
  EXPECT_EQ(merged.hit_rate(), 0.75);

  // The merge is a pure function of its inputs: repeating it bitwise-
  // reproduces every double (the fleet layers rely on fixed merge order).
  ClientMetrics again = a;
  again.merge(b);
  EXPECT_EQ(merged.age.mean(), again.age.mean());
  EXPECT_EQ(merged.age.variance(), again.age.variance());
}

TEST(ClientMetrics, MergedRecordStreamIsCanonicallyOrdered) {
  std::vector<ClientRequestRecord> p1(3), p0(2);
  p0[0].time = 1.0;
  p0[1].time = 5.0;
  p1[0].time = 1.0;  // ties with p0[0]: proxy breaks the tie
  p1[1].time = 2.0;
  p1[2].time = 2.0;  // ties within one stream: in-stream position holds
  for (auto& r : p0) r.proxy = 0;
  for (auto& r : p1) r.proxy = 1;
  p1[1].client = 7;
  p1[2].client = 8;

  // Streams tagged out of order on purpose: the merge must not care.
  const std::vector<ClientRequestRecord> merged =
      merge_client_records({{1, &p1}, {0, &p0}});
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].proxy, 0u);  // t=1 proxy 0
  EXPECT_EQ(merged[1].proxy, 1u);  // t=1 proxy 1
  EXPECT_EQ(merged[2].client, 7u);  // t=2 first in stream
  EXPECT_EQ(merged[3].client, 8u);
  EXPECT_EQ(merged[4].time, 5.0);
}

// ---- the relay-snapshot staleness contract ---------------------------------

// A relay-delivered copy must be aged from the *sender's* poll instant,
// never from the delivery time: delivery latency is not freshness.
TEST(ClientTraffic, RelayedCopyKeepsRelayedSnapshot) {
  Simulator sim;
  OriginServer origin(sim);
  // The object modifies every 7 s, so every 10 s poll returns a fresh
  // body (200) and advances the cached snapshot (a 304 validation
  // deliberately keeps the body's original snapshot).
  std::vector<TimePoint> updates;
  for (TimePoint t = 7.0; t < 100.0; t += 7.0) updates.push_back(t);
  const UpdateTrace trace("/page", std::move(updates), 100.0);
  origin.attach_update_trace("/page", trace);

  FleetConfig config;
  config.proxies = 2;
  config.cooperative_push = true;
  config.relay_latency = 5.0;
  config.engine.rtt = 0.0;
  config.engine.loss_probability = 0.0;
  ProxyFleet fleet(sim, origin, config);
  // Proxy 0 polls every 10 s; proxy 1 effectively never, so after its
  // initial fetch every refresh it sees arrives over the relay channel.
  fleet.add_temporal_object(0, "/page",
                            std::make_unique<FixedPollPolicy>(10.0));
  fleet.add_temporal_object(1, "/page",
                            std::make_unique<FixedPollPolicy>(1e9));
  fleet.start();
  sim.run_until(99.0);
  ASSERT_GT(fleet.relays_applied(), 0u);

  const ObjectId id = origin.uri_table().find("/page");
  // Proxy 0's last own poll fired at t = 90 (rtt 0); the relay reached
  // proxy 1 at t = 95.  Reading at t = 99 must report the copy as
  // reflecting server state 90 — 9 s old, not 4.
  const PollingEngine::ClientRead own = fleet.proxy(0).serve_client_read(id);
  ASSERT_TRUE(own.hit);
  EXPECT_EQ(own.snapshot, 90.0);
  const PollingEngine::ClientRead relayed =
      fleet.proxy(1).serve_client_read(id);
  ASSERT_TRUE(relayed.hit);
  EXPECT_EQ(relayed.snapshot, 90.0);
  EXPECT_EQ(relayed.visible, 95.0);
}

// ---- fleet traffic over a ProxyFleet ---------------------------------------

TEST(ClientTraffic, DrivesRequestsAndRecordsAtEveryProxy) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");
  origin.add_object("/b");

  FleetConfig config;
  config.proxies = 3;
  config.cooperative_push = false;
  config.engine.loss_probability = 0.0;
  ClientTrafficConfig traffic;
  traffic.request_rate = 2.0;
  traffic.clients_per_proxy = 1'000'000;
  traffic.record_requests = true;
  config.client_traffic = traffic;
  ProxyFleet fleet(sim, origin, config);
  fleet.add_temporal_object_everywhere(
      "/a", [] { return std::make_unique<FixedPollPolicy>(30.0); });
  fleet.start();
  sim.run_until(500.0);

  ASSERT_TRUE(fleet.has_client_traffic());
  FleetClientTraffic& traffic_layer = fleet.client_traffic();
  EXPECT_EQ(traffic_layer.size(), 3u);
  // The universe is every hosted object: /a is cached, /b never is.
  EXPECT_EQ(traffic_layer.objects().size(), 2u);

  const ClientMetrics merged = fleet.merged_client_metrics();
  EXPECT_GT(merged.requests, 0u);
  EXPECT_EQ(merged.hits + merged.misses, merged.requests);
  EXPECT_GT(merged.hits, 0u);    // /a reads are hits
  // /b is tracked by no proxy and demand_fill is off by default, so /b
  // reads are plain misses (untracked ids never fill even with it on).
  EXPECT_GT(merged.misses, 0u);
  EXPECT_EQ(merged.fresh + merged.stale, merged.hits);

  std::uint64_t sum = 0;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    const ClientMetrics& per = traffic_layer.metrics(p);
    EXPECT_GT(per.requests, 0u) << "proxy " << p;
    sum += per.requests;
    // Streams are independent: distinct proxies draw distinct request
    // sequences (seeded seed + global id).
    const auto& records = traffic_layer.records(p);
    ASSERT_EQ(records.size(), per.requests);
    for (std::size_t i = 1; i < records.size(); ++i) {
      EXPECT_LE(records[i - 1].time, records[i].time);
    }
    for (const ClientRequestRecord& record : records) {
      EXPECT_EQ(record.proxy, p);
      // Deterministic global client ids partition by proxy population.
      EXPECT_GE(record.client, p * traffic.clients_per_proxy);
      EXPECT_LT(record.client, (p + 1) * traffic.clients_per_proxy);
    }
  }
  EXPECT_EQ(sum, merged.requests);
  EXPECT_EQ(traffic_layer.requests_issued(), merged.requests);

  const std::vector<ClientRequestRecord> all = fleet.merged_client_records();
  EXPECT_EQ(all.size(), merged.requests);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LE(all[i - 1].time, all[i].time);
  }
}

// A flat profile at rate r issues ~r per second; the diurnal thinning
// must keep the long-run mean near the configured rate, not the peak.
TEST(ClientTraffic, DiurnalThinningPreservesMeanRate) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");

  FleetConfig config;
  config.proxies = 1;
  config.cooperative_push = false;
  ClientTrafficConfig traffic;
  traffic.request_rate = 5.0;
  traffic.profile = DiurnalProfile::newsroom();
  config.client_traffic = traffic;
  ProxyFleet fleet(sim, origin, config);
  fleet.add_temporal_object_everywhere(
      "/a", [] { return std::make_unique<FixedPollPolicy>(600.0); });
  fleet.start();
  const Duration day = 24.0 * 3600.0;
  sim.run_until(day);

  const double observed =
      static_cast<double>(fleet.merged_client_metrics().requests) / day;
  EXPECT_NEAR(observed, traffic.request_rate, 0.25 * traffic.request_rate);
}

// ---- read transactions over hand-built logs --------------------------------

TEST(ReadTransactions, SpreadAndViolationsFromServeSeries) {
  // Proxy 0 serves a copy reflecting t = 10 (visible from t = 11);
  // proxy 1 one reflecting t = 100 (visible from t = 101).  Every
  // transaction sampled after both are visible sees spread 90 exactly.
  PollLog log0, log1;
  PollRecord r0;
  r0.uri = "/a";
  r0.snapshot_time = 10.0;
  r0.complete_time = 11.0;
  log0.append(r0);
  PollRecord r1;
  r1.uri = "/a";
  r1.snapshot_time = 100.0;
  r1.complete_time = 101.0;
  log1.append(r1);

  ReadTransactionConfig config;
  config.rate = 1.0;
  config.objects = 2;
  config.seed = 5;

  config.delta = 50.0;  // tighter than the spread: every complete violates
  const TransactionStats tight =
      evaluate_read_transactions({&log0, &log1}, config, 1000.0);
  EXPECT_GT(tight.transactions, 0u);
  EXPECT_EQ(tight.complete + tight.incomplete, tight.transactions);
  EXPECT_GT(tight.complete, 0u);
  EXPECT_EQ(tight.violations, tight.complete);
  EXPECT_EQ(tight.spread.min(), 90.0);
  EXPECT_EQ(tight.spread.max(), 90.0);
  EXPECT_EQ(tight.violation_rate(), 1.0);

  config.delta = 200.0;  // looser than the spread: none violate
  const TransactionStats loose =
      evaluate_read_transactions({&log0, &log1}, config, 1000.0);
  EXPECT_EQ(loose.violations, 0u);
  // Same seed, same logs: the sampling is deterministic.
  EXPECT_EQ(loose.transactions, tight.transactions);
  EXPECT_EQ(loose.complete, tight.complete);
}

TEST(ReadTransactions, ZeroRateDisablesSampling) {
  PollLog log;
  const TransactionStats stats =
      evaluate_read_transactions({&log}, ReadTransactionConfig{}, 100.0);
  EXPECT_EQ(stats.transactions, 0u);
}

// A retention-truncated log has lost serve-series prefix records; silently
// evaluating it would mis-score transactions sampled before the window, so
// the evaluation fails fast instead.
TEST(ReadTransactions, TruncatedLogFailsFast) {
  PollLog log;
  log.set_retention_window(1);
  PollRecord r;
  r.uri = "/a";
  r.snapshot_time = 10.0;
  r.complete_time = 11.0;
  log.append(r);
  r.snapshot_time = 20.0;
  r.complete_time = 21.0;
  log.append(r);
  log.compact();
  ASSERT_GT(log.dropped_records(), 0u);

  ReadTransactionConfig config;
  config.rate = 1.0;
  config.objects = 1;
  EXPECT_THROW(evaluate_read_transactions({&log}, config, 100.0),
               CheckFailure);
}

// ---- demand fills (EngineConfig::demand_fill) ------------------------------

// The engine keys loss decisions by (seed, object id, per-object attempt
// counter) through the stateless hash_bernoulli, so a test can *choose* the
// loss outcomes of consecutive attempts by scanning seeds at runtime.
std::uint64_t find_loss_seed(ObjectId id, double p,
                             std::initializer_list<bool> lost_pattern) {
  for (std::uint64_t seed = 0;; ++seed) {
    std::uint64_t draw = 0;
    bool match = true;
    for (const bool lost : lost_pattern) {
      if (hash_bernoulli(seed, id, draw++, p) != lost) {
        match = false;
        break;
      }
    }
    if (match) return seed;
  }
}

// Tentpole pin: a miss on a tracked-but-uncached object fetches through to
// the origin, the filled copy enters the cache, and the read reports the
// client-observed fill latency.  The filled read is still a miss.
TEST(ClientDemandFill, MissFetchesThroughToOrigin) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");
  const ObjectId id = origin.uri_table().find("/a");

  EngineConfig config;
  config.rtt = 0.25;
  config.loss_probability = 0.5;
  config.retry_delay = 1e6;  // pending retries never land in-horizon
  config.demand_fill = true;
  // Initial fetch (draw 0) lost, demand fill (draw 1) delivered.
  config.seed = find_loss_seed(id, 0.5, {true, false});
  PollingEngine engine(sim, origin, config);
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(1e9));
  engine.start();
  sim.run_until(10.0);
  ASSERT_EQ(engine.cache().find(id), nullptr);  // initial fetch was lost

  const PollingEngine::ClientRead read = engine.serve_client_read(id);
  EXPECT_FALSE(read.hit);  // the client paid the origin round-trip
  EXPECT_EQ(read.miss_reason,
            PollingEngine::ClientRead::MissReason::kUncached);
  EXPECT_TRUE(read.filled);
  EXPECT_EQ(read.fill_latency, 0.25);
  EXPECT_EQ(read.snapshot, 10.0);
  EXPECT_EQ(read.visible, 10.25);

  // The fill went through the shared poll pipeline: it is an origin poll
  // with cause kClientMiss, and the origin-load invariant
  // origin_polls == policy polls + demand fills holds on the log.
  EXPECT_EQ(engine.demand_fills(), 1u);
  const PollCauseCounts counts = count_by_cause(engine.poll_log());
  EXPECT_EQ(counts.client_miss, 1u);
  EXPECT_EQ(counts.policy_polls(), 0u);
  EXPECT_EQ(counts.initial, 0u);  // lost
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(counts.total_refreshes(),
            counts.policy_polls() + engine.demand_fills());

  // The filled copy is cached: the next read hits without a new fetch.
  const PollingEngine::ClientRead again = engine.serve_client_read(id);
  EXPECT_TRUE(again.hit);
  EXPECT_FALSE(again.filled);
  EXPECT_EQ(again.snapshot, 10.0);
  EXPECT_EQ(engine.demand_fills(), 1u);
}

// Loss injection applies to fills like any poll: a lost fill leaves the
// miss unfilled and the pending retry refreshes the copy as kRetry.
TEST(ClientDemandFill, LostFillStaysMissAndRetriesLikeAnyPoll) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");
  const ObjectId id = origin.uri_table().find("/a");

  EngineConfig config;
  config.rtt = 0.0;
  config.loss_probability = 0.5;
  config.retry_delay = 8.0;
  config.demand_fill = true;
  // Initial (draw 0) lost, fill (draw 1) lost, first retry (draw 2) ok.
  config.seed = find_loss_seed(id, 0.5, {true, true, false});
  PollingEngine engine(sim, origin, config);
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(1e9));
  engine.start();
  sim.run_until(3.0);

  const PollingEngine::ClientRead read = engine.serve_client_read(id);
  EXPECT_FALSE(read.hit);
  EXPECT_FALSE(read.filled);
  EXPECT_EQ(read.miss_reason,
            PollingEngine::ClientRead::MissReason::kUncached);
  EXPECT_EQ(read.fill_latency, 0.0);
  EXPECT_EQ(engine.demand_fills(), 0u);
  EXPECT_EQ(engine.failed_polls(), 2u);  // lost initial + lost fill

  // The retry armed by the lost initial fires at t = 8 and succeeds.
  sim.run_until(9.0);
  const PollCauseCounts counts = count_by_cause(engine.poll_log());
  EXPECT_EQ(counts.retry, 1u);
  EXPECT_EQ(counts.client_miss, 0u);
  const PollingEngine::ClientRead later = engine.serve_client_read(id);
  EXPECT_TRUE(later.hit);
  EXPECT_EQ(later.snapshot, 8.0);
}

// Untracked ids never fill: they have no policy, no trace registration and
// no relay eligibility, so a fill would bypass the consistency machinery.
TEST(ClientDemandFill, UntrackedIdNeverFills) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");
  origin.add_object("/b");

  EngineConfig config;
  config.loss_probability = 0.0;
  config.demand_fill = true;
  PollingEngine engine(sim, origin, config);
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(1e9));
  engine.start();
  sim.run_until(5.0);

  const ObjectId id_b = origin.uri_table().find("/b");
  const PollingEngine::ClientRead read = engine.serve_client_read(id_b);
  EXPECT_FALSE(read.hit);
  EXPECT_FALSE(read.filled);
  EXPECT_EQ(read.miss_reason,
            PollingEngine::ClientRead::MissReason::kUntracked);
  EXPECT_EQ(engine.demand_fills(), 0u);
  EXPECT_EQ(engine.polls_performed("/b"), 0u);
}

// With demand_fill unset (the paper's model) a miss is only recorded, but
// the split miss reason still distinguishes untracked from uncached.
TEST(ClientDemandFill, DisabledMissOnlyRecordsReason) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");
  const ObjectId id = origin.uri_table().find("/a");

  EngineConfig config;
  config.loss_probability = 0.5;
  config.retry_delay = 1e6;
  config.seed = find_loss_seed(id, 0.5, {true});  // initial fetch lost
  PollingEngine engine(sim, origin, config);
  engine.add_temporal_object("/a", std::make_unique<FixedPollPolicy>(1e9));
  engine.start();
  sim.run_until(5.0);

  const PollingEngine::ClientRead read = engine.serve_client_read(id);
  EXPECT_FALSE(read.hit);
  EXPECT_FALSE(read.filled);
  EXPECT_EQ(read.miss_reason,
            PollingEngine::ClientRead::MissReason::kUncached);
  EXPECT_EQ(engine.demand_fills(), 0u);
}

TEST(ClientMetrics, DemandFillAccountingAndMerge) {
  ClientReadSample filled;
  filled.filled = true;
  filled.fill_latency = 0.3;
  ClientMetrics a;
  record_client_read(a, filled);
  record_client_read(a, ClientReadSample{});  // plain unfilled miss
  EXPECT_EQ(a.requests, 2u);
  EXPECT_EQ(a.misses, 2u);  // a filled read is still a miss
  EXPECT_EQ(a.demand_fills, 1u);
  EXPECT_EQ(a.fill_latency.count(), 1u);
  EXPECT_EQ(a.fill_latency.max(), 0.3);

  ClientMetrics b;
  ClientReadSample other_fill;
  other_fill.filled = true;
  other_fill.fill_latency = 0.5;
  record_client_read(b, other_fill);
  a.merge(b);
  EXPECT_EQ(a.demand_fills, 2u);
  EXPECT_EQ(a.fill_latency.count(), 2u);
  EXPECT_EQ(a.fill_latency.max(), 0.5);
  EXPECT_EQ(a.hits + a.misses, a.requests);
}

// ---- popularity sampling mass ----------------------------------------------

TEST(ClientTraffic, ZeroWeightPopularityEntriesAreDropped) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");
  origin.add_object("/b");
  const ObjectId id_a = origin.uri_table().find("/a");
  const ObjectId id_b = origin.uri_table().find("/b");

  FleetConfig config;
  config.proxies = 1;
  config.cooperative_push = false;
  ClientTrafficConfig traffic;
  traffic.request_rate = 5.0;
  traffic.record_requests = true;
  // A zero-weight entry has no sampling mass: it must be dropped from the
  // universe, not silently redirected onto by a clamped boundary draw.
  traffic.popularity = {{id_a, 1.0}, {id_b, 0.0}};
  config.client_traffic = traffic;
  ProxyFleet fleet(sim, origin, config);
  fleet.add_temporal_object_everywhere(
      "/a", [] { return std::make_unique<FixedPollPolicy>(30.0); });
  fleet.start();
  sim.run_until(200.0);

  FleetClientTraffic& layer = fleet.client_traffic();
  ASSERT_EQ(layer.objects().size(), 1u);
  EXPECT_EQ(layer.objects()[0], id_a);
  const auto& records = layer.records(0);
  ASSERT_GT(records.size(), 0u);
  for (const ClientRequestRecord& record : records) {
    EXPECT_EQ(record.object, id_a);
  }
}

TEST(ClientTraffic, AllZeroWeightPopularityFailsFastAtStart) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");

  FleetConfig config;
  config.proxies = 1;
  ClientTrafficConfig traffic;
  traffic.popularity = {{origin.uri_table().find("/a"), 0.0}};
  config.client_traffic = traffic;
  ProxyFleet fleet(sim, origin, config);
  fleet.add_temporal_object_everywhere(
      "/a", [] { return std::make_unique<FixedPollPolicy>(10.0); });
  EXPECT_THROW(fleet.start(), CheckFailure);
}

// ---- per-client session locality -------------------------------------------

// With session_locality = 1 every request lands in the client's fixed
// working set (session_objects hash-derived ids): one client's request
// stream touches at most that many distinct objects over any horizon.
TEST(ClientTraffic, SessionLocalityPinsPerClientWorkingSet) {
  const auto distinct_objects = [](double locality) {
    Simulator sim;
    OriginServer origin(sim);
    for (int i = 0; i < 24; ++i) {
      origin.add_object("/o" + std::to_string(i));
    }
    FleetConfig config;
    config.proxies = 1;
    config.cooperative_push = false;
    ClientTrafficConfig traffic;
    traffic.request_rate = 20.0;
    traffic.clients_per_proxy = 1;
    traffic.session_locality = locality;
    traffic.session_objects = 3;
    traffic.record_requests = true;
    config.client_traffic = traffic;
    ProxyFleet fleet(sim, origin, config);
    fleet.add_temporal_object_everywhere(
        "/o0", [] { return std::make_unique<FixedPollPolicy>(1e9); });
    fleet.start();
    sim.run_until(200.0);
    std::set<ObjectId> seen;
    for (const ClientRequestRecord& record :
         fleet.client_traffic().records(0)) {
      seen.insert(record.object);
    }
    return seen.size();
  };

  EXPECT_LE(distinct_objects(1.0), 3u);
  EXPECT_GE(distinct_objects(1.0), 2u);
  // Without locality the same Zipf stream roams the whole universe.
  EXPECT_GT(distinct_objects(0.0), 3u);
}

TEST(ClientTraffic, InvalidSessionLocalityFailsFastAtConstruction) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/a");
  FleetConfig config;
  config.proxies = 1;
  ClientTrafficConfig traffic;
  traffic.session_locality = 1.5;
  config.client_traffic = traffic;
  EXPECT_THROW(ProxyFleet(sim, origin, config), CheckFailure);
}

// ---- fail-fast contracts ---------------------------------------------------

TEST(ClientTraffic, UnknownPopularityIdFailsFastAtStart) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/real");

  FleetConfig config;
  config.proxies = 1;
  config.cooperative_push = false;
  ClientTrafficConfig traffic;
  traffic.popularity = {{static_cast<ObjectId>(4242), 1.0}};
  config.client_traffic = traffic;
  ProxyFleet fleet(sim, origin, config);
  fleet.add_temporal_object_everywhere(
      "/real", [] { return std::make_unique<FixedPollPolicy>(10.0); });
  EXPECT_THROW(fleet.start(), CheckFailure);
}

TEST(ClientTraffic, NonPositiveRateFailsFastAtConstruction) {
  Simulator sim;
  OriginServer origin(sim);
  origin.add_object("/real");
  FleetConfig config;
  config.proxies = 1;
  ClientTrafficConfig traffic;
  traffic.request_rate = 0.0;
  config.client_traffic = traffic;
  EXPECT_THROW(ProxyFleet(sim, origin, config), CheckFailure);
}

}  // namespace
}  // namespace broadway
