// PollLog: the per-object indices and running counters must agree exactly
// with a brute-force scan of the full record vector — on a randomized
// record stream and on a live engine driving all four object kinds.
#include "proxy/poll_log.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "consistency/fixed_poll.h"
#include "consistency/limd.h"
#include "consistency/partitioned.h"
#include "consistency/triggered.h"
#include "consistency/virtual_object.h"
#include "id_of.h"
#include "origin/origin_server.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/rng.h"

namespace broadway {
namespace {

// Reference implementations: scan every record.
std::vector<TimePoint> scan_completion_times(
    const std::vector<PollRecord>& records, const std::string& uri) {
  std::vector<TimePoint> out;
  for (const PollRecord& record : records) {
    if (!record.failed && record.uri == uri) {
      out.push_back(record.complete_time);
    }
  }
  return out;
}

std::vector<TimePoint> scan_snapshot_times(
    const std::vector<PollRecord>& records, const std::string& uri) {
  std::vector<TimePoint> out;
  for (const PollRecord& record : records) {
    if (!record.failed && record.uri == uri) {
      out.push_back(record.snapshot_time);
    }
  }
  return out;
}

std::size_t scan_polls_performed(const std::vector<PollRecord>& records,
                                 const std::string& uri) {
  std::size_t count = 0;
  for (const PollRecord& record : records) {
    if (record.failed || record.cause == PollCause::kInitial) continue;
    if (!uri.empty() && record.uri != uri) continue;
    ++count;
  }
  return count;
}

std::size_t scan_triggered_polls(const std::vector<PollRecord>& records,
                                 const std::string& uri) {
  std::size_t count = 0;
  for (const PollRecord& record : records) {
    if (record.failed || record.cause != PollCause::kTriggered) continue;
    if (!uri.empty() && record.uri != uri) continue;
    ++count;
  }
  return count;
}

std::size_t scan_failed_polls(const std::vector<PollRecord>& records) {
  std::size_t count = 0;
  for (const PollRecord& record : records) {
    if (record.failed) ++count;
  }
  return count;
}

// `uris` must all be interned in the log's table; the scans filter on
// the record's uri, so they also check that append filled it from the id.
void expect_log_matches_scan(const PollLog& log,
                             const std::vector<std::string>& uris) {
  const std::vector<PollRecord>& records = log.records();
  EXPECT_EQ(log.polls_performed(), scan_polls_performed(records, ""));
  EXPECT_EQ(log.triggered_polls(), scan_triggered_polls(records, ""));
  EXPECT_EQ(log.failed_polls(), scan_failed_polls(records));
  for (const std::string& uri : uris) {
    SCOPED_TRACE(uri);
    const ObjectId id = id_of(log.uri_table(), uri);
    EXPECT_EQ(log.completion_times(id), scan_completion_times(records, uri));
    EXPECT_EQ(log.snapshot_times(id), scan_snapshot_times(records, uri));
    EXPECT_EQ(log.polls_performed(id), scan_polls_performed(records, uri));
    EXPECT_EQ(log.triggered_polls(id), scan_triggered_polls(records, uri));
    const std::vector<std::size_t>& successful = log.successful_records(id);
    for (std::size_t i = 0; i < successful.size(); ++i) {
      ASSERT_LT(successful[i], records.size());
      EXPECT_FALSE(records[successful[i]].failed);
      EXPECT_EQ(records[successful[i]].uri, uri);
      if (i > 0) EXPECT_GT(successful[i], successful[i - 1]);
    }
  }
}

TEST(PollLog, IndexMatchesBruteForceOnRandomizedWorkload) {
  Rng rng(20260728);
  const std::vector<std::string> uris = {"/a", "/b", "/c", "/d", "/e",
                                         "/f", "/g", "/h"};
  const PollCause causes[] = {PollCause::kInitial, PollCause::kScheduled,
                              PollCause::kTriggered, PollCause::kRetry};
  UriTable table;
  std::vector<ObjectId> ids;
  for (const std::string& uri : uris) ids.push_back(table.intern(uri));
  table.intern("/never-polled");
  PollLog log(table);
  TimePoint t = 0.0;
  for (int i = 0; i < 5000; ++i) {
    t += rng.uniform(0.0, 5.0);
    const TimePoint complete = t + rng.uniform(0.0, 2.0);
    const ObjectId id = ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    const PollCause cause = causes[rng.uniform_int(0, 3)];
    const bool failed = rng.bernoulli(0.2);
    const bool modified = !failed && rng.bernoulli(0.5);
    log.append(id, cause, modified, failed, t, complete);
  }
  ASSERT_EQ(log.size(), 5000u);

  std::vector<std::string> queried = uris;
  queried.push_back("/never-polled");
  expect_log_matches_scan(log, queried);
}

// An id the log has never seen — interned but unpolled, or no id at all —
// answers empty series and zero counters.
TEST(PollLog, UnknownIdAnswersEmpty) {
  UriTable table;
  const ObjectId unpolled = table.intern("/nope");
  PollLog log(table);
  for (const ObjectId id : {unpolled, kInvalidObjectId}) {
    SCOPED_TRACE(id);
    EXPECT_TRUE(log.completion_times(id).empty());
    EXPECT_TRUE(log.snapshot_times(id).empty());
    EXPECT_TRUE(log.successful_records(id).empty());
    EXPECT_EQ(log.polls_performed(id), 0u);
    EXPECT_EQ(log.triggered_polls(id), 0u);
    EXPECT_EQ(log.relay_refreshes(id), 0u);
    EXPECT_EQ(log.demand_fills(id), 0u);
  }
  EXPECT_EQ(log.polls_performed(), 0u);
  EXPECT_EQ(log.failed_polls(), 0u);
}

// All four object kinds, a coordinator and loss injection drive one
// engine; every indexed accessor must agree with a scan of the log it
// produced.
TEST(PollLog, EngineAccessorsMatchBruteForceScan) {
  Simulator sim;
  OriginServer origin(sim);
  EngineConfig config;
  config.rtt = 0.5;
  config.loss_probability = 0.2;
  config.retry_delay = 3.0;
  config.seed = 9;
  PollingEngine engine(sim, origin, config);

  const Duration horizon = 2000.0;
  origin.attach_update_trace(
      "/t1", UpdateTrace("/t1", generate_periodic(40.0, 20.0, horizon),
                         horizon));
  origin.attach_update_trace(
      "/t2", UpdateTrace("/t2", generate_periodic(90.0, 45.0, horizon),
                         horizon));
  engine.add_temporal_object("/t1", std::make_unique<FixedPollPolicy>(25.0));
  engine.add_temporal_object(
      "/t2", std::make_unique<LimdPolicy>(
                 LimdPolicy::Config::paper_defaults(60.0, 600.0)));
  engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
      std::vector<std::string>{"/t1", "/t2"}, 30.0));

  origin.attach_value_trace(
      "/v1", ValueTrace("/v1", 100.0, {{200.0, 104.0}, {900.0, 95.0}},
                        horizon));
  AdaptiveValueTtrPolicy::Config value_config;
  value_config.delta = 0.5;
  value_config.bounds = {10.0, 200.0};
  engine.add_value_object("/v1", value_config);

  origin.attach_value_trace(
      "/g1", ValueTrace("/g1", 50.0, {{300.0, 53.0}}, horizon));
  origin.attach_value_trace(
      "/g2", ValueTrace("/g2", 48.0, {{700.0, 44.0}}, horizon));
  VirtualObjectPolicy::Config virtual_config;
  virtual_config.delta = 0.5;
  virtual_config.bounds = {20.0, 200.0};
  engine.add_virtual_group(
      {"/g1", "/g2"},
      std::make_unique<VirtualObjectPolicy>(
          std::make_unique<DifferenceFunction>(), virtual_config));

  origin.attach_value_trace(
      "/p1", ValueTrace("/p1", 10.0, {{150.0, 12.5}}, horizon));
  origin.attach_value_trace(
      "/p2", ValueTrace("/p2", 11.0, {{450.0, 9.0}}, horizon));
  engine.add_partitioned_group(
      {"/p1", "/p2"},
      std::make_unique<PartitionedTolerancePolicy>(
          std::make_unique<DifferenceFunction>(),
          PartitionedTolerancePolicy::Config::paper_defaults(
              1.0, TtrBounds{15.0, 200.0})));

  engine.start();
  sim.run_until(horizon);

  const PollLog& log = engine.poll_log();
  ASSERT_GT(log.size(), 100u);
  EXPECT_GT(engine.failed_polls(), 0u);
  EXPECT_GT(engine.triggered_polls(), 0u);

  origin.uri_table().intern("/absent");
  expect_log_matches_scan(log, {"/t1", "/t2", "/v1", "/g1", "/g2", "/p1",
                                "/p2", "/absent"});
  EXPECT_EQ(engine.polls_performed(), log.polls_performed());
  EXPECT_EQ(engine.triggered_polls(), log.triggered_polls());
  EXPECT_EQ(engine.demand_fills(), log.demand_fills());

  // ttr_series over a mixed registry: self-scheduled objects have series,
  // group-polled members and unknown uris answer empty instead of
  // aborting the run.
  EXPECT_FALSE(engine.ttr_series("/t1").empty());
  EXPECT_FALSE(engine.ttr_series("/v1").empty());
  EXPECT_FALSE(engine.ttr_series("/p1").empty());
  EXPECT_TRUE(engine.ttr_series("/g1").empty());
  EXPECT_TRUE(engine.ttr_series("/g2").empty());
  EXPECT_TRUE(engine.ttr_series("/absent").empty());
}

// ---- windowed retention ----------------------------------------------------

// Replay the same randomized stream into an unwindowed and a windowed log:
// every counter must agree exactly; only the retained series shrink.
TEST(PollLogRetention, CountersMatchUnwindowedExactly) {
  Rng rng(424242);
  const std::vector<std::string> uris = {"/a", "/b", "/c", "/d"};
  const PollCause causes[] = {PollCause::kInitial, PollCause::kScheduled,
                              PollCause::kTriggered, PollCause::kRetry,
                              PollCause::kRelay};
  UriTable table;
  std::vector<ObjectId> ids;
  for (const std::string& uri : uris) ids.push_back(table.intern(uri));
  PollLog unwindowed(table);
  PollLog windowed(table);
  windowed.set_retention_window(16);
  TimePoint t = 0.0;
  for (int i = 0; i < 4000; ++i) {
    t += rng.uniform(0.0, 5.0);
    const ObjectId id = ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1))];
    const PollCause cause = causes[rng.uniform_int(0, 4)];
    const bool failed = rng.bernoulli(0.15);
    const bool modified = !failed && rng.bernoulli(0.5);
    unwindowed.append(id, cause, modified, failed, t, t + 1.0);
    windowed.append(id, cause, modified, failed, t, t + 1.0);
  }

  EXPECT_EQ(windowed.polls_performed(), unwindowed.polls_performed());
  EXPECT_EQ(windowed.triggered_polls(), unwindowed.triggered_polls());
  EXPECT_EQ(windowed.relay_refreshes(), unwindowed.relay_refreshes());
  EXPECT_EQ(windowed.initial_polls(), unwindowed.initial_polls());
  EXPECT_EQ(windowed.failed_polls(), unwindowed.failed_polls());
  for (const ObjectId id : ids) {
    SCOPED_TRACE(id);
    EXPECT_EQ(windowed.polls_performed(id), unwindowed.polls_performed(id));
    EXPECT_EQ(windowed.triggered_polls(id), unwindowed.triggered_polls(id));
    EXPECT_EQ(windowed.relay_refreshes(id), unwindowed.relay_refreshes(id));
  }

  // The windowed log actually evicted (that is its point) ...
  EXPECT_LT(windowed.size(), unwindowed.size());
  windowed.compact();
  for (const ObjectId id : ids) {
    SCOPED_TRACE(id);
    std::size_t live = 0;
    for (const PollRecord& record : windowed) {
      if (record.object == id) ++live;
    }
    EXPECT_LE(live, 16u);
    // ... and what it retains is exactly the newest suffix of the full
    // stream's per-object series.
    const std::vector<TimePoint> full = unwindowed.completion_times(id);
    const std::vector<TimePoint> kept = windowed.completion_times(id);
    ASSERT_LE(kept.size(), full.size());
    EXPECT_TRUE(std::equal(kept.rbegin(), kept.rend(), full.rbegin()));
  }

  // Index invariants still hold on the compacted storage.
  for (const ObjectId id : ids) {
    const std::vector<std::size_t>& successful =
        windowed.successful_records(id);
    for (std::size_t i = 0; i < successful.size(); ++i) {
      ASSERT_LT(successful[i], windowed.size());
      EXPECT_FALSE(windowed[successful[i]].failed);
      EXPECT_EQ(windowed[successful[i]].object, id);
      if (i > 0) EXPECT_GT(successful[i], successful[i - 1]);
    }
  }
}

// Reference retention: the newest `window` records of each uri, in log
// order.
std::vector<PollRecord> scan_retained(const std::vector<PollRecord>& records,
                                      std::size_t window) {
  std::map<std::string, std::size_t> remaining;
  for (const PollRecord& record : records) ++remaining[record.uri];
  std::vector<PollRecord> kept;
  for (const PollRecord& record : records) {
    if (remaining[record.uri]-- <= window) kept.push_back(record);
  }
  return kept;
}

// Logs sharing a table whose first 5000 ids (and the gaps between the
// tracked ones) nobody polls: the index, the counters and compaction
// behave exactly as the linear-scan oracles say, with every tracked id
// sparse and high.
TEST(PollLogRetention, SparseHighIdsMatchScanOracle) {
  UriTable table;
  for (int i = 0; i < 5000; ++i) {
    table.intern("/untracked/" + std::to_string(i));
  }
  const std::vector<std::string> uris = {"/p", "/q", "/r", "/s", "/t"};
  std::vector<ObjectId> ids;
  for (std::size_t u = 0; u < uris.size(); ++u) {
    for (std::size_t i = 0; i < 300 * u; ++i) {
      table.intern(uris[u] + "/gap/" + std::to_string(i));
    }
    ids.push_back(table.intern(uris[u]));
  }
  // No kRelay: the scan oracle counts every successful non-initial
  // record as a poll.
  const PollCause causes[] = {PollCause::kInitial, PollCause::kScheduled,
                              PollCause::kTriggered, PollCause::kRetry,
                              PollCause::kClientMiss};
  constexpr std::size_t kWindow = 8;
  PollLog full(table);
  PollLog windowed(table);
  windowed.set_retention_window(kWindow);
  Rng rng(5000);
  TimePoint t = 0.0;
  for (int i = 0; i < 3000; ++i) {
    const std::size_t u = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(uris.size()) - 1));
    const PollCause cause = causes[rng.uniform_int(0, 4)];
    const bool failed = rng.bernoulli(0.15);
    const bool modified = !failed && rng.bernoulli(0.5);
    t += rng.uniform(0.0, 5.0);
    full.append(ids[u], cause, modified, failed, t, t + 1.0);
    windowed.append(ids[u], cause, modified, failed, t, t + 1.0);
  }
  std::vector<std::string> queried = uris;
  queried.push_back("/untracked/17");
  expect_log_matches_scan(full, queried);

  windowed.compact();
  const std::vector<PollRecord> expected =
      scan_retained(full.records(), kWindow);
  ASSERT_EQ(windowed.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(windowed[i].object, expected[i].object) << i;
    EXPECT_EQ(windowed[i].uri, expected[i].uri) << i;
    EXPECT_EQ(windowed[i].snapshot_time, expected[i].snapshot_time) << i;
    EXPECT_EQ(windowed[i].cause, expected[i].cause) << i;
    EXPECT_EQ(windowed[i].failed, expected[i].failed) << i;
  }
  EXPECT_EQ(windowed.dropped_records(), full.size() - expected.size());
  // Counters are totals and never rewind; the index covers what is kept.
  EXPECT_EQ(windowed.polls_performed(), full.polls_performed());
  EXPECT_EQ(windowed.triggered_polls(), full.triggered_polls());
  EXPECT_EQ(windowed.demand_fills(), full.demand_fills());
  EXPECT_EQ(windowed.failed_polls(), full.failed_polls());
  for (std::size_t u = 0; u < uris.size(); ++u) {
    SCOPED_TRACE(uris[u]);
    EXPECT_EQ(windowed.polls_performed(ids[u]), full.polls_performed(ids[u]));
    EXPECT_EQ(windowed.demand_fills(ids[u]), full.demand_fills(ids[u]));
    EXPECT_EQ(windowed.completion_times(ids[u]),
              scan_completion_times(expected, uris[u]));
    const std::vector<std::size_t>& successful =
        windowed.successful_records(ids[u]);
    for (const std::size_t index : successful) {
      ASSERT_LT(index, windowed.size());
      EXPECT_EQ(windowed[index].object, ids[u]);
      EXPECT_FALSE(windowed[index].failed);
    }
  }
  EXPECT_TRUE(windowed.successful_records(id_of(table,
                                                "/untracked/17")).empty());
}

TEST(PollLogRetention, WindowCanBeEnabledAfterTheFact) {
  UriTable table;
  const ObjectId only = table.intern("/only");
  PollLog log(table);
  for (int i = 0; i < 100; ++i) {
    const TimePoint t = static_cast<double>(i);
    log.append(only, i == 0 ? PollCause::kInitial : PollCause::kScheduled,
               /*modified=*/true, /*failed=*/false, t, t);
  }
  EXPECT_EQ(log.size(), 100u);
  log.set_retention_window(10);
  log.compact();
  EXPECT_EQ(log.size(), 10u);
  EXPECT_EQ(log.polls_performed(only), 99u);  // counters never rewind
  const std::vector<TimePoint> kept = log.completion_times(only);
  ASSERT_EQ(kept.size(), 10u);
  EXPECT_EQ(kept.front(), 90.0);
  EXPECT_EQ(kept.back(), 99.0);
}

// A long-horizon engine run under a retention window: counters equal the
// unwindowed twin's, memory stays bounded.
TEST(PollLogRetention, EngineCountersSurviveEviction) {
  const Duration horizon = 50000.0;
  auto run = [&](std::size_t window) {
    Simulator sim;
    OriginServer origin(sim);
    origin.attach_update_trace(
        "/t", UpdateTrace("/t", generate_periodic(40.0, 20.0, horizon),
                          horizon));
    PollingEngine engine(sim, origin);
    engine.add_temporal_object("/t",
                               std::make_unique<FixedPollPolicy>(25.0));
    if (window > 0) {
      engine.set_poll_log_retention(window);
    }
    engine.start();
    sim.run_until(horizon);
    return engine.poll_log().polls_performed(
        id_of(engine.uri_table(), "/t"));
  };
  EXPECT_EQ(run(0), run(32));
}

}  // namespace
}  // namespace broadway
