// Harness-level behaviour: determinism of experiment runners and the
// report-rendering helpers the benches rely on.
#include <gtest/gtest.h>

#include "harness/experiments.h"
#include "harness/reporting.h"
#include "trace/paper_workloads.h"
#include "util/time.h"

namespace broadway {
namespace {

TEST(Harness, LimdRunsAreDeterministic) {
  const UpdateTrace trace = make_cnn_fn_trace();
  TemporalRunConfig config;
  config.delta = minutes(10.0);
  const auto first = run_limd_individual(trace, config);
  const auto second = run_limd_individual(trace, config);
  EXPECT_EQ(first.polls, second.polls);
  EXPECT_DOUBLE_EQ(first.fidelity.fidelity_time(),
                   second.fidelity.fidelity_time());
  ASSERT_EQ(first.ttr_series.size(), second.ttr_series.size());
}

TEST(Harness, MutualRunsAreDeterministic) {
  const UpdateTrace a = make_cnn_fn_trace();
  const UpdateTrace b = make_nytimes_ap_trace();
  MutualTemporalRunConfig config;
  config.base.delta = minutes(10.0);
  config.delta_mutual = minutes(5.0);
  config.approach = MutualApproach::kHeuristic;
  const auto first = run_mutual_temporal(a, b, config);
  const auto second = run_mutual_temporal(a, b, config);
  EXPECT_EQ(first.polls, second.polls);
  EXPECT_EQ(first.triggered, second.triggered);
  EXPECT_DOUBLE_EQ(first.mutual.fidelity_time(),
                   second.mutual.fidelity_time());
}

TEST(Harness, ValueRunsAreDeterministic) {
  const ValueTrace a = make_att_stock_trace();
  const ValueTrace b = make_yahoo_stock_trace();
  MutualValueRunConfig config;
  config.delta = 1.0;
  config.approach = MutualValueApproach::kPartitioned;
  const auto first = run_mutual_value(a, b, config);
  const auto second = run_mutual_value(a, b, config);
  EXPECT_EQ(first.polls, second.polls);
  EXPECT_EQ(first.mutual.violations, second.mutual.violations);
}

TEST(Harness, SeriesOnlyCollectedWhenAsked) {
  const ValueTrace a = make_att_stock_trace();
  const ValueTrace b = make_yahoo_stock_trace();
  MutualValueRunConfig config;
  config.delta = 1.0;
  config.collect_series = false;
  EXPECT_TRUE(run_mutual_value(a, b, config).series.empty());
  config.collect_series = true;
  EXPECT_FALSE(run_mutual_value(a, b, config).series.empty());
}

TEST(Harness, MutualRunReportsIndividualFidelity) {
  const UpdateTrace a = make_cnn_fn_trace();
  const UpdateTrace b = make_nytimes_ap_trace();
  MutualTemporalRunConfig config;
  config.base.delta = minutes(10.0);
  config.approach = MutualApproach::kTriggered;
  const auto result = run_mutual_temporal(a, b, config);
  EXPECT_GT(result.individual_a.windows, 0u);
  EXPECT_GT(result.individual_b.windows, 0u);
  EXPECT_FALSE(result.poll_log.empty());
}

// ---- ScenarioBase knobs ----------------------------------------------------

TEST(Harness, DurationKnobTruncatesTheRun) {
  const UpdateTrace trace = make_cnn_fn_trace();
  TemporalRunConfig config;
  config.delta = minutes(10.0);
  const auto full = run_limd_individual(trace, config);
  config.duration = trace.duration() / 2.0;
  const auto half = run_limd_individual(trace, config);
  EXPECT_LT(half.polls, full.polls);
  EXPECT_GT(half.polls, 0u);
}

TEST(Harness, RetentionKnobKeepsPollCountsExact) {
  const UpdateTrace trace = make_cnn_fn_trace();
  TemporalRunConfig config;
  config.delta = minutes(10.0);
  const auto unlimited = run_limd_individual(trace, config);
  config.poll_log_retention = 4;
  const auto windowed = run_limd_individual(trace, config);
  // Counters never rewind under eviction; only record series shorten.
  EXPECT_EQ(windowed.polls, unlimited.polls);
}

// ---- fleet + client traffic ------------------------------------------------

namespace client_fleet {

std::vector<UpdateTrace> synthetic_traces() {
  std::vector<UpdateTrace> traces;
  for (int o = 0; o < 3; ++o) {
    std::vector<TimePoint> updates;
    for (TimePoint t = 120.0 + 70.0 * o; t < 6000.0; t += 240.0 + 35.0 * o) {
      updates.push_back(t);
    }
    traces.push_back(UpdateTrace("/object/" + std::to_string(o),
                                 std::move(updates), 6000.0));
  }
  return traces;
}

ClientFleetRunConfig config() {
  ClientFleetRunConfig config;
  config.fleet.proxies = 3;
  config.fleet.cooperative_push = true;
  config.fleet.relay_latency = 0.7;
  config.fleet.base.delta = 600.0;
  config.fleet.base.engine.rtt = 0.1;
  config.fleet.base.engine.loss_probability = 0.05;
  config.fleet.base.engine.retry_delay = 2.0;
  config.fleet.base.seed = 71;
  config.client.request_rate = 1.0;
  config.transactions.rate = 0.02;
  config.transactions.objects = 2;
  config.transactions.delta = 300.0;
  return config;
}

}  // namespace client_fleet

TEST(Harness, ClientFleetRunReportsClientSideMetrics) {
  const auto traces = client_fleet::synthetic_traces();
  const auto result =
      run_fleet_client_temporal(traces, client_fleet::config());
  EXPECT_GT(result.fleet.origin_polls, 0u);
  EXPECT_GT(result.clients.requests, 0u);
  EXPECT_GT(result.clients.hit_rate(), 0.0);
  EXPECT_EQ(result.clients.fresh + result.clients.stale, result.clients.hits);
  ASSERT_EQ(result.per_proxy_clients.size(), 3u);
  std::uint64_t sum = 0;
  for (const ClientMetrics& per : result.per_proxy_clients) {
    sum += per.requests;
  }
  EXPECT_EQ(sum, result.clients.requests);
  EXPECT_GT(result.transactions.transactions, 0u);
  EXPECT_EQ(result.transactions.complete + result.transactions.incomplete,
            result.transactions.transactions);
}

TEST(Harness, ClientFleetRunIsIdenticalSingleSimAndSharded) {
  const auto traces = client_fleet::synthetic_traces();
  ClientFleetRunConfig config = client_fleet::config();
  const auto reference = run_fleet_client_temporal(traces, config);
  config.threads = 4;
  const auto sharded = run_fleet_client_temporal(traces, config);

  EXPECT_EQ(reference.fleet.origin_requests, sharded.fleet.origin_requests);
  EXPECT_EQ(reference.fleet.origin_polls, sharded.fleet.origin_polls);
  EXPECT_EQ(reference.fleet.relays, sharded.fleet.relays);
  EXPECT_EQ(reference.fleet.mean_fidelity_time,
            sharded.fleet.mean_fidelity_time);
  EXPECT_EQ(reference.clients.requests, sharded.clients.requests);
  EXPECT_EQ(reference.clients.hits, sharded.clients.hits);
  EXPECT_EQ(reference.clients.stale, sharded.clients.stale);
  EXPECT_EQ(reference.clients.age.mean(), sharded.clients.age.mean());
  EXPECT_EQ(reference.clients.staleness.sum(), sharded.clients.staleness.sum());
  EXPECT_EQ(reference.transactions.transactions,
            sharded.transactions.transactions);
  EXPECT_EQ(reference.transactions.violations,
            sharded.transactions.violations);
  EXPECT_EQ(reference.transactions.spread.mean(),
            sharded.transactions.spread.mean());
}

TEST(Reporting, BannerFormat) {
  std::ostringstream os;
  print_banner(os, "Table 9");
  EXPECT_EQ(os.str(), "\n== Table 9 ==\n");
}

TEST(Reporting, AsciiChartContainsAxesAndGlyphs) {
  std::vector<std::pair<double, double>> series;
  for (int i = 0; i <= 10; ++i) {
    series.emplace_back(i, i * i);
  }
  AsciiChartOptions options;
  options.width = 40;
  options.height = 10;
  options.x_label = "x";
  const std::string chart = render_ascii_chart(series, options);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("100"), std::string::npos);  // y max
  EXPECT_NE(chart.find('+'), std::string::npos);    // axis corners
}

TEST(Reporting, AsciiChartTwoSeriesUsesDistinctGlyphs) {
  std::vector<std::pair<double, double>> up, down;
  for (int i = 0; i <= 10; ++i) {
    up.emplace_back(i, i);
    down.emplace_back(i, 10 - i);
  }
  AsciiChartOptions options;
  options.width = 40;
  options.height = 10;
  const std::string chart = render_ascii_chart2(up, down, options);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);  // the crossing point
}

TEST(Reporting, EmptySeriesHandled) {
  AsciiChartOptions options;
  EXPECT_EQ(render_ascii_chart({}, options), "(empty series)\n");
}

}  // namespace
}  // namespace broadway
