// Multi-proxy fleet sweep: proxy count x object count, independent polling
// vs cooperative proxy-proxy push.
//
// The paper evaluates one proxy against one origin; this driver measures
// what changes when N proxies share the origin (src/fleet/).  For every
// configuration it runs both fleet modes over the same trace set and
// reports
//   * origin polls (and polls/sec) — the load the origin actually sees;
//   * relay messages delivered/applied on the proxy-proxy channel;
//   * mean/min Eq. 14 temporal fidelity over every (proxy, object) pair.
//
// Expected shape: independent polling multiplies origin load by N at
// unchanged fidelity; cooperative push keeps origin load near the
// single-proxy level (the first proxy to poll relays to the rest) at
// equal-or-better fidelity, paying in relay traffic instead.
//
// The object-count axis (hundreds to thousands of tracked objects per
// engine) exercises the indexed PollLog: per-object evaluation queries
// stay O(records-for-uri) regardless of fleet-wide log size.
//
// Flags: --smoke (small sweep for CI), --csv (machine-readable output).
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "fleet/faults.h"
#include "harness/experiments.h"
#include "harness/reporting.h"
#include "trace/generators.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/time.h"

namespace {

using namespace broadway;

// Heterogeneous working set: mean update interval log-uniform between 5
// minutes and 2 hours, Poisson updates.  A fixed seed per object makes the
// sweep reproducible and the two modes see identical traces.
std::vector<UpdateTrace> make_working_set(std::size_t objects,
                                          Duration horizon) {
  std::vector<UpdateTrace> traces;
  traces.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    Rng rng(0x9e3779b9u + i);
    const double log_lo = std::log(minutes(5.0));
    const double log_hi = std::log(hours(2.0));
    const double mean_interval =
        std::exp(rng.uniform(log_lo, log_hi));
    auto updates = generate_poisson(rng, 1.0 / mean_interval, horizon);
    traces.emplace_back("/obj/" + std::to_string(i), std::move(updates),
                        horizon);
  }
  return traces;
}

FleetRunConfig make_config(std::size_t proxies, bool cooperative) {
  FleetRunConfig config;
  config.proxies = proxies;
  config.cooperative_push = cooperative;
  config.base.delta = minutes(10.0);
  config.base.ttr_max = hours(1.0);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace broadway;
  bool smoke = false;
  bool csv = false;
  Flags flags;
  flags.add_bool("smoke", &smoke,
                 "small sweep (CI bit-rot check): {1,2} proxies x {64} "
                 "objects, 2h horizon");
  flags.add_bool("csv", &csv, "emit CSV instead of the text table");
  if (!flags.parse(argc, argv)) return 1;

  const Duration horizon = smoke ? hours(2.0) : hours(6.0);
  const std::vector<std::size_t> proxy_counts =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::size_t> object_counts =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{64, 256, 1024};

  if (!csv) {
    print_banner(std::cout,
                 "Proxy fleet sweep: independent polling vs cooperative "
                 "push (Delta = 10 min)");
  } else {
    std::cout << "proxies,objects,mode,origin_polls,origin_polls_per_sec,"
                 "relays_delivered,relays_applied,mean_fidelity,"
                 "min_fidelity\n";
  }

  TextTable table;
  table.set_header({"proxies", "objects", "mode", "origin polls", "polls/s",
                    "relays", "applied", "mean fid", "min fid"});

  bool cooperative_always_cheaper = true;
  bool cooperative_fidelity_holds = true;
  for (const std::size_t objects : object_counts) {
    const auto traces = make_working_set(objects, horizon);
    for (const std::size_t proxies : proxy_counts) {
      FleetRunResult independent, cooperative;
      for (const bool coop : {false, true}) {
        const auto result =
            run_fleet_temporal(traces, make_config(proxies, coop));
        (coop ? cooperative : independent) = result;
        const std::string mode = coop ? "cooperative" : "independent";
        if (csv) {
          std::cout << proxies << ',' << objects << ',' << mode << ','
                    << result.origin_polls << ','
                    << fmt(result.origin_polls_per_second, 4) << ','
                    << result.relays.delivered << ','
                    << result.relays.applied << ','
                    << fmt(result.mean_fidelity_time, 5) << ','
                    << fmt(result.min_fidelity_time, 5) << '\n';
        } else {
          table.add_row({std::to_string(proxies), std::to_string(objects),
                         mode, std::to_string(result.origin_polls),
                         fmt(result.origin_polls_per_second, 3),
                         std::to_string(result.relays.delivered),
                         std::to_string(result.relays.applied),
                         fmt(result.mean_fidelity_time, 4),
                         fmt(result.min_fidelity_time, 4)});
        }
      }
      if (proxies > 1) {
        if (cooperative.origin_polls >= independent.origin_polls) {
          cooperative_always_cheaper = false;
        }
        if (cooperative.mean_fidelity_time <
            independent.mean_fidelity_time - 1e-9) {
          cooperative_fidelity_holds = false;
        }
      }
    }
  }

  // Client-traffic leg: drive aggregated client streams at a cooperative
  // fleet and check the client-side headline properties.  Every proxy
  // polls at most ttr_max apart (rtt later the content lands), and relays
  // only tighten the serve series, so a transaction δ of
  // ttr_max + rtt + relay_latency bounds the cross-proxy snapshot spread:
  // with δ respected, violations must be exactly zero.
  ClientFleetRunConfig client_config;
  client_config.fleet = make_config(/*proxies=*/2, /*cooperative=*/true);
  client_config.client.request_rate = 2.0;
  client_config.transactions.rate = 0.05;
  client_config.transactions.objects = 3;
  client_config.transactions.delta = client_config.fleet.base.ttr_max +
                                     client_config.fleet.base.engine.rtt +
                                     client_config.fleet.relay_latency + 60.0;
  const auto client_result = run_fleet_client_temporal(
      make_working_set(object_counts.front(), horizon), client_config);
  const bool clients_hit = client_result.clients.hit_rate() > 0.0;
  const bool delta_respected =
      client_result.transactions.complete > 0 &&
      client_result.transactions.violations == 0;

  // Demand-fill leg: the same client fleet under heavy loss with slow
  // retries (long uncached windows), fills off vs on.  The request
  // streams are identical — the engine knob cannot influence the traffic
  // draws — so the comparison is exact: filling must strictly reduce
  // client misses, every fill must appear in both the client-side and
  // origin-side ledgers, and the origin-load invariant
  //   origin_polls == policy polls + demand fills
  // must hold against a recount of the full record streams.
  ClientFleetRunConfig lossy = client_config;
  lossy.transactions.rate = 0.0;
  lossy.fleet.base.engine.loss_probability = 0.3;
  lossy.fleet.base.engine.retry_delay = 600.0;
  const auto demand_traces = make_working_set(object_counts.front(), horizon);
  lossy.fleet.base.engine.demand_fill = false;
  const auto fills_off = run_fleet_client_temporal(demand_traces, lossy);
  lossy.fleet.base.engine.demand_fill = true;
  const auto fills_on = run_fleet_client_temporal(demand_traces, lossy);
  const bool fills_happen =
      fills_off.origin_load.demand_fills == 0 &&
      fills_on.origin_load.demand_fills > 0 &&
      fills_on.clients.demand_fills == fills_on.origin_load.demand_fills;
  const bool fill_invariant_holds =
      fills_on.origin_load.origin_polls ==
          fills_on.origin_load.policy_polls() +
              fills_on.origin_load.demand_fills &&
      fills_on.causes.client_miss == fills_on.origin_load.demand_fills &&
      fills_on.causes.total_refreshes() == fills_on.origin_load.origin_polls;
  const bool fills_reduce_misses =
      fills_on.clients.requests == fills_off.clients.requests &&
      fills_on.clients.misses < fills_off.clients.misses;

  // Fault-injection leg (fleet/faults.h), two runs:
  //
  // (a) Lossy relay channel, no crashes: with capped-backoff retries the
  //     losses must all be re-sent (delivery still happens, just late),
  //     the relay ledger must balance, and — because a retried relay
  //     arrives seconds late against TTRs of minutes — temporal fidelity
  //     must stay within a whisker of the lossless run over the same
  //     traces.  That is the graceful-degradation headline: loss costs
  //     relay traffic, not consistency.
  FleetRunConfig lossy_fleet = make_config(/*proxies=*/2, /*cooperative=*/true);
  lossy_fleet.relay_latency = 0.5;
  lossy_fleet.faults.relay_loss = 0.2;
  lossy_fleet.faults.relay_jitter_max = 0.25;
  lossy_fleet.faults.retry_backoff_base = 1.0;
  lossy_fleet.faults.retry_backoff_cap = 8.0;
  lossy_fleet.faults.relay_retry_limit = 6;
  const auto fault_traces = make_working_set(object_counts.front(), horizon);
  FleetRunConfig lossless_fleet = lossy_fleet;
  lossless_fleet.faults = FaultSchedule{};
  const auto lossless = run_fleet_temporal(fault_traces, lossless_fleet);
  const auto lossy_run = run_fleet_temporal(fault_traces, lossy_fleet);
  const bool relay_faults_fire = lossy_run.relays.lost > 0 &&
                                 lossy_run.relays.retried > 0 &&
                                 lossy_run.relays.delivered > 0;
  const bool relay_ledger_balances = lossy_run.relays.balanced();
  const bool lossy_fidelity_holds =
      lossy_run.mean_fidelity_time >= lossless.mean_fidelity_time - 0.02;

  // (b) A crash window layered on the lossy channel, with client traffic:
  //     the dark proxy's reads must be counted (and split into stale hits
  //     vs outage misses), and relays landing on it must show up as
  //     dropped-dark in the ledger.
  ClientFleetRunConfig outage = client_config;
  outage.transactions.rate = 0.0;
  outage.fleet = lossy_fleet;
  outage.fleet.faults.crashes.push_back({0, {{2700.0, 4500.0}}});
  const auto outage_result = run_fleet_client_temporal(
      make_working_set(object_counts.front(), horizon), outage);
  const bool outage_degrades =
      outage_result.fleet.dark_time > 0.0 &&
      outage_result.clients.dark_reads > 0 &&
      outage_result.clients.dark_stale + outage_result.clients.dark_misses <=
          outage_result.clients.dark_reads &&
      outage_result.fleet.relays.dropped_dark > 0;
  if (!csv) {
    table.print(std::cout);
    std::cout << "\nClient traffic (2 cooperative proxies, "
              << object_counts.front() << " objects):\n  requests "
              << client_result.clients.requests << ", hit rate "
              << fmt(client_result.clients.hit_rate(), 4) << ", mean age "
              << fmt(client_result.clients.age.mean(), 2)
              << " s, mean staleness "
              << fmt(client_result.clients.staleness.mean(), 2)
              << " s\n  transactions "
              << client_result.transactions.transactions << " (complete "
              << client_result.transactions.complete << "), spread mean "
              << fmt(client_result.transactions.spread.mean(), 2)
              << " s, violations "
              << client_result.transactions.violations << "\n";
    std::cout << "\nDemand fills (loss 0.3, retry 600 s):\n  fills off: "
              << fills_off.clients.misses << " misses / "
              << fills_off.clients.requests << " requests\n  fills on:  "
              << fills_on.clients.misses << " misses, "
              << fills_on.origin_load.demand_fills
              << " demand fills, mean fill latency "
              << fmt(fills_on.clients.fill_latency.mean(), 3) << " s\n";
    FaultSummary fault_summary;
    fault_summary.dark_time = outage_result.fleet.dark_time;
    fault_summary.dark_reads = outage_result.clients.dark_reads;
    fault_summary.dark_stale = outage_result.clients.dark_stale;
    fault_summary.dark_misses = outage_result.clients.dark_misses;
    fault_summary.relays = outage_result.fleet.relays;
    TextTable fault_table;
    fault_table.set_header(
        {"fault injection (crash 2700-4500 s, loss 0.2)", "value"});
    add_fault_rows(fault_table, fault_summary);
    std::cout << "\n";
    fault_table.print(std::cout);
    std::cout << "\nChecks:\n  - cooperative push cheaper at the origin "
                 "for every N > 1: "
              << (cooperative_always_cheaper ? "yes" : "NO")
              << "\n  - cooperative fidelity >= independent fidelity: "
              << (cooperative_fidelity_holds ? "yes" : "NO")
              << "\n  - client reads hit the prefetched cache: "
              << (clients_hit ? "yes" : "NO")
              << "\n  - zero violations at delta = ttr_max + rtt + relay: "
              << (delta_respected ? "yes" : "NO")
              << "\n  - demand fills fire and both ledgers agree: "
              << (fills_happen ? "yes" : "NO")
              << "\n  - origin polls == policy polls + demand fills: "
              << (fill_invariant_holds ? "yes" : "NO")
              << "\n  - fills strictly reduce client misses: "
              << (fills_reduce_misses ? "yes" : "NO")
              << "\n  - relay losses fire and every loss is retried: "
              << (relay_faults_fire ? "yes" : "NO")
              << "\n  - ledger: sent == delivered + in-flight + lost: "
              << (relay_ledger_balances ? "yes" : "NO")
              << "\n  - lossy fidelity within 0.02 of lossless: "
              << (lossy_fidelity_holds ? "yes" : "NO")
              << "\n  - crash window degrades gracefully (dark reads "
                 "classified, relays dropped dark): "
              << (outage_degrades ? "yes" : "NO") << "\n";
  }
  // Non-zero exit keeps the CI smoke run honest: the fleet path must keep
  // its headline properties, not merely run to completion.
  return cooperative_always_cheaper && cooperative_fidelity_holds &&
                 clients_hit && delta_respected && fills_happen &&
                 fill_invariant_holds && fills_reduce_misses &&
                 relay_faults_fire && relay_ledger_balances &&
                 lossy_fidelity_holds && outage_degrades
             ? 0
             : 1;
}
