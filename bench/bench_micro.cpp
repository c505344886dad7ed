// Micro-benchmarks of the library's hot paths (google-benchmark):
// policy updates, event queue, evaluators, codec, trace queries, and
// end-to-end engine sweeps (the BENCH_results.json perf trajectory; see
// README "Performance").
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "client/client_traffic.h"
#include "consistency/limd.h"
#include "consistency/partitioned.h"
#include "consistency/triggered.h"
#include "consistency/value_ttr.h"
#include "fleet/proxy_fleet.h"
#include "fleet/sharded_fleet.h"
#include "http/codec.h"
#include "http/extensions.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "origin/origin_server.h"
#include "proxy/poll_log.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/diurnal.h"
#include "trace/generators.h"
#include "trace/paper_workloads.h"
#include "trace/update_trace.h"
#include "util/rng.h"

namespace {

using namespace broadway;

void BM_LimdNextTtr(benchmark::State& state) {
  LimdPolicy policy(LimdPolicy::Config::paper_defaults(600.0));
  TimePoint t = 0.0;
  TimePoint update = 300.0;
  for (auto _ : state) {
    TemporalPollObservation obs;
    obs.previous_poll_time = t;
    t += policy.current_ttr();
    obs.poll_time = t;
    obs.modified = (static_cast<int>(t) % 3) == 0;
    if (obs.modified) {
      update = std::min(t - 1.0, update + 700.0);
      obs.last_modified = update;
      obs.history = {update};
    }
    benchmark::DoNotOptimize(policy.next_ttr(obs));
  }
}
BENCHMARK(BM_LimdNextTtr);

void BM_AdaptiveValueNextTtr(benchmark::State& state) {
  AdaptiveValueTtrPolicy::Config config;
  config.delta = 0.5;
  config.bounds = {1.0, 300.0};
  AdaptiveValueTtrPolicy policy(config);
  TimePoint t = 0.0;
  double value = 100.0;
  Rng rng(5);
  for (auto _ : state) {
    ValuePollObservation obs;
    obs.previous_poll_time = t;
    t += policy.current_ttr();
    obs.poll_time = t;
    obs.previous_value = value;
    value += rng.uniform(-0.2, 0.2);
    obs.value = value;
    benchmark::DoNotOptimize(policy.next_ttr(obs));
  }
}
BENCHMARK(BM_AdaptiveValueNextTtr);

void BM_ApportionTolerances(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<double> rates(n);
  std::vector<double> coefficients(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = 0.01 * static_cast<double>(i + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        apportion_tolerances(1.0, rates, coefficients));
  }
}
BENCHMARK(BM_ApportionTolerances)->Arg(2)->Arg(8)->Arg(64);

// The CI regression gate's calibration benchmark: a bulk schedule-then-
// drain of the simulator alone — the gate compares engine-bench /
// calibration ratios across machines and baselines.
void BM_SimulatorScheduleRun(benchmark::State& state) {
  const int events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < events; ++i) {
      sim.schedule_at(((i * 7919) % events) + 1.0, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.executed());
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1000)->Arg(10000);

// Scheduler sweep: N self-rescheduling timers with irregular periods —
// the shape of a fleet poll schedule, where the event at the queue head
// constantly re-enqueues itself somewhere in the near future.  Arg =
// timer count.
class SweepTimers : private TimerOwner {
 public:
  SweepTimers(Simulator& sim, int count)
      : timers_(static_cast<std::size_t>(count)),
        state_(static_cast<std::size_t>(count)) {
    for (int i = 0; i < count; ++i) {
      const auto index = static_cast<std::uint32_t>(i);
      state_[index] = 0x9e3779b97f4a7c15ull * (index + 1ull);
      timers_[index].bind(sim, *this, /*kind=*/0, index);
      timers_[index].start(static_cast<double>(i % 101) * 0.5);
    }
  }

  Timer& timer(std::size_t i) { return timers_[i]; }

  /// 1–100 s periods, deterministic per timer; the modulus also
  /// manufactures same-instant collisions across timers.
  Duration next_period(std::size_t i) {
    std::uint64_t& x = state_[i];
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return 1.0 + static_cast<double>(x % 991) / 10.0;
  }

 private:
  void on_timer(Timer& timer) override {
    timer.reschedule(next_period(timer.subject()));
  }

  std::vector<Timer> timers_;  // sized once: timers never move
  std::vector<std::uint64_t> state_;
};

void BM_SchedulerSweep(benchmark::State& state) {
  const int timers = static_cast<int>(state.range(0));
  constexpr TimePoint kHorizon = 2000.0;
  std::int64_t events = 0;
  for (auto _ : state) {
    Simulator sim;
    SweepTimers sweep(sim, timers);
    sim.run_until(kHorizon);
    events += static_cast<std::int64_t>(sim.executed());
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_SchedulerSweep)
    ->Arg(256)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

// The triggered-poll shape of paper_mutual: 8 192 self-rescheduling
// timers, and after each firing about 0.7 pull-forwards of another timer
// to now + its next period (a triggered poll re-arms the member's
// schedule from the poll instant).  paper_mutual fires 305 k events per
// repetition and re-arms 232 k pending timers: 0.76 per firing.  Items =
// firings.
void BM_TimerPullForwardStorm(benchmark::State& state) {
  constexpr int kTimers = 8192;
  constexpr std::size_t kFirings = 200'000;
  std::int64_t firings = 0;
  for (auto _ : state) {
    Simulator sim;
    SweepTimers sweep(sim, kTimers);
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (std::size_t i = 0; i < kFirings; ++i) {
      sim.step();
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      if (x % 10 < 7) {
        const std::size_t target = (x >> 8) % kTimers;
        sweep.timer(target).reschedule(sweep.next_period(target));
      }
    }
    firings += static_cast<std::int64_t>(sim.executed());
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(firings);
}
BENCHMARK(BM_TimerPullForwardStorm)->Unit(benchmark::kMillisecond);

// The per-poll observation-history build + restriction, exactly as
// TemporalObject::on_response performs it.  Arg = wire history length:
// 4 stays inside the SmallVector's inline capacity (no allocation),
// 32 spills to the heap.
void BM_ObservationHistory(benchmark::State& state) {
  const std::size_t entries = static_cast<std::size_t>(state.range(0));
  std::vector<TimePoint> wire(entries);
  for (std::size_t i = 0; i < entries; ++i) {
    wire[i] = static_cast<double>(i + 1) * 10.0;
  }
  Response response;
  response.status = StatusCode::kOk;
  response.meta.active = true;
  response.meta.history_present = true;
  response.meta.history = wire;
  const TimePoint previous = 15.0;  // restriction drops the first entry
  for (auto _ : state) {
    TemporalPollObservation obs;
    wire_modification_history(response, obs.history);
    const auto first = std::upper_bound(obs.history.begin(),
                                        obs.history.end(), previous);
    obs.history.erase(obs.history.begin(), first);
    benchmark::DoNotOptimize(obs.history.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries));
}
BENCHMARK(BM_ObservationHistory)->Arg(4)->Arg(32);

void BM_HttpCodecRoundTrip(benchmark::State& state) {
  Request req = Request::conditional_get("/news/breaking/story.html",
                                         123456.789);
  set_delta_tolerance(req.headers, 600.0);
  set_group(req.headers, "breaking-news", 300.0);
  for (auto _ : state) {
    const std::string wire = serialize(req);
    benchmark::DoNotOptimize(parse_request(wire));
  }
}
BENCHMARK(BM_HttpCodecRoundTrip);

void BM_TraceVersionQuery(benchmark::State& state) {
  const UpdateTrace trace = make_guardian_trace();
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trace.version_at(rng.uniform(0.0, trace.duration())));
  }
}
BENCHMARK(BM_TraceVersionQuery);

void BM_TemporalFidelityEvaluation(benchmark::State& state) {
  const UpdateTrace trace = make_cnn_fn_trace();
  std::vector<PollInstant> polls;
  for (TimePoint t = 0.0; t < trace.duration(); t += 600.0) {
    polls.push_back(PollInstant{t, t});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        evaluate_temporal_fidelity(trace, polls, 600.0, trace.duration()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(polls.size()));
}
BENCHMARK(BM_TemporalFidelityEvaluation);

// Mt evaluation of one δ-group pair over 12 h, as bench/e2e's
// paper_mutual evaluates each adjacent member pair: Poisson updates (mean
// 10 min) on both objects, a polled every 1-15 min, and b polled on its
// own schedule plus, for half of a's polls, a triggered poll at the same
// instant.
void BM_MutualTemporalEvaluation(benchmark::State& state) {
  constexpr Duration kHorizon = 12.0 * 3600.0;
  Rng rng(11);
  const UpdateTrace trace_a("a", generate_poisson(rng, 1.0 / 600.0, kHorizon),
                            kHorizon);
  const UpdateTrace trace_b("b", generate_poisson(rng, 1.0 / 600.0, kHorizon),
                            kHorizon);
  std::vector<PollInstant> polls_a = {{0.0, 0.0}};
  std::vector<PollInstant> polls_b = {{0.0, 0.0}};
  for (TimePoint t = rng.uniform(60.0, 900.0); t < kHorizon;
       t += rng.uniform(60.0, 900.0)) {
    polls_a.push_back({t, t});
    if (rng.bernoulli(0.5)) polls_b.push_back({t, t});
  }
  for (TimePoint t = rng.uniform(60.0, 900.0); t < kHorizon;
       t += rng.uniform(60.0, 900.0)) {
    polls_b.push_back({t, t});
  }
  std::sort(polls_b.begin(), polls_b.end(),
            [](const PollInstant& x, const PollInstant& y) {
              return x.complete < y.complete;
            });
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluate_mutual_temporal(
        trace_a, polls_a, trace_b, polls_b, 60.0, kHorizon));
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(polls_a.size() + polls_b.size()));
}
BENCHMARK(BM_MutualTemporalEvaluation);

// Origin reads as a polling proxy issues them: typed conditional GETs for
// 4096 trace-backed objects (Poisson updates, mean 10 min, over 12 h; the
// traces outgrow the L2 cache, as paper_mutual's do), each polled every
// 2 min with the instant of its last 200 as validator, so about four
// answers in five are 304s with no update due.  Each iteration
// replays the schedule through a fresh reader of the shared content.
void BM_OriginConditionalGet(benchmark::State& state) {
  constexpr std::size_t kObjects = 4096;
  constexpr Duration kHorizon = 12.0 * 3600.0;
  constexpr Duration kPeriod = 120.0;
  Simulator content_sim;
  OriginServer::Config config;
  config.render_bodies = false;
  OriginServer content(content_sim, config);
  Rng rng(5);
  std::vector<ObjectId> ids;
  for (std::size_t i = 0; i < kObjects; ++i) {
    const std::string uri = "/object/" + std::to_string(i);
    content.attach_update_trace(
        uri, UpdateTrace(uri, generate_poisson(rng, 1.0 / 600.0, kHorizon),
                         kHorizon));
    ids.push_back(content.object_id(uri));
  }
  std::size_t requests = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer reader(sim, content);
    std::vector<TimePoint> fetched(kObjects, 0.0);
    Request request;
    request.meta.active = true;
    Response response;
    requests = 0;
    for (TimePoint t = 1.0; t < kHorizon; t += kPeriod) {
      sim.advance_clock(t);
      for (std::size_t i = 0; i < kObjects; ++i) {
        request.object = ids[i];
        request.meta.if_modified_since = fetched[i];
        reader.handle(request, response);
        if (response.ok()) fetched[i] = t;
        ++requests;
      }
    }
    benchmark::DoNotOptimize(reader.responses_304());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(requests));
}
BENCHMARK(BM_OriginConditionalGet)->Unit(benchmark::kMillisecond);

// A poll log as a harness sweep produces it: `objects` uris polled
// round-robin, 200 records each, appended by id as the engine appends.
// The uris are interned into `table` (which must outlive the log) and
// returned in `uris`, their ids in `ids`.
PollLog make_poll_log(UriTable& table, std::size_t objects,
                      std::vector<std::string>& uris,
                      std::vector<ObjectId>& ids) {
  PollLog log(table);
  uris.clear();
  ids.clear();
  for (std::size_t i = 0; i < objects; ++i) {
    uris.push_back("/object/" + std::to_string(i));
    ids.push_back(table.intern(uris.back()));
  }
  TimePoint t = 0.0;
  for (std::size_t round = 0; round < 200; ++round) {
    for (const ObjectId id : ids) {
      log.append(id,
                 round == 0 ? PollCause::kInitial : PollCause::kScheduled,
                 /*modified=*/(round % 3) == 0, /*failed=*/false, t, t);
      t += 1.0;
    }
  }
  return log;
}

// Per-object metric extraction through the per-object index: the id-keyed
// counter and the PollLog successful_polls overload the evaluation uses.
void BM_PollLogIndexedQueries(benchmark::State& state) {
  UriTable table;
  std::vector<std::string> uris;
  std::vector<ObjectId> ids;
  const PollLog log = make_poll_log(
      table, static_cast<std::size_t>(state.range(0)), uris, ids);
  for (auto _ : state) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      total += log.polls_performed(ids[i]);
      total += successful_polls(log, uris[i]).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(uris.size()));
}
BENCHMARK(BM_PollLogIndexedQueries)->Arg(16)->Arg(256);

// The same extraction by scanning the whole record vector once per object
// (the pre-index behaviour) — goes quadratic as objects grow.
void BM_PollLogScanQueries(benchmark::State& state) {
  UriTable table;
  std::vector<std::string> uris;
  std::vector<ObjectId> ids;
  const PollLog log = make_poll_log(
      table, static_cast<std::size_t>(state.range(0)), uris, ids);
  for (auto _ : state) {
    std::size_t total = 0;
    for (const ObjectId id : ids) {
      total += successful_polls(log.records(), id).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(uris.size()));
}
BENCHMARK(BM_PollLogScanQueries)->Arg(16)->Arg(256);

// ---- end-to-end engine sweeps ---------------------------------------------
//
// These drive the full poll pipeline (simulator -> engine -> origin ->
// policy -> poll log) exactly as the paper's evaluation sweeps do, so they
// measure what fleet-scale runs actually pay per poll.  The ratio of these
// benches against the committed bench/BENCH_baseline.json is the CI perf
// gate (tools/check_bench_regression.py).

constexpr Duration kSweepHorizon = 20000.0;

// Bench origins skip HTML body rendering: the consistency machinery reads
// only the typed metadata, and no bench consumer looks at payloads.
OriginServer::Config bench_origin_config() {
  OriginServer::Config config;
  config.render_bodies = false;
  return config;
}

// Irregular synthetic update streams: deterministic per object, mean
// inter-update gap swept across objects so LIMD TTRs spread out.
std::vector<UpdateTrace> make_sweep_traces(std::size_t objects) {
  std::vector<UpdateTrace> traces;
  traces.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    Rng rng(1000 + i);
    std::vector<TimePoint> updates;
    TimePoint t = 0.0;
    for (;;) {
      t += rng.uniform(120.0, 600.0 + 10.0 * static_cast<double>(i % 128));
      if (t >= kSweepHorizon) break;
      updates.push_back(t);
    }
    traces.emplace_back("/object/" + std::to_string(i), std::move(updates),
                        kSweepHorizon);
  }
  return traces;
}

// One proxy, N temporal objects under LIMD, full horizon run.
void BM_EngineTemporalSweep(benchmark::State& state) {
  const std::size_t objects = static_cast<std::size_t>(state.range(0));
  const std::vector<UpdateTrace> traces = make_sweep_traces(objects);
  std::int64_t polls = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer origin(sim, bench_origin_config());
    PollingEngine engine(sim, origin);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
      engine.add_temporal_object(
          trace.name(),
          std::make_unique<LimdPolicy>(LimdPolicy::Config::paper_defaults(600.0)));
    }
    engine.start();
    sim.run_until(kSweepHorizon);
    polls += static_cast<std::int64_t>(engine.polls_performed());
    benchmark::DoNotOptimize(engine.poll_log().size());
  }
  state.SetItemsProcessed(polls);
}
BENCHMARK(BM_EngineTemporalSweep)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

// ---- coordinator dispatch --------------------------------------------------

// Update streams faster than TTR_min, so every scheduled poll observes a
// modification: the dispatch path runs its full depth (a coordinator
// bails immediately on unmodified polls in any dispatch mode), which is
// exactly the regime where the old fan-out hurt.
std::vector<UpdateTrace> make_fanout_traces(std::size_t objects) {
  std::vector<UpdateTrace> traces;
  traces.reserve(objects);
  for (std::size_t i = 0; i < objects; ++i) {
    Rng rng(7000 + i);
    std::vector<TimePoint> updates;
    TimePoint t = 0.0;
    for (;;) {
      t += rng.uniform(120.0, 360.0);
      if (t >= kSweepHorizon) break;
      updates.push_back(t);
    }
    traces.emplace_back("/object/" + std::to_string(i), std::move(updates),
                        kSweepHorizon);
  }
  return traces;
}

// Stage-6 dispatch cost as the number of attached δ-groups grows:
// eight-member groups over 128 LIMD objects with δ wider than any poll
// gap, so the window test always answers "recent enough" and no poll is
// ever actually triggered — the bench isolates dispatch (who is notified,
// and how the members are looked up) from trigger work.  Id-keyed
// subscription routing pays O(groups containing the polled object) — at
// most a handful here — per poll; the pre-interning fan-out paid a
// string-keyed virtual call into every attached group per poll, each
// walking its full member list with string compares and uri-hash δ-window
// probes (the committed BENCH_baseline.json entries were measured on that
// path — the pre-PR tree — so the trajectory records the routing win).
void BM_CoordinatorFanout(benchmark::State& state) {
  const std::size_t groups = static_cast<std::size_t>(state.range(0));
  const std::size_t objects = 128;
  const std::vector<UpdateTrace> traces = make_fanout_traces(objects);
  std::int64_t polls = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer origin(sim, bench_origin_config());
    PollingEngine engine(sim, origin);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
      engine.add_temporal_object(
          trace.name(),
          std::make_unique<LimdPolicy>(
              LimdPolicy::Config::paper_defaults(600.0)));
    }
    for (std::size_t g = 0; g < groups; ++g) {
      // Eight consecutive objects per group; past full coverage (128 / 8
      // = 16 groups) further groups wrap with a stagger, so high group
      // counts mean several groups per object, never duplicate groups.
      const std::size_t start = (g * 8 + (g / 16) * 3) % objects;
      std::vector<std::string> members;
      members.reserve(8);
      for (std::size_t j = 0; j < 8; ++j) {
        members.push_back(traces[(start + j) % objects].name());
      }
      engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
          std::move(members), /*delta_mutual=*/kSweepHorizon));
    }
    engine.start();
    sim.run_until(kSweepHorizon);
    polls += static_cast<std::int64_t>(engine.polls_performed());
    benchmark::DoNotOptimize(engine.coordinator_notifies());
  }
  state.SetItemsProcessed(polls);
}
BENCHMARK(BM_CoordinatorFanout)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

// A full grouped engine sweep: 256 LIMD objects partitioned into 32
// eight-member δ-groups with a realistic δ, so triggered polls really
// fire and cascade — the end-to-end cost of running mutual consistency
// over a grouped working set.
void BM_GroupedTemporalSweep(benchmark::State& state) {
  constexpr std::size_t kObjects = 256;
  constexpr std::size_t kGroupSize = 8;
  const std::vector<UpdateTrace> traces = make_sweep_traces(kObjects);
  std::int64_t polls = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer origin(sim, bench_origin_config());
    PollingEngine engine(sim, origin);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
      engine.add_temporal_object(
          trace.name(),
          std::make_unique<LimdPolicy>(
              LimdPolicy::Config::paper_defaults(600.0)));
    }
    for (std::size_t g = 0; g < kObjects / kGroupSize; ++g) {
      std::vector<std::string> members;
      members.reserve(kGroupSize);
      for (std::size_t i = 0; i < kGroupSize; ++i) {
        members.push_back(traces[g * kGroupSize + i].name());
      }
      engine.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
          std::move(members), /*delta_mutual=*/120.0));
    }
    engine.start();
    sim.run_until(kSweepHorizon);
    polls += static_cast<std::int64_t>(engine.polls_performed());
    benchmark::DoNotOptimize(engine.triggered_polls());
  }
  state.SetItemsProcessed(polls);
}
BENCHMARK(BM_GroupedTemporalSweep)->Unit(benchmark::kMillisecond);

// A fleet under cooperative push: every poll relays to every sibling
// tracking the uri, so the relay path dominates.
void run_relay_storm(benchmark::State& state, Duration relay_latency) {
  const std::size_t proxies = static_cast<std::size_t>(state.range(0));
  const std::size_t objects = 64;
  const std::vector<UpdateTrace> traces = make_sweep_traces(objects);
  std::int64_t refreshes = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer origin(sim, bench_origin_config());
    FleetConfig config;
    config.proxies = proxies;
    config.cooperative_push = true;
    config.relay_latency = relay_latency;
    ProxyFleet fleet(sim, origin, config);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
      fleet.add_temporal_object_everywhere(trace.name(), [] {
        return std::make_unique<LimdPolicy>(
            LimdPolicy::Config::paper_defaults(600.0));
      });
    }
    fleet.start();
    sim.run_until(kSweepHorizon);
    refreshes += static_cast<std::int64_t>(fleet.origin_polls() +
                                           fleet.relays_applied());
    benchmark::DoNotOptimize(fleet.origin_load().origin_messages);
  }
  state.SetItemsProcessed(refreshes);
}

// Synchronous relays (relay_latency 0): each sibling reads the polled
// response in place.
void BM_FleetRelayStorm(benchmark::State& state) {
  run_relay_storm(state, 0.0);
}
BENCHMARK(BM_FleetRelayStorm)->Arg(4)->Unit(benchmark::kMillisecond);

// The same storm with a 5 s relay latency: every fan-out is one shared
// message and one delivery event for all seven siblings.
void BM_FleetDelayedRelayStorm(benchmark::State& state) {
  run_relay_storm(state, 5.0);
}
BENCHMARK(BM_FleetDelayedRelayStorm)
    ->ArgName("proxies")
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The relay-storm topology with the fault layer switched on: loss,
// jitter and capped-backoff retries on every relay, plus a staggered
// crash window per even-indexed proxy.  Every relay attempt now pays the
// counter-keyed hash draws and the per-attempt ledger, a steady fraction
// spawns retry chains, and deliveries probe the crash schedule — the
// delta against BM_FleetRelayStorm is the price of fault injection
// itself.  Items rate counts relay attempts (retries included), the
// quantity the fault path scales with.
void BM_FleetFaultSweep(benchmark::State& state) {
  const std::size_t proxies = static_cast<std::size_t>(state.range(0));
  const std::size_t objects = 64;
  const std::vector<UpdateTrace> traces = make_sweep_traces(objects);
  FaultSchedule faults;
  for (std::size_t p = 0; p < proxies; p += 2) {
    const double start = 4000.0 + 1500.0 * static_cast<double>(p);
    faults.crashes.push_back({p, {{start, start + 2500.0}}});
  }
  faults.relay_loss = 0.15;
  faults.relay_jitter_max = 0.4;
  faults.retry_backoff_base = 1.0;
  faults.retry_backoff_cap = 8.0;
  faults.relay_retry_limit = 4;
  std::int64_t attempts = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer origin(sim, bench_origin_config());
    FleetConfig config;
    config.proxies = proxies;
    config.cooperative_push = true;
    config.relay_latency = 1.0;
    config.faults = faults;
    ProxyFleet fleet(sim, origin, config);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
      fleet.add_temporal_object_everywhere(trace.name(), [] {
        return std::make_unique<LimdPolicy>(
            LimdPolicy::Config::paper_defaults(600.0));
      });
    }
    fleet.start();
    sim.run_until(kSweepHorizon);
    attempts += static_cast<std::int64_t>(fleet.relays_sent());
    benchmark::DoNotOptimize(fleet.relays_lost() +
                             fleet.relays_dropped_dark());
  }
  state.SetItemsProcessed(attempts);
}
BENCHMARK(BM_FleetFaultSweep)
    ->ArgName("proxies")
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The sharded fleet at full width: 8 cooperative proxies × 1024 LIMD
// objects, every proxy tracking every object, relay latency as the
// conservative-lookahead window.  No δ-groups, so the fleet splits into
// 8 single-proxy shards and the thread count sweeps the worker pool —
// threads:1 runs the identical sharded machinery inline (mailboxes,
// windows, canonical merge), so the ratio to higher thread counts
// isolates parallel speedup from sharding overhead.  Real time is the
// measured quantity: the calling thread simulates only its share of each
// window, so its CPU time does not measure the sweep.
void BM_ShardedFleetSweep(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kProxies = 8;
  constexpr std::size_t kObjects = 1024;
  const auto traces = std::make_shared<const std::vector<UpdateTrace>>(
      make_sweep_traces(kObjects));
  std::int64_t refreshes = 0;
  for (auto _ : state) {
    ShardedFleetConfig config;
    config.fleet.proxies = kProxies;
    config.fleet.cooperative_push = true;
    config.fleet.relay_latency = 60.0;
    config.threads = threads;
    config.origin = bench_origin_config();
    config.origin_setup = [traces](OriginServer& origin) {
      for (const UpdateTrace& trace : *traces) {
        origin.attach_update_trace(trace.name(), trace);
      }
    };
    ShardedFleet fleet(config);
    for (const UpdateTrace& trace : *traces) {
      fleet.add_temporal_object_everywhere(trace.name(), [] {
        return std::make_unique<LimdPolicy>(
            LimdPolicy::Config::paper_defaults(600.0));
      });
    }
    fleet.start();
    fleet.run_until(kSweepHorizon);
    refreshes += static_cast<std::int64_t>(fleet.origin_polls() +
                                           fleet.relays_applied());
    benchmark::DoNotOptimize(fleet.origin_load().origin_messages);
  }
  state.SetItemsProcessed(refreshes);
}
BENCHMARK(BM_ShardedFleetSweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Zero-relay topology under cooperative push: the proxies' working sets
// are disjoint, so every relay fan-out is empty and a lookahead window
// carries nothing — what remains is the pure per-window cost (cost
// hints, batch dispatch, barrier, bound scan, mailbox exchange).  The
// send bound is infinite, so the window edge collapses the run to one
// window; a regression here means the edge lost its jump.
void BM_ShardedWindowOverhead(benchmark::State& state) {
  constexpr std::size_t kProxies = 4;
  constexpr std::size_t kObjectsPerProxy = 32;
  const auto traces = std::make_shared<const std::vector<UpdateTrace>>(
      make_sweep_traces(kProxies * kObjectsPerProxy));
  std::int64_t polls = 0;
  for (auto _ : state) {
    ShardedFleetConfig config;
    config.fleet.proxies = kProxies;
    config.fleet.cooperative_push = true;
    config.fleet.relay_latency = 5.0;  // 4000 latency steps to the horizon
    config.threads = 2;
    config.origin = bench_origin_config();
    config.origin_setup = [traces](OriginServer& origin) {
      for (const UpdateTrace& trace : *traces) {
        origin.attach_update_trace(trace.name(), trace);
      }
    };
    ShardedFleet fleet(config);
    for (std::size_t p = 0; p < kProxies; ++p) {
      for (std::size_t o = 0; o < kObjectsPerProxy; ++o) {
        fleet.add_temporal_object(
            p, (*traces)[p * kObjectsPerProxy + o].name(), [] {
              return std::make_unique<LimdPolicy>(
                  LimdPolicy::Config::paper_defaults(600.0));
            });
      }
    }
    fleet.start();
    fleet.run_until(kSweepHorizon);
    polls += static_cast<std::int64_t>(fleet.origin_polls());
    benchmark::DoNotOptimize(fleet.relays_sent());
  }
  state.SetItemsProcessed(polls);
}
BENCHMARK(BM_ShardedWindowOverhead)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Sparse-relay topology: each proxy polls its own private working set
// (the bulk of the events) plus a few slowly-updating objects shared
// fleet-wide — the only relay traffic.  Each window edge jumps to the
// next instant a shared pair can send, so the window count tracks the
// actual cross-shard traffic rather than horizon / relay_latency; object
// partitioning keeps the private pairs spread across more shards than
// proxies.
void BM_ShardedSparseRelaySweep(benchmark::State& state) {
  const std::size_t threads = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kProxies = 8;
  constexpr std::size_t kPrivatePerProxy = 48;
  constexpr std::size_t kShared = 4;
  auto build_traces = [] {
    std::vector<UpdateTrace> traces;
    for (std::size_t i = 0; i < kShared; ++i) {
      Rng rng(7000 + i);
      std::vector<TimePoint> updates;
      TimePoint t = 0.0;
      for (;;) {
        t += rng.uniform(2500.0, 6000.0);  // slow: LIMD TTRs stretch out
        if (t >= kSweepHorizon) break;
        updates.push_back(t);
      }
      traces.emplace_back("/shared/" + std::to_string(i),
                          std::move(updates), kSweepHorizon);
    }
    std::vector<UpdateTrace> privates =
        make_sweep_traces(kProxies * kPrivatePerProxy);
    for (UpdateTrace& trace : privates) traces.push_back(std::move(trace));
    return traces;
  };
  const auto traces =
      std::make_shared<const std::vector<UpdateTrace>>(build_traces());
  std::int64_t refreshes = 0;
  for (auto _ : state) {
    ShardedFleetConfig config;
    config.fleet.proxies = kProxies;
    config.fleet.cooperative_push = true;
    config.fleet.relay_latency = 5.0;
    config.threads = threads;
    config.shards = kProxies + 4;  // object-partitioned layout
    config.origin = bench_origin_config();
    config.origin_setup = [traces](OriginServer& origin) {
      for (const UpdateTrace& trace : *traces) {
        origin.attach_update_trace(trace.name(), trace);
      }
    };
    ShardedFleet fleet(config);
    const auto policy = [] {
      return std::make_unique<LimdPolicy>(
          LimdPolicy::Config::paper_defaults(600.0));
    };
    for (std::size_t i = 0; i < kShared; ++i) {
      fleet.add_temporal_object_everywhere((*traces)[i].name(), policy);
    }
    for (std::size_t p = 0; p < kProxies; ++p) {
      for (std::size_t o = 0; o < kPrivatePerProxy; ++o) {
        fleet.add_temporal_object(
            p, (*traces)[kShared + p * kPrivatePerProxy + o].name(), policy);
      }
    }
    fleet.start();
    fleet.run_until(kSweepHorizon);
    refreshes += static_cast<std::int64_t>(fleet.origin_polls() +
                                           fleet.relays_applied());
    benchmark::DoNotOptimize(fleet.origin_load().origin_messages);
  }
  state.SetItemsProcessed(refreshes);
}
BENCHMARK(BM_ShardedSparseRelaySweep)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The client-traffic layer over a cooperative fleet: aggregated Poisson
// streams (Zipf popularity, diurnal thinning) reading through every
// proxy's cache while the polling engines refresh underneath.  The items
// rate counts client requests, so this measures the per-request cost of
// thinning + popularity sampling + serve_client_read + classification.
void BM_ClientFleetSweep(benchmark::State& state) {
  const std::size_t proxies = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kObjects = 64;
  const std::vector<UpdateTrace> traces = make_sweep_traces(kObjects);
  std::int64_t requests = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer origin(sim, bench_origin_config());
    FleetConfig config;
    config.proxies = proxies;
    config.cooperative_push = true;
    ClientTrafficConfig traffic;
    traffic.request_rate = 5.0;
    traffic.zipf_exponent = 0.9;
    traffic.profile = DiurnalProfile::newsroom();
    config.client_traffic = traffic;
    ProxyFleet fleet(sim, origin, config);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
      fleet.add_temporal_object_everywhere(trace.name(), [] {
        return std::make_unique<LimdPolicy>(
            LimdPolicy::Config::paper_defaults(600.0));
      });
    }
    fleet.start();
    sim.run_until(kSweepHorizon);
    requests += static_cast<std::int64_t>(
        fleet.client_traffic().requests_issued());
    benchmark::DoNotOptimize(fleet.merged_client_metrics().hit_rate());
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ClientFleetSweep)
    ->ArgName("proxies")
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

// The demand-fill miss path under loss: a lossy fleet with slow retries
// leaves long uncached windows, so a steady share of client reads takes
// the full kClientMiss pipeline (unconditional fetch, poll-log append,
// policy update, sibling relay) plus session-locality sampling.  Items
// rate counts client requests, like BM_ClientFleetSweep — the delta
// between the two benches is the price of the fill path itself.
void BM_ClientDemandFillSweep(benchmark::State& state) {
  const std::size_t proxies = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kObjects = 64;
  const std::vector<UpdateTrace> traces = make_sweep_traces(kObjects);
  std::int64_t requests = 0;
  for (auto _ : state) {
    Simulator sim;
    OriginServer origin(sim, bench_origin_config());
    FleetConfig config;
    config.proxies = proxies;
    config.cooperative_push = true;
    config.engine.demand_fill = true;
    config.engine.loss_probability = 0.25;
    config.engine.retry_delay = 600.0;
    ClientTrafficConfig traffic;
    traffic.request_rate = 5.0;
    traffic.zipf_exponent = 0.9;
    traffic.session_locality = 0.3;
    traffic.session_objects = 4;
    traffic.profile = DiurnalProfile::newsroom();
    config.client_traffic = traffic;
    ProxyFleet fleet(sim, origin, config);
    for (const UpdateTrace& trace : traces) {
      origin.attach_update_trace(trace.name(), trace);
      fleet.add_temporal_object_everywhere(trace.name(), [] {
        return std::make_unique<LimdPolicy>(
            LimdPolicy::Config::paper_defaults(600.0));
      });
    }
    fleet.start();
    sim.run_until(kSweepHorizon);
    requests += static_cast<std::int64_t>(
        fleet.client_traffic().requests_issued());
    benchmark::DoNotOptimize(fleet.origin_load().demand_fills);
  }
  state.SetItemsProcessed(requests);
}
BENCHMARK(BM_ClientDemandFillSweep)
    ->ArgName("proxies")
    ->Arg(2)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_PaperWorkloadGeneration(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_cnn_fn_trace(++seed));
  }
}
BENCHMARK(BM_PaperWorkloadGeneration);

}  // namespace

BENCHMARK_MAIN();
