// Breaking-news scenario (paper §1, example 1): an HTML story page with
// embedded photo and video-clip objects.  The story and its media are
// updated together at the origin; the proxy must keep the *group*
// mutually consistent or users see a new headline with yesterday's photo.
//
//   build/examples/news_site [--delta-mutual-min=2] [--hours=24]
//
// Demonstrates:
//   - syntactic group discovery by parsing the page's embedded links
//     (paper §5.2) via GroupRegistry;
//   - Mt-consistency with the triggered-poll coordinator on top of
//     per-object LIMD;
//   - client-observed staleness with and without mutual consistency.
#include <iostream>
#include <memory>

#include "consistency/limd.h"
#include "consistency/triggered.h"
#include "harness/reporting.h"
#include "metrics/fidelity.h"
#include "metrics/mutual_fidelity.h"
#include "origin/origin_server.h"
#include "proxy/client.h"
#include "proxy/group_registry.h"
#include "proxy/polling_engine.h"
#include "sim/simulator.h"
#include "trace/generators.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace broadway;

struct NewsRun {
  std::size_t polls = 0;
  std::size_t triggered = 0;
  double mutual_fidelity = 1.0;
  double story_fidelity = 1.0;
  ClientMetrics clients;
};

// The three related objects: story text updates most often; the photo and
// clip are replaced on a subset of story updates (correlated streams).
struct Workload {
  UpdateTrace story;
  UpdateTrace photo;
  UpdateTrace clip;
};

Workload make_workload(double hours_total, std::uint64_t seed) {
  Rng rng(seed);
  const Duration duration = hours(hours_total);
  // Story updates ~ every 5 minutes in bursts (a developing story).
  BurstConfig bursts;
  bursts.burst_rate = 1.0 / minutes(3.0);
  bursts.calm_rate = 1.0 / minutes(30.0);
  bursts.mean_burst_length = minutes(45.0);
  bursts.mean_calm_length = hours(2.0);
  std::vector<TimePoint> story_times =
      generate_bursty(rng, bursts, duration);
  // Media change on ~1/3 of story updates, a few seconds later (editors
  // attach new footage to the rewritten story).
  std::vector<TimePoint> photo_times, clip_times;
  for (TimePoint t : story_times) {
    if (rng.bernoulli(1.0 / 3.0)) {
      photo_times.push_back(std::min(duration * (1 - 1e-9), t + 20.0));
    }
    if (rng.bernoulli(1.0 / 4.0)) {
      clip_times.push_back(std::min(duration * (1 - 1e-9), t + 45.0));
    }
  }
  return Workload{
      UpdateTrace("/news/story.html", sort_unique(story_times), duration),
      UpdateTrace("/news/scene.jpg", sort_unique(photo_times), duration),
      UpdateTrace("/news/report.rm", sort_unique(clip_times), duration)};
}

NewsRun simulate(const Workload& workload, bool mutual,
                 Duration delta_individual, Duration delta_mutual) {
  Simulator sim;
  OriginServer origin(sim);
  PollingEngine proxy(sim, origin);

  // Origin: the story page embeds the photo and the clip.
  VersionedObject& story =
      origin.attach_update_trace(workload.story.name(), workload.story);
  story.set_embedded_links(
      {workload.photo.name(), workload.clip.name()});
  origin.attach_update_trace(workload.photo.name(), workload.photo);
  origin.attach_update_trace(workload.clip.name(), workload.clip);

  // Discover the group *syntactically* from the page body (paper §5.2).
  // Binding the registry to the origin's intern table records the group's
  // ObjectIds alongside the uris (the id-keyed dispatch representation).
  GroupRegistry registry(origin.uri_table());
  const ObjectGroup* group = registry.add_syntactic_group(
      workload.story.name(), story.at(0.0, false).render_body(),
      delta_mutual);

  // Track every group member with LIMD.
  for (const std::string& uri : group->members) {
    proxy.add_temporal_object(
        uri, std::make_unique<LimdPolicy>(LimdPolicy::Config::paper_defaults(
                 delta_individual, minutes(30.0))));
  }
  if (mutual) {
    proxy.add_coordinator(std::make_unique<TriggeredPollCoordinator>(
        group->members, group->delta_mutual));
  }

  // Readers hammer the story page; media fetched alongside.  The uris
  // resolve to interned ids here — a typo'd uri throws instead of
  // silently getting zero traffic.
  ClientWorkload clients(
      sim, proxy.cache(), origin,
      ClientWorkload::Config::from_uris(origin, /*request_rate=*/0.2,
                                        {{workload.story.name(), 4.0},
                                         {workload.photo.name(), 1.0},
                                         {workload.clip.name(), 1.0}}));

  proxy.start();
  clients.start();
  sim.run_until(workload.story.duration());

  NewsRun out;
  out.polls = proxy.polls_performed();
  out.triggered = proxy.triggered_polls();
  const auto story_polls =
      successful_polls(proxy.poll_log(), workload.story.name());
  const auto photo_polls =
      successful_polls(proxy.poll_log(), workload.photo.name());
  out.mutual_fidelity =
      evaluate_mutual_temporal(workload.story, story_polls, workload.photo,
                               photo_polls, delta_mutual,
                               workload.story.duration())
          .fidelity_time();
  out.story_fidelity =
      evaluate_temporal_fidelity(workload.story, story_polls,
                                 delta_individual,
                                 workload.story.duration())
          .fidelity_time();
  out.clients = clients.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  double delta_mutual_min = 2.0;
  double hours_total = 24.0;
  long long seed = 11;
  Flags flags;
  flags.add_double("delta-mutual-min", &delta_mutual_min,
                   "group tolerance delta in minutes");
  flags.add_double("hours", &hours_total, "simulated duration in hours");
  flags.add_int("seed", &seed, "workload seed");
  if (!flags.parse(argc, argv)) return 1;

  const Workload workload =
      make_workload(hours_total, static_cast<std::uint64_t>(seed));
  print_banner(std::cout,
               "news_site: breaking story + embedded media (syntactic "
               "group, triggered polls)");
  std::cout << "story updates: " << workload.story.count()
            << ", photo updates: " << workload.photo.count()
            << ", clip updates: " << workload.clip.count() << "\n";

  const NewsRun without =
      simulate(workload, /*mutual=*/false, minutes(5.0),
               minutes(delta_mutual_min));
  const NewsRun with = simulate(workload, /*mutual=*/true, minutes(5.0),
                                minutes(delta_mutual_min));

  TextTable table;
  table.set_header({"metric", "LIMD only", "LIMD + triggered polls"});
  table.add_row({"polls", std::to_string(without.polls),
                 std::to_string(with.polls)});
  table.add_row({"triggered polls", std::to_string(without.triggered),
                 std::to_string(with.triggered)});
  table.add_row({"story/photo mutual fidelity",
                 fmt(without.mutual_fidelity, 4),
                 fmt(with.mutual_fidelity, 4)});
  table.add_row({"story individual fidelity",
                 fmt(without.story_fidelity, 4),
                 fmt(with.story_fidelity, 4)});
  table.add_row({"client requests", std::to_string(without.clients.requests),
                 std::to_string(with.clients.requests)});
  table.add_row({"stale responses", std::to_string(without.clients.stale),
                 std::to_string(with.clients.stale)});
  table.print(std::cout);

  std::cout << "\nThe triggered-poll coordinator re-fetches the photo and "
               "clip the moment a story\nupdate is observed, closing the "
               "window where a fresh headline is served with a\nstale "
               "image — at a modest extra poll cost.\n";
  return 0;
}
