#include "client/client_traffic.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace broadway {

PopularityCdf::PopularityCdf(const std::vector<double>& weights) {
  BROADWAY_CHECK_MSG(!weights.empty(), "empty popularity CDF");
  double total = 0.0;
  cumulative_.reserve(weights.size());
  for (double weight : weights) {
    BROADWAY_CHECK_MSG(weight >= 0.0, "negative popularity weight " << weight);
    total += weight;
    cumulative_.push_back(total);
  }
  BROADWAY_CHECK_MSG(total > 0.0, "all client popularity weights 0");
  // Normalise to a CDF whose last entry is *exactly* 1.0: draws are
  // uniform in [0, 1), so upper_bound is then guaranteed an in-range
  // index — index() can fail fast instead of clamping.
  for (double& c : cumulative_) c /= total;
  cumulative_.back() = 1.0;

  // Guide table over K = 2^k >= size() equal buckets of [0, 1):
  // guide_[b] is the first i with cumulative_[i] > b/K.  b/K and
  // floor(u * K) are exact in binary, so a draw u in bucket b has its
  // answer at or after guide_[b] and at or before guide_[b + 1].
  const std::size_t buckets = std::bit_ceil(cumulative_.size());
  guide_.resize(buckets + 1);
  std::size_t i = 0;
  for (std::size_t b = 0; b <= buckets; ++b) {
    const double edge = static_cast<double>(b) / static_cast<double>(buckets);
    while (i < cumulative_.size() && cumulative_[i] <= edge) ++i;
    guide_[b] = static_cast<std::uint32_t>(i);
  }
}

std::size_t PopularityCdf::index(double u) const {
  BROADWAY_CHECK_MSG(u >= 0.0 && u < 1.0, "popularity draw u = " << u);
  const double buckets = static_cast<double>(guide_.size() - 1);
  std::size_t index = guide_[static_cast<std::size_t>(u * buckets)];
  // The backward walk never runs for the table built above; it keeps the
  // answer exactly upper_bound's regardless.
  while (index > 0 && cumulative_[index - 1] > u) --index;
  while (cumulative_[index] <= u) ++index;
  return index;
}

FleetClientTraffic::FleetClientTraffic(Simulator& sim,
                                       const OriginServer& origin,
                                       std::vector<ProxyBinding> proxies,
                                       ClientTrafficConfig config)
    : sim_(sim), origin_(origin), config_(std::move(config)) {
  BROADWAY_CHECK_MSG(config_.request_rate > 0.0,
                     "client request rate " << config_.request_rate);
  BROADWAY_CHECK_MSG(config_.clients_per_proxy >= 1, "empty client population");
  BROADWAY_CHECK_MSG(config_.zipf_exponent >= 0.0,
                     "zipf exponent " << config_.zipf_exponent);
  BROADWAY_CHECK_MSG(
      config_.session_locality >= 0.0 && config_.session_locality <= 1.0,
      "session locality " << config_.session_locality);
  BROADWAY_CHECK_MSG(config_.session_locality == 0.0 ||
                         config_.session_objects >= 1,
                     "session locality needs a non-empty working set");
  BROADWAY_CHECK_MSG(!proxies.empty(), "client traffic needs >= 1 proxy");

  // Thinning envelope: the profile is piecewise linear between its 24
  // hourly control points, so its maximum is attained at a control point;
  // its time-average over one day comes from the cumulative integral.
  // Candidates are drawn at rate * peak/mean and accepted with
  // intensity/peak, which makes the accepted stream average exactly
  // request_rate while following the profile's shape.
  for (int hour = 0; hour < 24; ++hour) {
    peak_intensity_ =
        std::max(peak_intensity_, config_.profile.intensity(hour));
  }
  // cumulative() integrates intensity over *hours* (its argument is
  // seconds, its value intensity-hours), so one day's integral divided by
  // 24 h is the mean intensity — a flat profile yields exactly 1.
  constexpr double kDay = 24.0 * 3600.0;
  const double mean_intensity =
      config_.profile.cumulative(kDay, config_.start_hour) / 24.0;
  BROADWAY_CHECK_MSG(mean_intensity > 0.0, "profile with zero mean intensity");
  peak_rate_ = config_.request_rate * peak_intensity_ / mean_intensity;

  streams_.reserve(proxies.size());
  for (const ProxyBinding& binding : proxies) {
    BROADWAY_CHECK(binding.engine != nullptr);
    BROADWAY_CHECK_MSG(
        streams_.empty() || binding.global_id > streams_.back()->global_id,
        "proxy bindings must be in ascending global id order");
    // Seeded by global id, so a shard slice's streams are bit-identical
    // to the same proxies in a whole fleet.
    auto stream = std::make_unique<Stream>(config_.seed + binding.global_id);
    stream->engine = binding.engine;
    stream->global_id = binding.global_id;
    Stream* raw = stream.get();
    stream->task = std::make_unique<PeriodicTask>(
        sim_, [this, raw] { return fire(*raw); });
    streams_.push_back(std::move(stream));
  }
}

void FleetClientTraffic::build_universe() {
  std::vector<double> weights;
  if (!config_.popularity.empty()) {
    for (const ObjectWeight& entry : config_.popularity) {
      BROADWAY_CHECK_MSG(entry.object != kInvalidObjectId,
                         "invalid object id in client popularity");
      BROADWAY_CHECK_MSG(origin_.object_by_id(entry.object) != nullptr,
                         "client popularity names object "
                             << entry.object << " the origin does not host");
      BROADWAY_CHECK_MSG(entry.weight >= 0.0,
                         "negative popularity for object " << entry.object);
      // Zero-weight entries are dropped here rather than carried as
      // unsamplable universe members: keeping them used to let the
      // sampler's index clamp silently redirect boundary draws onto the
      // last object even when its weight was 0.
      if (entry.weight == 0.0) continue;
      objects_.push_back(entry.object);
      weights.push_back(entry.weight);
    }
  } else {
    // Zipf over every hosted object, ranked by intern order (rank 0 is
    // the most popular).
    const std::size_t universe = origin_.uri_table().size();
    for (ObjectId id = 0; id < universe; ++id) {
      if (origin_.object_by_id(id) == nullptr) continue;  // proxy-only uri
      const double rank = static_cast<double>(objects_.size());
      objects_.push_back(id);
      weights.push_back(std::pow(rank + 1.0, -config_.zipf_exponent));
    }
  }
  BROADWAY_CHECK_MSG(!objects_.empty(),
                     "no objects with sampling mass for clients to request");

  cdf_ = PopularityCdf(weights);
}

void FleetClientTraffic::start() {
  BROADWAY_CHECK_MSG(!started_, "client traffic already started");
  started_ = true;
  build_universe();
  // Arm the streams in ascending global id order, each under its proxy's
  // global id as the schedule tag — the same ownership discipline as
  // ProxyFleet::start, so the sharded driver's canonical (fire, sched,
  // tag, seq) merge orders client events identically to the
  // single-simulator reference.
  const std::uint32_t outer = sim_.schedule_tag();
  for (auto& stream : streams_) {
    sim_.set_schedule_tag(static_cast<std::uint32_t>(stream->global_id));
    stream->task->start(stream->rng.exponential(peak_rate_));
  }
  sim_.set_schedule_tag(outer);
}

void FleetClientTraffic::stop() {
  for (auto& stream : streams_) stream->task->stop();
}

Duration FleetClientTraffic::fire(Stream& stream) {
  for (;;) {
    // Thinning: this candidate becomes a request with probability
    // intensity(now)/peak.  The draw happens unconditionally, so the
    // stream consumes the same RNG sequence whatever the profile shape.
    const double hour =
        std::fmod(sim_.now() / 3600.0 + config_.start_hour, 24.0);
    const double accept = config_.profile.intensity(hour) / peak_intensity_;
    if (stream.rng.uniform01() < accept) issue(stream);
    const Duration gap = stream.rng.exponential(peak_rate_);
    // Run ahead while the next candidate would be the simulator's very
    // next event anyway; on a tie, at the run's bound or with anything
    // else due first, hand it to the queue (the task arms now + gap, the
    // same instant).
    if (!sim_.try_advance(sim_.now() + gap)) return gap;
  }
}

void FleetClientTraffic::issue(Stream& stream) {
  const std::uint64_t client =
      static_cast<std::uint64_t>(stream.global_id) *
          config_.clients_per_proxy +
      static_cast<std::uint64_t>(stream.rng.uniform_int(
          0, static_cast<std::int64_t>(config_.clients_per_proxy) - 1));
  ObjectId object;
  if (config_.session_locality > 0.0) {
    // Three draws per request: client (above), locality coin, object.
    // The coin is drawn before the object draw so the object draw's
    // position in the stream is the same on both branches.
    const double u_loc = stream.rng.uniform01();
    const double u_obj = stream.rng.uniform01();
    if (u_loc < config_.session_locality) {
      const std::size_t slot = std::min(
          static_cast<std::size_t>(
              u_obj * static_cast<double>(config_.session_objects)),
          config_.session_objects - 1);
      object = session_object(client, slot);
    } else {
      object = object_at(u_obj);
    }
  } else {
    object = object_at(stream.rng.uniform01());
  }

  const PollingEngine::ClientRead read =
      stream.engine->serve_client_read(object);
  ClientReadSample sample = classify_client_read(
      sim_.now(), read.hit, read.snapshot, origin_.read(object));
  sample.filled = read.filled;
  sample.fill_latency = read.fill_latency;
  sample.dark = read.dark;
  record_client_read(stream.metrics, sample);
  if (config_.record_requests) {
    ClientRequestRecord record;
    record.time = sim_.now();
    record.proxy = static_cast<std::uint32_t>(stream.global_id);
    record.client = client;
    record.object = object;
    record.read = sample;
    stream.records.push_back(record);
  }
}

ObjectId FleetClientTraffic::object_at(double u) const {
  return objects_[cdf_.index(u)];
}

ObjectId FleetClientTraffic::session_object(std::uint64_t client,
                                            std::size_t slot) const {
  // Counter-keyed popularity draw: slot k of a client's working set is a
  // pure function of (seed, client, k) — no per-client state, and the
  // same set whichever proxy or shard serves the request.
  constexpr std::uint64_t kSessionStream = 0x5e5510c8a11f0b1dULL;
  const double u = hash_u01(
      config_.seed, kSessionStream,
      client * static_cast<std::uint64_t>(config_.session_objects) +
          static_cast<std::uint64_t>(slot));
  return object_at(u);
}

const ClientMetrics& FleetClientTraffic::metrics(std::size_t index) const {
  BROADWAY_CHECK_MSG(index < streams_.size(), "client stream " << index);
  return streams_[index]->metrics;
}

ClientMetrics FleetClientTraffic::merged_metrics() const {
  // Streams are held in ascending global id order, so this fold is the
  // fleet-wide canonical merge order restricted to the local slice.
  ClientMetrics merged;
  for (const auto& stream : streams_) merged.merge(stream->metrics);
  return merged;
}

const std::vector<ClientRequestRecord>& FleetClientTraffic::records(
    std::size_t index) const {
  BROADWAY_CHECK_MSG(index < streams_.size(), "client stream " << index);
  return streams_[index]->records;
}

std::vector<ProxyClientRecords> FleetClientTraffic::tagged_records() const {
  std::vector<ProxyClientRecords> tagged;
  tagged.reserve(streams_.size());
  for (const auto& stream : streams_) {
    tagged.push_back({stream->global_id, &stream->records});
  }
  return tagged;
}

std::uint64_t FleetClientTraffic::requests_issued() const {
  std::uint64_t total = 0;
  for (const auto& stream : streams_) total += stream->metrics.requests;
  return total;
}

TimePoint FleetClientTraffic::next_fire() const {
  TimePoint next = kTimeInfinity;
  for (const auto& stream : streams_) {
    next = std::min(next, stream->task->next_fire_time());
  }
  return next;
}

}  // namespace broadway
