#include "origin/collector.h"

#include <algorithm>

#include "http/extensions.h"
#include "util/check.h"

namespace broadway {

TraceCollector::TraceCollector(Simulator& sim, OriginServer& origin,
                               std::string uri, Duration period)
    : sim_(sim),
      origin_(origin),
      uri_(std::move(uri)),
      period_(period) {
  BROADWAY_CHECK_MSG(period_ > 0.0, "period " << period_);
  timer_.bind(sim, *this);
}

void TraceCollector::start() {
  last_poll_ = sim_.now();
  timer_.start(period_);
}

void TraceCollector::stop() { timer_.stop(); }

void TraceCollector::on_timer(Timer&) {
  poll();
  timer_.reschedule(period_);
}

void TraceCollector::poll() {
  ++polls_;
  const Response response =
      origin_.handle(Request::conditional_get(uri_, last_poll_));
  BROADWAY_CHECK_MSG(response.status != StatusCode::kNotFound,
                     uri_ << " not present at origin");
  last_poll_ = sim_.now();
  if (!response.ok()) return;  // 304: unchanged
  const auto last_modified = get_last_modified(response.headers);
  if (!last_modified) return;
  if (observations_.empty() || *last_modified > observations_.back()) {
    observations_.push_back(*last_modified);
  }
}

UpdateTrace TraceCollector::reconstructed_trace(Duration horizon,
                                                double start_hour) const {
  std::vector<TimePoint> updates;
  for (TimePoint t : observations_) {
    if (t > 0.0 && t < horizon) updates.push_back(t);
  }
  return UpdateTrace(uri_ + " (collected)", std::move(updates), horizon,
                     start_hour);
}

ReconstructionQuality compare_reconstruction(const UpdateTrace& truth,
                                             const UpdateTrace& observed) {
  ReconstructionQuality out;
  out.true_updates = truth.count();
  out.observed_updates = observed.count();
  if (truth.count() == 0) return out;
  std::size_t found = 0;
  for (TimePoint t : observed.updates()) {
    // An observed instant is genuine iff it matches a true update instant
    // to within the wire precision of the Last-Modified extension (ms).
    const auto& updates = truth.updates();
    auto it = std::lower_bound(updates.begin(), updates.end(), t - 2e-3);
    if (it != updates.end() && std::abs(*it - t) <= 2e-3) ++found;
  }
  out.recall = static_cast<double>(found) /
               static_cast<double>(truth.count());
  return out;
}

}  // namespace broadway
