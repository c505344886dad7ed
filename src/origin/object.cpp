#include "origin/object.h"

#include <algorithm>
#include <sstream>

#include "http/extensions.h"
#include "util/check.h"

namespace broadway {

VersionedObject::VersionedObject(std::string uri, TimePoint creation_time,
                                 std::optional<double> value)
    : uri_(std::move(uri)),
      creation_time_(creation_time),
      wire_last_modified_(quantize_wire_seconds(creation_time)),
      value_(value) {
  BROADWAY_CHECK_MSG(!uri_.empty(), "object needs a uri");
  BROADWAY_CHECK_MSG(creation_time_ >= 0.0, "creation at " << creation_time_);
}

TimePoint VersionedObject::last_modified() const {
  return modifications_.empty() ? creation_time_ : modifications_.back();
}

void VersionedObject::apply_update(TimePoint t,
                                   std::optional<double> new_value) {
  BROADWAY_CHECK_MSG(t >= last_modified(),
                     uri_ << ": update at " << t << " before last_modified "
                          << last_modified());
  BROADWAY_CHECK_MSG(value_.has_value() == new_value.has_value(),
                     uri_ << ": value/temporal domain mismatch");
  modifications_.push_back(t);
  // Quantise once per *update* so per-poll responses can hand out history
  // spans and Last-Modified without any formatting work.
  wire_last_modified_ = quantize_wire_seconds(t);
  wire_modifications_.push_back(wire_last_modified_);
  if (new_value) value_ = new_value;
}

void VersionedObject::queue_updates(std::vector<TimePoint> times,
                                    std::vector<double> values) {
  if (times.empty()) return;
  BROADWAY_CHECK_MSG(queued() == 0,
                     uri_ << ": already replays a trace with "
                          << queued() << " updates pending");
  BROADWAY_CHECK_MSG(values.empty() != value_.has_value(),
                     uri_ << ": value/temporal domain mismatch");
  BROADWAY_CHECK_MSG(values.empty() || values.size() == times.size(),
                     uri_ << ": " << values.size() << " values for "
                          << times.size() << " update instants");
  TimePoint previous = last_modified();
  for (TimePoint t : times) {
    BROADWAY_CHECK_MSG(t >= previous, uri_ << ": trace update at " << t
                                           << " out of order or before "
                                           << previous);
    previous = t;
  }
  queued_times_ = std::move(times);
  queued_values_ = std::move(values);
}

void VersionedObject::apply_queued(TimePoint now, bool inclusive) {
  const std::size_t end = queued_times_.size();
  std::size_t i = next_queued_;
  for (; i < end; ++i) {
    const TimePoint t = queued_times_[i];
    if (t > now || (t == now && !inclusive)) break;
    if (queued_values_.empty()) {
      apply_update(t);
    } else {
      apply_update(t, queued_values_[i]);
    }
  }
  next_queued_ = i;
  if (next_queued_ == end) {
    // The trace is spent: release it instead of holding O(trace length)
    // per object for the rest of the run.
    queued_times_ = {};
    queued_values_ = {};
    next_queued_ = 0;
  }
}

std::vector<TimePoint> VersionedObject::history_since(
    TimePoint t, std::size_t limit) const {
  auto first = std::upper_bound(modifications_.begin(), modifications_.end(),
                                t);
  std::vector<TimePoint> out(first, modifications_.end());
  if (limit > 0 && out.size() > limit) {
    out.erase(out.begin(), out.end() - static_cast<std::ptrdiff_t>(limit));
  }
  return out;
}

VersionedObject::WireHistorySpan VersionedObject::wire_history_since(
    TimePoint t, std::size_t limit) const {
  // Select on the *exact* instants (same predicate as history_since), then
  // serve the index-aligned quantised values.
  const auto first =
      std::upper_bound(modifications_.begin(), modifications_.end(), t);
  std::size_t begin =
      static_cast<std::size_t>(first - modifications_.begin());
  const std::size_t end = modifications_.size();
  if (limit > 0 && end - begin > limit) begin = end - limit;
  return WireHistorySpan{wire_modifications_.data() + begin, end - begin};
}

void VersionedObject::set_embedded_links(std::vector<std::string> links) {
  embedded_links_ = std::move(links);
}

std::string VersionedObject::render_body() const {
  std::ostringstream os;
  os << "<html><head><title>" << uri_ << "</title></head>\n<body>\n"
     << "<!-- version " << version() << " -->\n";
  if (value_) {
    os << "<span class=\"quote\">" << *value_ << "</span>\n";
  }
  for (const auto& link : embedded_links_) {
    os << "<img src=\"" << link << "\"/>\n";
  }
  os << "</body></html>\n";
  return os.str();
}

}  // namespace broadway
