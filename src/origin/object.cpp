#include "origin/object.h"

#include <sstream>

#include "util/check.h"
#include "util/gallop.h"

namespace broadway {

TimePoint ObjectVersion::last_modified() const {
  return version_ == 0 ? object_->creation_time_
                       : object_->times_[version_ - 1];
}

std::optional<double> ObjectVersion::value() const {
  if (version_ == 0 || object_->values_.empty()) {
    return object_->initial_value_;
  }
  return object_->values_[version_ - 1];
}

std::span<const TimePoint> ObjectVersion::history_since(
    TimePoint t, std::size_t limit) const {
  // The capped answer is the uncapped one clamped to the last `limit`
  // instants, so only those are searched — backward from the newest,
  // where a poll's `since` usually sits.
  std::span<const TimePoint> applied(object_->times_.data(), version_);
  if (limit > 0 && applied.size() > limit) {
    applied = applied.last(limit);
  }
  return applied.subspan(upper_bound_from(applied, applied.size(), t));
}

std::string ObjectVersion::render_body() const {
  std::ostringstream os;
  os << "<html><head><title>" << object_->uri_ << "</title></head>\n<body>\n"
     << "<!-- version " << version_ << " -->\n";
  if (const auto v = value()) {
    os << "<span class=\"quote\">" << *v << "</span>\n";
  }
  for (const auto& link : object_->embedded_links_) {
    os << "<img src=\"" << link << "\"/>\n";
  }
  os << "</body></html>\n";
  return os.str();
}

VersionedObject::VersionedObject(std::string uri, TimePoint creation_time,
                                 std::optional<double> value)
    : uri_(std::move(uri)),
      creation_time_(creation_time),
      initial_value_(value) {
  BROADWAY_CHECK_MSG(!uri_.empty(), "object needs a uri");
  BROADWAY_CHECK_MSG(creation_time_ >= 0.0, "creation at " << creation_time_);
}

void VersionedObject::append_updates(std::vector<TimePoint> times,
                                     std::vector<double> values) {
  if (times.empty()) return;
  BROADWAY_CHECK_MSG(values.empty() != initial_value_.has_value(),
                     uri_ << ": value/temporal domain mismatch");
  BROADWAY_CHECK_MSG(values.empty() || values.size() == times.size(),
                     uri_ << ": " << values.size() << " values for "
                          << times.size() << " update instants");
  TimePoint previous = times_.empty() ? creation_time_ : times_.back();
  for (TimePoint t : times) {
    BROADWAY_CHECK_MSG(t >= previous, uri_ << ": update at " << t
                                           << " out of order or before "
                                           << previous);
    previous = t;
  }
  if (times_.empty()) {
    times_ = std::move(times);
    values_ = std::move(values);
    return;
  }
  times_.insert(times_.end(), times.begin(), times.end());
  values_.insert(values_.end(), values.begin(), values.end());
}

ObjectVersion VersionedObject::at(TimePoint now, bool inclusive,
                                  std::size_t from) const {
  const std::size_t due = inclusive ? upper_bound_from(times_, from, now)
                                    : lower_bound_from(times_, from, now);
  return ObjectVersion(*this, due);
}

void VersionedObject::set_embedded_links(std::vector<std::string> links) {
  embedded_links_ = std::move(links);
}

}  // namespace broadway
