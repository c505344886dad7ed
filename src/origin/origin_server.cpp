#include "origin/origin_server.h"

#include "util/check.h"

namespace broadway {

OriginServer::OriginServer(Simulator& sim) : OriginServer(sim, Config()) {}

OriginServer::OriginServer(Simulator& sim, Config config)
    : sim_(sim), config_(config), store_(std::make_shared<ObjectStore>()) {}

OriginServer::OriginServer(Simulator& sim, OriginServer& shared)
    : sim_(sim), config_(shared.config_), store_(shared.store_) {}

VersionedObject& OriginServer::add_object(const std::string& uri) {
  return store_->create(uri, sim_.now());
}

VersionedObject& OriginServer::add_value_object(const std::string& uri,
                                                double initial_value) {
  return store_->create(uri, sim_.now(), initial_value);
}

VersionedObject& OriginServer::attach_update_trace(const std::string& uri,
                                                   const UpdateTrace& trace) {
  VersionedObject* existing = store_->find(uri);
  VersionedObject& object = existing ? *existing : add_object(uri);
  append_trace(object, trace.updates(), {});
  return object;
}

VersionedObject& OriginServer::attach_value_trace(const std::string& uri,
                                                  const ValueTrace& trace) {
  VersionedObject& object = add_value_object(uri, trace.initial_value());
  std::vector<TimePoint> times;
  std::vector<double> values;
  times.reserve(trace.steps().size());
  values.reserve(trace.steps().size());
  for (const auto& step : trace.steps()) {
    times.push_back(step.time);
    values.push_back(step.value);
  }
  append_trace(object, std::move(times), std::move(values));
  return object;
}

void OriginServer::append_trace(VersionedObject& object,
                                std::vector<TimePoint> times,
                                std::vector<double> values) {
  BROADWAY_CHECK_MSG(!uri_table().frozen(),
                     "origin content is frozen; cannot attach a trace to "
                         << object.uri());
  if (times.empty()) return;
  BROADWAY_CHECK_MSG(times.front() >= sim_.now(),
                     "trace update in the past at " << times.front());
  object.append_updates(std::move(times), std::move(values));
}

ObjectVersion OriginServer::current(ObjectId id,
                                    const VersionedObject& object) const {
  if (seen_.size() <= id) seen_.resize(uri_table().size());
  const ObjectVersion version =
      object.at(sim_.now(), sim_.reached(sim_.now()), seen_[id]);
  seen_[id] = static_cast<std::uint32_t>(version.version());
  return version;
}

Response OriginServer::handle(const Request& request) {
  Response response;
  handle(request, response);
  return response;
}

void OriginServer::handle(const Request& request, Response& out) {
  out.reset();
  ++requests_served_;
  const ObjectId id = request.object != kInvalidObjectId
                          ? request.object
                          : uri_table().find(request.uri);
  const VersionedObject* object = store_->by_id(id);
  // The typed path covers the engine's GET polls; anything else (HEAD,
  // codec-parsed messages) renders headers as before.
  const bool typed = request.meta.active && request.method == Method::kGet;
  if (object == nullptr) {
    out.status = StatusCode::kNotFound;
    out.meta.active = typed;
    return;
  }
  const ObjectVersion version = current(id, *object);
  const std::optional<TimePoint> since = wire_if_modified_since(request);
  if (since && !version.modified_since(*since)) {
    out.status = StatusCode::kNotModified;
    if (typed) {
      out.meta.active = true;
      out.meta.last_modified = quantize_wire_seconds(version.last_modified());
    } else {
      set_last_modified(out.headers, version.last_modified());
    }
    ++responses_304_;
    return;
  }
  ++responses_200_;
  respond_full(version, since, typed, out);
  if (request.method == Method::kHead) {
    // HEAD: identical headers, no body (RFC 2616 §9.4).  Content-Length
    // still describes what GET would return.
    out.headers.set("Content-Length", std::to_string(out.body.size()));
    out.body.clear();
  }
}

void OriginServer::respond_full(const ObjectVersion& object,
                                std::optional<TimePoint> since, bool typed,
                                Response& out) {
  out.status = StatusCode::kOk;
  const std::optional<double> value = object.value();
  // History "of arbitrary length" (paper §5.1), selected on the exact
  // instants.
  std::span<const TimePoint> history;
  if (config_.history_enabled) {
    history = object.history_since(
        since.value_or(object.object().creation_time()),
        config_.history_limit);
  }
  if (typed) {
    out.meta.active = true;
    out.meta.last_modified = quantize_wire_seconds(object.last_modified());
    if (value) out.meta.value = *value;
    if (config_.history_enabled) {
      // Quantised into the response's own buffer, whose capacity a reused
      // scratch Response keeps: no allocation once warm, no header text.
      out.meta.history_present = true;
      for (const TimePoint t : history) {
        out.meta.history.push_back(quantize_wire_seconds(t));
      }
    }
  } else {
    set_last_modified(out.headers, object.last_modified());
    if (value) set_object_value(out.headers, *value);
    if (config_.history_enabled) {
      set_modification_history(
          out.headers, std::vector<TimePoint>(history.begin(), history.end()));
    }
    out.headers.set("Content-Type", value ? "text/plain" : "text/html");
  }
  if (config_.render_bodies) {
    out.body = object.render_body();
  }
}

}  // namespace broadway
