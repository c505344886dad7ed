#include "origin/origin_server.h"

#include "util/check.h"

namespace broadway {

OriginServer::OriginServer(Simulator& sim) : OriginServer(sim, Config()) {}

OriginServer::OriginServer(Simulator& sim, Config config)
    : sim_(sim), config_(config) {}

VersionedObject& OriginServer::add_object(const std::string& uri) {
  VersionedObject& object = store_.create(uri, sim_.now());
  const ObjectId id = uris_.intern(uri);
  if (by_id_.size() <= id) by_id_.resize(id + 1, nullptr);
  by_id_[id] = &object;
  return object;
}

VersionedObject& OriginServer::add_value_object(const std::string& uri,
                                                double initial_value) {
  VersionedObject& object = store_.create(uri, sim_.now(), initial_value);
  const ObjectId id = uris_.intern(uri);
  if (by_id_.size() <= id) by_id_.resize(id + 1, nullptr);
  by_id_[id] = &object;
  return object;
}

VersionedObject& OriginServer::attach_update_trace(const std::string& uri,
                                                   const UpdateTrace& trace) {
  VersionedObject* existing = store_.find(uri);
  VersionedObject& object = existing ? *existing : add_object(uri);
  queue_trace(object, trace.updates(), {});
  return object;
}

VersionedObject& OriginServer::attach_value_trace(const std::string& uri,
                                                  const ValueTrace& trace) {
  BROADWAY_CHECK_MSG(!store_.contains(uri), "duplicate value object " << uri);
  VersionedObject& object = add_value_object(uri, trace.initial_value());
  std::vector<TimePoint> times;
  std::vector<double> values;
  times.reserve(trace.steps().size());
  values.reserve(trace.steps().size());
  for (const auto& step : trace.steps()) {
    times.push_back(step.time);
    values.push_back(step.value);
  }
  queue_trace(object, std::move(times), std::move(values));
  return object;
}

void OriginServer::queue_trace(VersionedObject& object,
                               std::vector<TimePoint> times,
                               std::vector<double> values) {
  if (times.empty()) return;
  BROADWAY_CHECK_MSG(times.front() >= sim_.now(),
                     "trace update in the past at " << times.front());
  // Bring the object to now first, so the queue holds only the future.
  catch_up(object);
  object.queue_updates(std::move(times), std::move(values));
}

void OriginServer::catch_up_all() const {
  for (VersionedObject* object : by_id_) {
    if (object != nullptr) catch_up(*object);
  }
}

VersionedObject* OriginServer::find_object(const Request& request) {
  if (request.object != kInvalidObjectId) {
    return request.object < by_id_.size() ? by_id_[request.object] : nullptr;
  }
  return store_.find(request.uri);
}

Response OriginServer::handle(const Request& request) {
  Response response;
  handle(request, response);
  return response;
}

void OriginServer::handle(const Request& request, Response& out) {
  out.reset();
  ++requests_served_;
  VersionedObject* object = find_object(request);
  if (object != nullptr) catch_up(*object);
  // The typed path covers the engine's GET polls; anything else (HEAD,
  // codec-parsed messages) renders headers as before.
  const bool typed = request.meta.active && request.method == Method::kGet;
  if (object == nullptr) {
    out.status = StatusCode::kNotFound;
    out.meta.active = typed;
    return;
  }
  const std::optional<TimePoint> since = wire_if_modified_since(request);
  if (since && !object->modified_since(*since)) {
    out.status = StatusCode::kNotModified;
    if (typed) {
      out.meta.active = true;
      out.meta.last_modified = object->wire_last_modified();
    } else {
      set_last_modified(out.headers, object->last_modified());
    }
    ++responses_304_;
    return;
  }
  ++responses_200_;
  respond_full(*object, since, typed, out);
  if (request.method == Method::kHead) {
    // HEAD: identical headers, no body (RFC 2616 §9.4).  Content-Length
    // still describes what GET would return.
    out.headers.set("Content-Length", std::to_string(out.body.size()));
    out.body.clear();
  }
}

void OriginServer::respond_full(const VersionedObject& object,
                                std::optional<TimePoint> since, bool typed,
                                Response& out) {
  out.status = StatusCode::kOk;
  if (typed) {
    out.meta.active = true;
    out.meta.last_modified = object.wire_last_modified();
    if (object.value()) out.meta.value = *object.value();
    if (config_.history_enabled) {
      // History "of arbitrary length" (paper §5.1) as a span into the
      // object's quantised history — no rendering, no copy.
      const auto span = object.wire_history_since(
          since.value_or(object.creation_time()), config_.history_limit);
      out.meta.set_history_view(span.data, span.size);
    }
  } else {
    set_last_modified(out.headers, object.last_modified());
    if (object.value()) {
      set_object_value(out.headers, *object.value());
    }
    if (config_.history_enabled) {
      const TimePoint from = since.value_or(object.creation_time());
      set_modification_history(
          out.headers, object.history_since(from, config_.history_limit));
    }
    out.headers.set("Content-Type",
                    object.value() ? "text/plain" : "text/html");
  }
  if (config_.render_bodies) {
    out.body = object.render_body();
  }
}

}  // namespace broadway
