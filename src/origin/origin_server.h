// The origin web server model.
//
// Replays trace-driven updates on its objects along the simulator's
// timeline and answers HTTP requests with the conditional-GET semantics the
// paper's mechanisms rely on (paper §5): an `if-modified-since` request is
// answered 304 when the object is unchanged, otherwise 200 with the new
// body, Last-Modified, the value extension for value-domain objects, and —
// when enabled — the X-Modification-History extension of §5.1.
//
// Trace-backed objects.  The origin is observed only through requests
// (§5), so its state matters only at the instants something reads it.
// attach_*_trace queues a trace's instants (and values) on the object
// and schedules nothing; every read — handle(), object_by_id(), store() —
// first applies the object's queued updates that are due.  An update at
// t < now() is always due.  One at t == now() is due once the simulator
// has entered now() (Simulator::reached) — the point at which an update
// event scheduled for t at attach time would have fired, so the lazy
// replay is indistinguishable from an eager one.  In particular a synchronous fetch at t = 0 before any event
// fires (PollingEngine::start) does not see a t = 0 update, while a
// handle() after run_until(t) or from an event at t does.
//
// Catch-up mutates objects from const accessors, so an origin must be
// read on the thread that drives its simulator (a ShardedFleet replica
// on its shard's thread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "http/extensions.h"
#include "http/message.h"
#include "origin/store.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/uri_table.h"

namespace broadway {

/// Origin server bound to a simulator.  One instance can host any number
/// of objects, each driven by its own trace.
///
/// The server owns the UriTable every co-located consumer (polling
/// engines, their caches and poll logs, the fleet relay path) shares:
/// interning happens once at registration, and the poll hot path carries
/// dense ObjectId handles end to end.
class OriginServer {
 public:
  /// `history_limit` caps the X-Modification-History entries per response
  /// (0 = unlimited).  `history_enabled` turns the extension off entirely —
  /// the stock-HTTP configuration the paper contrasts against (§3.1).
  /// `render_bodies` = false elides HTML body rendering on 200s — typed
  /// responses carry everything the consistency machinery reads in
  /// ResponseMeta, so simulation sweeps that never inspect payloads (the
  /// benches; default on there) skip the per-poll body allocation.
  struct Config {
    bool history_enabled = true;
    std::size_t history_limit = 16;
    bool render_bodies = true;
  };

  explicit OriginServer(Simulator& sim);
  OriginServer(Simulator& sim, Config config);

  OriginServer(const OriginServer&) = delete;
  OriginServer& operator=(const OriginServer&) = delete;

  /// Create a temporal-domain object (no numeric value) at sim.now().
  VersionedObject& add_object(const std::string& uri);

  /// Create a value-domain object with an initial value at sim.now().
  VersionedObject& add_value_object(const std::string& uri,
                                    double initial_value);

  /// Create the object (if needed) and queue the trace's update instants
  /// on it (see the file comment).  No update may lie in the past.
  VersionedObject& attach_update_trace(const std::string& uri,
                                       const UpdateTrace& trace);

  /// Create a value object and queue its ticks.
  VersionedObject& attach_value_trace(const std::string& uri,
                                      const ValueTrace& trace);

  /// Handle a request at the current simulation time.
  Response handle(const Request& request);

  /// Allocation-light variant: the response is written into `out` (reset
  /// first), so a polling engine can reuse one scratch Response across
  /// polls.  Requests with an active typed sideband are answered on the
  /// typed path: validators, value and history land in out.meta (history
  /// as a span into this server's per-object storage — valid until the
  /// object's next update) and no header strings are rendered.
  void handle(const Request& request, Response& out);

  /// The shared intern table.  Engines bound to this origin key their
  /// caches and poll logs through it.
  UriTable& uri_table() { return uris_; }
  const UriTable& uri_table() const { return uris_; }

  /// Interned id for a hosted object's uri; kInvalidObjectId if unknown.
  ObjectId object_id(const std::string& uri) const {
    return uris_.find(uri);
  }

  /// Direct (non-HTTP) read access for evaluators and tests.  Catches up
  /// every hosted object first (O(objects)).
  const ObjectStore& store() const {
    catch_up_all();
    return store_;
  }
  ObjectStore& store() {
    catch_up_all();
    return store_;
  }

  /// Hosted object for an interned id, caught up to now; nullptr when the
  /// table interned a uri this origin does not host (e.g. a proxy-only
  /// registration).  O(1) — the client layer's ground-truth read.
  const VersionedObject* object_by_id(ObjectId id) const {
    VersionedObject* object = id < by_id_.size() ? by_id_[id] : nullptr;
    if (object != nullptr) catch_up(*object);
    return object;
  }

  const Config& config() const { return config_; }
  void set_config(Config config) { config_ = config; }

  /// Request accounting (cross-checks the proxy's poll counters).
  std::size_t requests_served() const { return requests_served_; }
  std::size_t responses_200() const { return responses_200_; }
  std::size_t responses_304() const { return responses_304_; }

 private:
  Simulator& sim_;
  Config config_;
  ObjectStore store_;
  UriTable uris_;
  /// Dense ObjectId -> object lookup (nullptr where the table interned a
  /// uri this origin does not host, e.g. a proxy-only registration).
  std::vector<VersionedObject*> by_id_;
  std::size_t requests_served_ = 0;
  std::size_t responses_200_ = 0;
  std::size_t responses_304_ = 0;

  /// Lookup for the request: by interned id when present, else by uri.
  VersionedObject* find_object(const Request& request);

  /// Apply `object`'s queued trace updates that are due now.
  void catch_up(VersionedObject& object) const {
    object.catch_up(sim_.now(), sim_.reached(sim_.now()));
  }
  void catch_up_all() const;

  /// Validate `times` against the clock and queue them on `object`.
  void queue_trace(VersionedObject& object, std::vector<TimePoint> times,
                   std::vector<double> values);

  void respond_full(const VersionedObject& object,
                    std::optional<TimePoint> since, bool typed,
                    Response& out);
};

}  // namespace broadway
