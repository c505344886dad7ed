// The origin web server model.
//
// Answers HTTP requests with the conditional-GET semantics the paper's
// mechanisms rely on (paper §5): an `if-modified-since` request is
// answered 304 when the object is unchanged, otherwise 200 with the new
// body, Last-Modified, the value extension for value-domain objects, and —
// when enabled — the X-Modification-History extension of §5.1.
//
// Trace-backed objects.  The origin is observed only through requests
// (§5), so its state at time t is a pure function of the update traces.
// attach_*_trace stores a trace's instants (and values) on the object and
// schedules nothing; a read locates the version due at the reader's clock
// (VersionedObject::at, galloping from the version this reader last saw).
// The reader also keeps that version's successor instant, so a read with
// nothing new due touches neither the object nor its trace.  An update at
// t < now() is always due.  One at t == now() is due once the simulator
// has entered now() (Simulator::reached) — the point at which an update
// event scheduled for t at attach time would have fired, so the lazy read
// is indistinguishable from an eager replay.  In particular a synchronous
// fetch at t = 0 before any event fires (PollingEngine::start) does not
// see a t = 0 update, while a handle() after run_until(t) or from an
// event at t does.
//
// Shared content.  The content (an ObjectStore: objects plus UriTable)
// is shared, not copied, and reads of it are const: after freeze
// (UriTable::freeze — no object may be created or attached from then on)
// any number of OriginServers, each on its own simulator and thread, may
// serve the same content without synchronisation.  A ShardedFleet builds
// the content once and gives every shard a reader (the sharing
// constructor).  A reader keeps only its own state — clock, request
// counters, per-object version hints — so each one belongs to one thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "http/extensions.h"
#include "http/message.h"
#include "origin/store.h"
#include "sim/simulator.h"
#include "trace/update_trace.h"
#include "trace/value_trace.h"
#include "util/id_slots.h"
#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// Origin server bound to a simulator.  One instance can host any number
/// of objects, each driven by its own trace.
///
/// The server's content owns the UriTable every co-located consumer
/// (polling engines, their caches and poll logs, the fleet relay path)
/// shares: interning happens once at registration, and the poll hot path
/// carries dense ObjectId handles end to end.
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

  /// A second reader of `shared`'s content (objects and UriTable, shared,
  /// not copied) and config, answering at `sim`'s clock with its own
  /// request counters.
  OriginServer(Simulator& sim, OriginServer& shared);

  OriginServer(const OriginServer&) = delete;
  OriginServer& operator=(const OriginServer&) = delete;

  /// Create a temporal-domain object (no numeric value) at sim.now().
  VersionedObject& add_object(const std::string& uri);

  /// Create a value-domain object with an initial value at sim.now().
  VersionedObject& add_value_object(const std::string& uri,
                                    double initial_value);

  /// Create the object (if needed) and append the trace's update instants
  /// to it (see the file comment).  No update may lie in the past.
  VersionedObject& attach_update_trace(const std::string& uri,
                                       const UpdateTrace& trace);

  /// Create a value object and store its ticks.
  VersionedObject& attach_value_trace(const std::string& uri,
                                      const ValueTrace& trace);

  /// Handle a request at the current simulation time.
  Response handle(const Request& request);

  /// Allocation-light variant: the response is written into `out` (reset
  /// first), so a polling engine can reuse one scratch Response across
  /// polls.  Requests with an active typed sideband are answered on the
  /// typed path: validators, value and history land in out.meta (history
  /// ms-quantised into its owned buffer) and no header strings are
  /// rendered.
  void handle(const Request& request, Response& out);

  /// The shared intern table.  Engines bound to this origin key their
  /// caches and poll logs through it.
  UriTable& uri_table() { return store_->uri_table(); }
  const UriTable& uri_table() const { return store_->uri_table(); }

  /// Interned id for a hosted object's uri; kInvalidObjectId if unknown.
  ObjectId object_id(const std::string& uri) const {
    return uri_table().find(uri);
  }

  /// The hosted objects (immutable content; see read() for their state).
  const ObjectStore& store() const { return *store_; }

  /// Hosted object for an interned id; nullptr when the table interned a
  /// uri this origin does not host (e.g. a proxy-only registration).
  const VersionedObject* object_by_id(ObjectId id) const {
    return store_->by_id(id);
  }

  /// Hosted object `id` at this server's clock — the version handle()
  /// would serve now; nullopt when not hosted.  The client layer's
  /// ground-truth read.
  std::optional<ObjectVersion> read(ObjectId id) const {
    const VersionedObject* object = object_by_id(id);
    if (object == nullptr) return std::nullopt;
    return ObjectVersion(*object, current(id, *object).version);
  }

  const Config& config() const { return config_; }

  /// Request accounting (cross-checks the proxy's poll counters).
  std::size_t requests_served() const { return requests_served_; }
  std::size_t responses_200() const { return responses_200_; }
  std::size_t responses_304() const { return responses_304_; }

 private:
  Simulator& sim_;
  Config config_;
  std::shared_ptr<ObjectStore> store_;
  std::size_t requests_served_ = 0;
  std::size_t responses_200_ = 0;
  std::size_t responses_304_ = 0;
  /// What this reader last saw of one object: the version, the instant
  /// of its successor update (when the version next changes) and its
  /// Last-Modified.  The clock never runs backwards, so the entry stays
  /// current until the clock reaches `next_due`.  24 B per object read.
  struct Seen {
    TimePoint next_due = -kTimeInfinity;  ///< never read yet: due at once
    TimePoint last_modified = 0.0;
    std::uint32_t version = 0;
  };
  /// Sparse slots: a shard's reader holds only the objects its proxies
  /// read.
  mutable IdSlots<Seen> seen_;

  /// This reader's entry for `object`, brought up to the clock.  The
  /// reference is valid until the next insert into seen_.
  const Seen& current(ObjectId id, const VersionedObject& object) const;

  /// Validate `times` against the clock and append them to `object`.
  void append_trace(VersionedObject& object, std::vector<TimePoint> times,
                    std::vector<double> values);

  void respond_full(const ObjectVersion& object,
                    std::optional<TimePoint> since, bool typed,
                    Response& out);
};

}  // namespace broadway
