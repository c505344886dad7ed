// The paper's proposed HTTP/1.1 extensions (paper §5.1), made concrete.
//
// The paper proposes, via HTTP's user-defined headers:
//   1. a *modification history* of arbitrary length in responses, so the
//      proxy can detect Fig. 1(b) violations (multiple updates between
//      polls) exactly instead of guessing from Last-Modified alone;
//   2. cache-control style directives carrying the per-object tolerance Δ
//      and the per-group tolerance δ.
//
// Concrete header set implemented here:
//   Last-Modified / If-Modified-Since  — standard RFC 1123 dates (date.h);
//   X-Last-Modified-Precise            — decimal seconds; sub-second
//                                        precision for simulation fidelity;
//   X-If-Modified-Since-Precise        — request-side counterpart;
//   X-Modification-History             — comma-separated decimal seconds of
//                                        the most recent updates, newest
//                                        last, capped by the server;
//   X-Delta-Consistency                — Δ, decimal seconds (request);
//   X-Consistency-Group                — group id (request);
//   X-Group-Delta                      — δ, decimal seconds (request);
//   X-Object-Value                     — decimal value of a value-domain
//                                        object (response).
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "http/message.h"
#include "util/time.h"

namespace broadway {

// Header names.
inline constexpr std::string_view kHdrLastModified = "Last-Modified";
inline constexpr std::string_view kHdrIfModifiedSince = "If-Modified-Since";
inline constexpr std::string_view kHdrLastModifiedPrecise =
    "X-Last-Modified-Precise";
inline constexpr std::string_view kHdrIfModifiedSincePrecise =
    "X-If-Modified-Since-Precise";
inline constexpr std::string_view kHdrModificationHistory =
    "X-Modification-History";
inline constexpr std::string_view kHdrDeltaConsistency =
    "X-Delta-Consistency";
inline constexpr std::string_view kHdrConsistencyGroup =
    "X-Consistency-Group";
inline constexpr std::string_view kHdrGroupDelta = "X-Group-Delta";
inline constexpr std::string_view kHdrObjectValue = "X-Object-Value";

/// Stamp both the RFC 1123 If-Modified-Since and the precise variant.
void set_if_modified_since(Headers& headers, TimePoint t);

/// Read the validator from a request: the precise header when present,
/// otherwise the parsed RFC 1123 header.  nullopt = unconditional request.
std::optional<TimePoint> get_if_modified_since(const Headers& headers);

/// Stamp both Last-Modified headers on a response.
void set_last_modified(Headers& headers, TimePoint t);

/// Read Last-Modified, preferring the precise header.
std::optional<TimePoint> get_last_modified(const Headers& headers);

/// Encode/decode the modification-history extension.  `instants` must be
/// ascending; decode returns nullopt on malformed input (absent header
/// decodes as an empty vector).
void set_modification_history(Headers& headers,
                              const std::vector<TimePoint>& instants);
std::optional<std::vector<TimePoint>> get_modification_history(
    const Headers& headers);

/// Per-object tolerance Δ on a request.
void set_delta_tolerance(Headers& headers, Duration delta);
std::optional<Duration> get_delta_tolerance(const Headers& headers);

/// Group membership + group tolerance δ on a request.
void set_group(Headers& headers, std::string_view group_id,
               Duration group_delta);
std::optional<std::string_view> get_group_id(const Headers& headers);
std::optional<Duration> get_group_delta(const Headers& headers);

/// Value-domain object value on a response.
void set_object_value(Headers& headers, double value);
std::optional<double> get_object_value(const Headers& headers);

// ---- typed wire metadata (the in-process fast path) -----------------------
//
// The sideband in RequestMeta/ResponseMeta carries the same validators and
// extensions as the headers above, without formatting or parsing.  The
// readers below prefer the typed representation and fall back to parsing
// header strings, so every consumer behaves identically whichever way the
// message travelled.

/// Quantise an instant exactly as the %.3f header rendering + strtod
/// re-parse would: the typed path must make the same (millisecond) values
/// visible to policies as the string path, bit for bit.
TimePoint quantize_wire_seconds(TimePoint t);

/// If-Modified-Since: typed when request.meta.active, else parsed.
std::optional<TimePoint> wire_if_modified_since(const Request& request);

/// Last-Modified: typed when response.meta.active, else parsed.
std::optional<TimePoint> wire_last_modified(const Response& response);

/// X-Object-Value: typed when response.meta.active, else parsed.
std::optional<double> wire_object_value(const Response& response);

/// X-Modification-History into `out` (cleared first).  Returns false when
/// the string representation is malformed (out is left empty, matching the
/// old get_modification_history(...) == nullopt handling).  `Container`
/// is any vector-shaped instant sequence — std::vector<TimePoint> or the
/// observation pipeline's SmallVector (TemporalPollObservation::History).
template <typename Container>
bool wire_modification_history(const Response& response, Container& out) {
  out.clear();
  if (response.meta.active) {
    if (response.meta.history_present) {
      out.assign(response.meta.history.begin(), response.meta.history.end());
    }
    return true;
  }
  const auto history = get_modification_history(response.headers);
  if (!history) return false;
  out.assign(history->begin(), history->end());
  return true;
}

/// Render the typed sideband into header strings (idempotent; no-op when
/// the meta is inactive).  The codec and tests call this before
/// serialising a message that travelled the typed path; the poll hot path
/// never does.
void materialize_headers(Request& request);
void materialize_headers(Response& response);

}  // namespace broadway
