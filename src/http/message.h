// HTTP/1.1-style messages.
//
// All of the paper's consistency mechanisms ride on HTTP: the proxy
// refreshes an object with an `if-modified-since` GET and the server
// answers 304 (fresh) or 200 with a new body and Last-Modified (paper §5).
// These types model exactly the message surface those mechanisms need,
// including the user-defined extension headers of §5.1 (see extensions.h).
//
// Two representations coexist:
//  * header strings — the RFC 2616 surface, produced by the codec, the
//    tests and any component speaking "real" HTTP;
//  * typed wire metadata (RequestMeta/ResponseMeta) — the same validators
//    and extensions as plain numbers, exchanged directly when proxy and
//    origin share a process.  The in-process poll path uses the typed
//    sideband exclusively; header strings are materialised lazily (see
//    materialize_headers in extensions.h) only when the codec or a test
//    serialises the message.  Both carry *identical* information: the
//    typed values are millisecond-quantised exactly as the %.3f header
//    rendering would quantise them, so policy decisions never depend on
//    which representation a message travelled in.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/time.h"
#include "util/uri_table.h"

namespace broadway {

/// Request methods the proxy uses.
enum class Method { kGet, kHead };

std::string_view to_string(Method m);
std::optional<Method> parse_method(std::string_view text);

/// The subset of status codes the consistency machinery produces.
enum class StatusCode {
  kOk = 200,
  kNotModified = 304,
  kBadRequest = 400,
  kNotFound = 404,
};

std::string_view reason_phrase(StatusCode code);
std::optional<StatusCode> parse_status(int code);

/// Ordered, case-insensitive header collection.  Order is preserved for
/// serialisation; lookups ignore ASCII case per RFC 2616 §4.2.
class Headers {
 public:
  /// Replace any existing values for `name` with a single value.
  void set(std::string_view name, std::string_view value);

  /// Append without replacing (repeated headers).
  void add(std::string_view name, std::string_view value);

  /// First value for `name`, if present.
  std::optional<std::string_view> get(std::string_view name) const;

  /// All values for `name`, in insertion order.
  std::vector<std::string_view> get_all(std::string_view name) const;

  bool has(std::string_view name) const { return get(name).has_value(); }

  /// Remove all values for `name`; returns how many were removed.
  std::size_t remove(std::string_view name);

  /// Drop every entry, keeping the allocated capacity (scratch reuse).
  void clear() { entries_.clear(); }

  /// Raw entries in order (for serialisation and iteration).
  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

/// Typed request-side wire metadata (the If-Modified-Since validator as a
/// number).  `active` marks a message whose authoritative representation
/// is this sideband rather than header strings.
struct RequestMeta {
  bool active = false;
  /// Millisecond-quantised validator; nullopt = unconditional request.
  std::optional<TimePoint> if_modified_since;
};

/// Typed response-side wire metadata: Last-Modified, the value extension,
/// and the X-Modification-History payload.  The message owns its history,
/// so copies (e.g. a latency-delayed fleet relay) are self-contained;
/// clear() keeps the buffer's capacity, so a scratch Response reused
/// across polls stops allocating once warm.
struct ResponseMeta {
  bool active = false;
  /// Millisecond-quantised Last-Modified.
  std::optional<TimePoint> last_modified;
  /// X-Object-Value payload (full double precision; %.17g round-trips).
  std::optional<double> value;
  /// True when the response carries the history extension at all (an empty
  /// history header and an absent one decode identically, but the
  /// materialised header set differs).
  bool history_present = false;
  /// Ascending, ms-quantised modification instants.
  std::vector<TimePoint> history;

  void clear() {
    active = false;
    last_modified.reset();
    value.reset();
    history_present = false;
    history.clear();  // keeps capacity for scratch reuse
  }
};

/// An HTTP request.  `uri` is the absolute path identifying a cached
/// object (the library treats it as an opaque object id); `object` is the
/// interned UriTable handle when sender and receiver share a table
/// (kInvalidObjectId = resolve by uri string).
struct Request {
  Method method = Method::kGet;
  std::string uri;
  ObjectId object = kInvalidObjectId;
  Headers headers;
  RequestMeta meta;

  /// Convenience: build a conditional GET carrying If-Modified-Since (and
  /// the precise-time extension) for the given instant; see extensions.h.
  /// Stamps both the header strings and the typed sideband.
  static Request conditional_get(std::string uri, double if_modified_since);

  /// Back to a default-constructed state, keeping allocations.
  void reset() {
    method = Method::kGet;
    uri.clear();
    object = kInvalidObjectId;
    headers.clear();
    meta = RequestMeta{};
  }
};

/// An HTTP response.
struct Response {
  StatusCode status = StatusCode::kOk;
  Headers headers;
  std::string body;
  ResponseMeta meta;

  bool ok() const { return status == StatusCode::kOk; }
  bool not_modified() const { return status == StatusCode::kNotModified; }

  /// Back to a default-constructed state, keeping allocations.
  void reset() {
    status = StatusCode::kOk;
    headers.clear();
    body.clear();
    meta.clear();
  }
};

}  // namespace broadway
