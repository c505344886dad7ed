#include "http/extensions.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "http/date.h"
#include "util/strings.h"

namespace broadway {

namespace {

std::string fmt_seconds(double v) {
  char buf[64];
  // Three decimals: millisecond precision, compact on the wire.
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::optional<double> parse_seconds(std::string_view text) {
  double v;
  if (!parse_double(text, v)) return std::nullopt;
  return v;
}

}  // namespace

void set_if_modified_since(Headers& headers, TimePoint t) {
  headers.set(kHdrIfModifiedSince, format_http_date(t));
  headers.set(kHdrIfModifiedSincePrecise, fmt_seconds(t));
}

std::optional<TimePoint> get_if_modified_since(const Headers& headers) {
  if (auto precise = headers.get(kHdrIfModifiedSincePrecise)) {
    return parse_seconds(*precise);
  }
  if (auto coarse = headers.get(kHdrIfModifiedSince)) {
    return parse_http_date(*coarse);
  }
  return std::nullopt;
}

void set_last_modified(Headers& headers, TimePoint t) {
  headers.set(kHdrLastModified, format_http_date(t));
  headers.set(kHdrLastModifiedPrecise, fmt_seconds(t));
}

std::optional<TimePoint> get_last_modified(const Headers& headers) {
  if (auto precise = headers.get(kHdrLastModifiedPrecise)) {
    return parse_seconds(*precise);
  }
  if (auto coarse = headers.get(kHdrLastModified)) {
    return parse_http_date(*coarse);
  }
  return std::nullopt;
}

void set_modification_history(Headers& headers,
                              const std::vector<TimePoint>& instants) {
  std::vector<std::string> parts;
  parts.reserve(instants.size());
  for (TimePoint t : instants) parts.push_back(fmt_seconds(t));
  headers.set(kHdrModificationHistory, join(parts, ", "));
}

std::optional<std::vector<TimePoint>> get_modification_history(
    const Headers& headers) {
  const auto raw = headers.get(kHdrModificationHistory);
  if (!raw) return std::vector<TimePoint>{};
  std::vector<TimePoint> out;
  TimePoint prev = -kTimeInfinity;
  for (const auto& piece : split_trimmed(*raw, ',')) {
    const auto v = parse_seconds(piece);
    if (!v || *v < prev) return std::nullopt;  // malformed or unordered
    out.push_back(*v);
    prev = *v;
  }
  return out;
}

void set_delta_tolerance(Headers& headers, Duration delta) {
  headers.set(kHdrDeltaConsistency, fmt_seconds(delta));
}

std::optional<Duration> get_delta_tolerance(const Headers& headers) {
  const auto raw = headers.get(kHdrDeltaConsistency);
  if (!raw) return std::nullopt;
  return parse_seconds(*raw);
}

void set_group(Headers& headers, std::string_view group_id,
               Duration group_delta) {
  headers.set(kHdrConsistencyGroup, group_id);
  headers.set(kHdrGroupDelta, fmt_seconds(group_delta));
}

std::optional<std::string_view> get_group_id(const Headers& headers) {
  return headers.get(kHdrConsistencyGroup);
}

std::optional<Duration> get_group_delta(const Headers& headers) {
  const auto raw = headers.get(kHdrGroupDelta);
  if (!raw) return std::nullopt;
  return parse_seconds(*raw);
}

void set_object_value(Headers& headers, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  headers.set(kHdrObjectValue, buf);
}

std::optional<double> get_object_value(const Headers& headers) {
  const auto raw = headers.get(kHdrObjectValue);
  if (!raw) return std::nullopt;
  double v;
  if (!parse_double(*raw, v)) return std::nullopt;
  return v;
}

// ---- typed wire metadata ---------------------------------------------------

namespace {

// The authoritative quantiser: format-and-reparse, exactly the double a
// header round-trip produces.  Stack buffers only — no allocation.
TimePoint quantize_via_printf(TimePoint t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", t);
  return std::strtod(buf, nullptr);
}

}  // namespace

TimePoint quantize_wire_seconds(TimePoint t) {
  // Hot path (once per poll): arithmetic round-to-milli.  nearbyint under
  // the default rounding mode resolves exact .5 ties to even, like
  // printf's correctly-rounded decimal conversion, and k/1000.0 is the
  // correctly-rounded double of the decimal k·10⁻³ — i.e. what strtod
  // would return.  The one hazard is t·1000 landing within floating-point
  // error of a tie, where the product could sit on the wrong side of the
  // boundary printf sees in the exact decimal expansion; inside that
  // (vanishingly narrow) guard band we delegate to the printf path, so
  // the two are equal on *every* input — pinned by test_http_extensions.
  if (!std::isfinite(t)) return t;
  const double scaled = t * 1000.0;
  if (std::abs(scaled) >= 4.5e15) return quantize_via_printf(t);  // ulp >= 0.5
  const double rounded = std::nearbyint(scaled);
  const double tie_distance = std::abs(std::abs(scaled - rounded) - 0.5);
  // The product's error is <= 0.5 ulp(scaled); guard at 8 ulp (plus an
  // absolute floor near zero) so the delegation stays vanishing at any
  // horizon instead of widening with simulation time.
  const double guard =
      8.0 * std::numeric_limits<double>::epsilon() * std::abs(scaled) +
      1e-300;
  if (tie_distance <= guard) return quantize_via_printf(t);
  return rounded / 1000.0;
}

std::optional<TimePoint> wire_if_modified_since(const Request& request) {
  if (request.meta.active) return request.meta.if_modified_since;
  return get_if_modified_since(request.headers);
}

std::optional<TimePoint> wire_last_modified(const Response& response) {
  if (response.meta.active) return response.meta.last_modified;
  return get_last_modified(response.headers);
}

std::optional<double> wire_object_value(const Response& response) {
  if (response.meta.active) return response.meta.value;
  return get_object_value(response.headers);
}

void materialize_headers(Request& request) {
  if (!request.meta.active) return;
  if (request.meta.if_modified_since) {
    set_if_modified_since(request.headers, *request.meta.if_modified_since);
  }
}

void materialize_headers(Response& response) {
  if (!response.meta.active) return;
  if (response.meta.last_modified) {
    set_last_modified(response.headers, *response.meta.last_modified);
  }
  if (response.meta.value) {
    set_object_value(response.headers, *response.meta.value);
  }
  if (response.meta.history_present) {
    set_modification_history(response.headers, response.meta.history);
  }
  if (response.status == StatusCode::kOk) {
    // Mirror the string path's entity header so a materialised typed 200
    // serialises byte-identically (meta.value presence == value-domain).
    response.headers.set("Content-Type",
                         response.meta.value ? "text/plain" : "text/html");
  }
}

}  // namespace broadway
