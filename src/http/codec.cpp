#include "http/codec.h"

#include <cstdio>
#include <sstream>

#include "http/extensions.h"
#include "util/strings.h"

namespace broadway {

namespace {

constexpr std::string_view kCrlf = "\r\n";
constexpr std::string_view kVersion = "HTTP/1.1";

void append_headers(std::ostringstream& os, const Headers& headers) {
  for (const auto& [name, value] : headers.entries()) {
    os << name << ": " << value << kCrlf;
  }
}

// Split the wire into (head-lines, body) at the first blank line.
struct SplitMessage {
  std::vector<std::string> lines;
  std::string body;
};

SplitMessage split_message(std::string_view wire) {
  const std::size_t sep = wire.find("\r\n\r\n");
  if (sep == std::string_view::npos) {
    throw HttpParseError("missing blank line");
  }
  SplitMessage out;
  out.body = std::string(wire.substr(sep + 4));
  std::string_view head = wire.substr(0, sep);
  std::size_t start = 0;
  while (start <= head.size()) {
    const std::size_t eol = head.find(kCrlf, start);
    if (eol == std::string_view::npos) {
      out.lines.emplace_back(head.substr(start));
      break;
    }
    out.lines.emplace_back(head.substr(start, eol - start));
    start = eol + 2;
  }
  if (out.lines.empty()) throw HttpParseError("empty message head");
  return out;
}

Headers parse_header_lines(const std::vector<std::string>& lines,
                           std::size_t first) {
  Headers headers;
  for (std::size_t i = first; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) {
      throw HttpParseError("header without colon: '" + line + "'");
    }
    const std::string_view name = trim(std::string_view(line).substr(0, colon));
    const std::string_view value =
        trim(std::string_view(line).substr(colon + 1));
    if (name.empty()) throw HttpParseError("empty header name");
    headers.add(name, value);
  }
  return headers;
}

}  // namespace

std::string serialize(const Request& request) {
  if (request.meta.active) {
    // Typed-path message: header strings were never rendered.  Serialising
    // is the moment they become observable, so materialise into a copy —
    // this is the lazy half of the typed/string equivalence, off the poll
    // hot path by construction.
    Request wire = request;
    materialize_headers(wire);
    wire.meta.active = false;
    return serialize(wire);
  }
  std::ostringstream os;
  os << to_string(request.method) << ' '
     << (request.uri.empty() ? "/" : request.uri) << ' ' << kVersion << kCrlf;
  append_headers(os, request.headers);
  os << kCrlf;
  return os.str();
}

std::string serialize(const Response& response) {
  if (response.meta.active) {
    Response wire = response;
    materialize_headers(wire);
    wire.meta.active = false;
    return serialize(wire);
  }
  std::ostringstream os;
  os << kVersion << ' ' << static_cast<int>(response.status) << ' '
     << reason_phrase(response.status) << kCrlf;
  append_headers(os, response.headers);
  if (!response.body.empty() && !response.headers.has("Content-Length")) {
    os << "Content-Length: " << response.body.size() << kCrlf;
  }
  os << kCrlf << response.body;
  return os.str();
}

Request parse_request(std::string_view wire) {
  const SplitMessage msg = split_message(wire);
  const auto parts = split(msg.lines[0], ' ');
  if (parts.size() != 3) {
    throw HttpParseError("bad request line: '" + msg.lines[0] + "'");
  }
  const auto method = parse_method(parts[0]);
  if (!method) throw HttpParseError("unknown method '" + parts[0] + "'");
  if (parts[2] != kVersion) {
    throw HttpParseError("unsupported version '" + parts[2] + "'");
  }
  Request req;
  req.method = *method;
  req.uri = parts[1];
  req.headers = parse_header_lines(msg.lines, 1);
  return req;
}

Response parse_response(std::string_view wire) {
  const SplitMessage msg = split_message(wire);
  const auto parts = split(msg.lines[0], ' ');
  if (parts.size() < 2 || parts[0] != kVersion) {
    throw HttpParseError("bad status line: '" + msg.lines[0] + "'");
  }
  // Range-check before narrowing: a 64-bit code such as 4294967496
  // would otherwise wrap to a valid int (200).
  long long code;
  if (!parse_int64(parts[1], code) || code < 100 || code > 999) {
    throw HttpParseError("bad status code '" + parts[1] + "'");
  }
  const auto status = parse_status(static_cast<int>(code));
  if (!status) {
    throw HttpParseError("unsupported status " + parts[1]);
  }
  Response resp;
  resp.status = *status;
  resp.headers = parse_header_lines(msg.lines, 1);
  resp.body = msg.body;
  if (const auto len = resp.headers.get("Content-Length")) {
    long long expected;
    if (!parse_int64(*len, expected) ||
        expected != static_cast<long long>(resp.body.size())) {
      throw HttpParseError("Content-Length mismatch");
    }
  }
  return resp;
}

}  // namespace broadway
