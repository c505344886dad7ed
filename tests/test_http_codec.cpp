#include "http/codec.h"

#include <gtest/gtest.h>

#include "http/extensions.h"

namespace broadway {
namespace {

TEST(Codec, SerializesRequestLine) {
  Request req;
  req.method = Method::kGet;
  req.uri = "/sports/scores";
  const std::string wire = serialize(req);
  EXPECT_EQ(wire.substr(0, wire.find("\r\n")),
            "GET /sports/scores HTTP/1.1");
  EXPECT_NE(wire.find("\r\n\r\n"), std::string::npos);
}

TEST(Codec, EmptyUriBecomesRoot) {
  Request req;
  const std::string wire = serialize(req);
  EXPECT_EQ(wire.substr(0, wire.find("\r\n")), "GET / HTTP/1.1");
}

TEST(Codec, RequestRoundTrip) {
  Request req = Request::conditional_get("/news/page.html", 1234.5);
  req.headers.add("Accept", "text/html");
  const Request parsed = parse_request(serialize(req));
  EXPECT_EQ(parsed.method, Method::kGet);
  EXPECT_EQ(parsed.uri, "/news/page.html");
  EXPECT_EQ(*parsed.headers.get("accept"), "text/html");
  EXPECT_NEAR(*get_if_modified_since(parsed.headers), 1234.5, 1e-3);
}

TEST(Codec, ResponseRoundTripWithBody) {
  Response resp;
  resp.status = StatusCode::kOk;
  set_last_modified(resp.headers, 777.25);
  resp.body = "<html>story v3</html>";
  const Response parsed = parse_response(serialize(resp));
  EXPECT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.body, resp.body);
  EXPECT_NEAR(*get_last_modified(parsed.headers), 777.25, 1e-3);
  // Content-Length was synthesised and verified.
  EXPECT_EQ(*parsed.headers.get("Content-Length"),
            std::to_string(resp.body.size()));
}

TEST(Codec, NotModifiedRoundTrip) {
  Response resp;
  resp.status = StatusCode::kNotModified;
  const Response parsed = parse_response(serialize(resp));
  EXPECT_TRUE(parsed.not_modified());
  EXPECT_TRUE(parsed.body.empty());
}

TEST(Codec, ParseRequestErrors) {
  EXPECT_THROW(parse_request("GET /"), HttpParseError);  // no blank line
  EXPECT_THROW(parse_request("GET / HTTP/1.0\r\n\r\n"), HttpParseError);
  EXPECT_THROW(parse_request("POST / HTTP/1.1\r\n\r\n"), HttpParseError);
  EXPECT_THROW(parse_request("GET /too many words HTTP/1.1\r\n\r\n"),
               HttpParseError);
  EXPECT_THROW(parse_request("GET / HTTP/1.1\r\nBadHeader\r\n\r\n"),
               HttpParseError);
  EXPECT_THROW(parse_request("GET / HTTP/1.1\r\n: empty-name\r\n\r\n"),
               HttpParseError);
}

TEST(Codec, ParseResponseErrors) {
  EXPECT_THROW(parse_response("HTTP/1.1 200 OK"), HttpParseError);
  EXPECT_THROW(parse_response("HTTP/1.1 abc OK\r\n\r\n"), HttpParseError);
  EXPECT_THROW(parse_response("HTTP/1.1 999 Weird\r\n\r\n"), HttpParseError);
  EXPECT_THROW(parse_response("SPDY/3 200 OK\r\n\r\n"), HttpParseError);
  // Codes outside [100, 999]: 4294967496 wraps to 200 in a 32-bit int.
  EXPECT_THROW(parse_response("HTTP/1.1 4294967496 OK\r\n\r\n"),
               HttpParseError);
  EXPECT_THROW(parse_response("HTTP/1.1 99999999999999999999 OK\r\n\r\n"),
               HttpParseError);
  EXPECT_THROW(parse_response("HTTP/1.1 -1 OK\r\n\r\n"), HttpParseError);
  // Content-Length that disagrees with the body.
  EXPECT_THROW(parse_response("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nabc"),
               HttpParseError);
}

TEST(Codec, HeaderWhitespaceTrimmed) {
  const Request parsed =
      parse_request("GET / HTTP/1.1\r\nX-Pad:    spaced out   \r\n\r\n");
  EXPECT_EQ(*parsed.headers.get("X-Pad"), "spaced out");
}

TEST(Codec, BodyMayContainCrlf) {
  Response resp;
  resp.status = StatusCode::kOk;
  resp.body = "line1\r\n\r\nline2";
  const Response parsed = parse_response(serialize(resp));
  EXPECT_EQ(parsed.body, resp.body);
}

}  // namespace
}  // namespace broadway
