#include "http/message.h"

#include <gtest/gtest.h>

#include "http/extensions.h"

namespace broadway {
namespace {

TEST(Headers, SetReplacesAllValues) {
  Headers headers;
  headers.add("X-Test", "one");
  headers.add("x-test", "two");
  headers.set("X-TEST", "final");
  EXPECT_EQ(headers.get_all("x-test").size(), 1u);
  EXPECT_EQ(*headers.get("X-Test"), "final");
}

TEST(Headers, LookupIsCaseInsensitive) {
  Headers headers;
  headers.set("Last-Modified", "whenever");
  EXPECT_TRUE(headers.has("last-modified"));
  EXPECT_TRUE(headers.has("LAST-MODIFIED"));
  EXPECT_EQ(*headers.get("lAsT-mOdIfIeD"), "whenever");
}

TEST(Headers, AddPreservesRepeats) {
  Headers headers;
  headers.add("Via", "proxy-1");
  headers.add("Via", "proxy-2");
  const auto all = headers.get_all("via");
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0], "proxy-1");
  EXPECT_EQ(all[1], "proxy-2");
  // get() returns the first.
  EXPECT_EQ(*headers.get("Via"), "proxy-1");
}

TEST(Headers, RemoveReturnsCount) {
  Headers headers;
  headers.add("A", "1");
  headers.add("a", "2");
  headers.add("B", "3");
  EXPECT_EQ(headers.remove("A"), 2u);
  EXPECT_FALSE(headers.has("a"));
  EXPECT_TRUE(headers.has("B"));
  EXPECT_EQ(headers.remove("missing"), 0u);
}

TEST(Headers, EntriesPreserveInsertionOrder) {
  Headers headers;
  headers.add("First", "1");
  headers.add("Second", "2");
  headers.add("Third", "3");
  ASSERT_EQ(headers.entries().size(), 3u);
  EXPECT_EQ(headers.entries()[0].first, "First");
  EXPECT_EQ(headers.entries()[2].first, "Third");
}

TEST(Headers, SetPushesReplacementToTheBack) {
  // set() = remove + add: the replacement does not keep the old slot.
  Headers headers;
  headers.add("A", "1");
  headers.add("B", "2");
  headers.set("a", "updated");
  ASSERT_EQ(headers.entries().size(), 2u);
  EXPECT_EQ(headers.entries()[0].first, "B");
  EXPECT_EQ(headers.entries()[1].first, "a");  // stored as passed to set()
  EXPECT_EQ(headers.entries()[1].second, "updated");
}

TEST(Headers, RemovePreservesOrderOfSurvivors) {
  Headers headers;
  headers.add("Keep-1", "a");
  headers.add("Drop", "b");
  headers.add("Keep-2", "c");
  headers.add("drop", "d");
  headers.add("Keep-3", "e");
  EXPECT_EQ(headers.remove("DROP"), 2u);
  ASSERT_EQ(headers.size(), 3u);
  EXPECT_EQ(headers.entries()[0].first, "Keep-1");
  EXPECT_EQ(headers.entries()[1].first, "Keep-2");
  EXPECT_EQ(headers.entries()[2].first, "Keep-3");
}

TEST(Headers, EmptyAndMissingLookups) {
  Headers headers;
  EXPECT_TRUE(headers.empty());
  EXPECT_EQ(headers.size(), 0u);
  EXPECT_FALSE(headers.get("anything").has_value());
  EXPECT_TRUE(headers.get_all("anything").empty());
  headers.add("Empty-Value", "");
  EXPECT_TRUE(headers.has("empty-value"));
  EXPECT_EQ(*headers.get("Empty-Value"), "");
  EXPECT_FALSE(headers.empty());
}

TEST(Headers, ClearKeepsNothing) {
  Headers headers;
  headers.add("A", "1");
  headers.add("B", "2");
  headers.clear();
  EXPECT_TRUE(headers.empty());
  EXPECT_FALSE(headers.has("A"));
  headers.add("C", "3");  // usable after clear
  EXPECT_EQ(*headers.get("C"), "3");
}

TEST(Headers, GetAllIsCaseInsensitiveAndOrdered) {
  Headers headers;
  headers.add("Via", "one");
  headers.add("VIA", "two");
  headers.add("via", "three");
  const auto all = headers.get_all("vIa");
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0], "one");
  EXPECT_EQ(all[1], "two");
  EXPECT_EQ(all[2], "three");
}

TEST(Method, Conversions) {
  EXPECT_EQ(to_string(Method::kGet), "GET");
  EXPECT_EQ(to_string(Method::kHead), "HEAD");
  EXPECT_EQ(parse_method("GET"), Method::kGet);
  EXPECT_EQ(parse_method("HEAD"), Method::kHead);
  EXPECT_FALSE(parse_method("POST").has_value());
  EXPECT_FALSE(parse_method("get").has_value());  // methods are case-sensitive
}

TEST(StatusCode, Conversions) {
  EXPECT_EQ(reason_phrase(StatusCode::kOk), "OK");
  EXPECT_EQ(reason_phrase(StatusCode::kNotModified), "Not Modified");
  EXPECT_EQ(parse_status(200), StatusCode::kOk);
  EXPECT_EQ(parse_status(304), StatusCode::kNotModified);
  EXPECT_EQ(parse_status(404), StatusCode::kNotFound);
  EXPECT_FALSE(parse_status(418).has_value());
}

TEST(Request, ConditionalGetCarriesValidators) {
  const Request req = Request::conditional_get("/news/story.html", 3725.5);
  EXPECT_EQ(req.method, Method::kGet);
  EXPECT_EQ(req.uri, "/news/story.html");
  EXPECT_TRUE(req.headers.has(kHdrIfModifiedSince));
  const auto parsed = get_if_modified_since(req.headers);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_NEAR(*parsed, 3725.5, 1e-3);  // precise header keeps sub-seconds
}

TEST(Response, StatusPredicates) {
  Response ok;
  ok.status = StatusCode::kOk;
  EXPECT_TRUE(ok.ok());
  EXPECT_FALSE(ok.not_modified());
  Response nm;
  nm.status = StatusCode::kNotModified;
  EXPECT_TRUE(nm.not_modified());
  EXPECT_FALSE(nm.ok());
}

TEST(Request, ConditionalGetMirrorsTypedSideband) {
  // The typed value equals what a parse of the stamped headers yields —
  // both are millisecond-quantised.
  const Request req = Request::conditional_get("/page", 3725.5009);
  ASSERT_TRUE(req.meta.if_modified_since.has_value());
  EXPECT_EQ(*req.meta.if_modified_since,
            *get_if_modified_since(req.headers));
}

TEST(Request, ResetReturnsToDefaults) {
  Request req = Request::conditional_get("/page", 10.0);
  req.object = 7;
  req.meta.active = true;
  req.reset();
  EXPECT_EQ(req.method, Method::kGet);
  EXPECT_TRUE(req.uri.empty());
  EXPECT_EQ(req.object, kInvalidObjectId);
  EXPECT_TRUE(req.headers.empty());
  EXPECT_FALSE(req.meta.active);
  EXPECT_FALSE(req.meta.if_modified_since.has_value());
}

TEST(ResponseMeta, HistoryIsOwnedAndResetKeepsCapacity) {
  Response response;
  response.meta.active = true;
  response.meta.history_present = true;
  response.meta.history = {1.0, 2.0, 3.0};

  // A copy is deep: it outlives and is independent of the original.
  Response copy = response;
  response.meta.history[0] = 9.0;
  ASSERT_EQ(copy.meta.history.size(), 3u);
  EXPECT_EQ(copy.meta.history[0], 1.0);

  // Reset empties the message but keeps the buffer for scratch reuse.
  const std::size_t capacity = response.meta.history.capacity();
  response.reset();
  EXPECT_FALSE(response.meta.active);
  EXPECT_FALSE(response.meta.history_present);
  EXPECT_TRUE(response.meta.history.empty());
  EXPECT_EQ(response.meta.history.capacity(), capacity);
}

}  // namespace
}  // namespace broadway
