#include "trace/trace_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "trace/generators.h"
#include "trace/stock.h"
#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

TEST(TraceIo, UpdateTraceRoundTrip) {
  const UpdateTrace original("news/page", {1.5, 2.25, 100.125}, 3600.0,
                             13.5);
  const UpdateTrace parsed =
      parse_update_trace(serialize_update_trace(original));
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_DOUBLE_EQ(parsed.duration(), original.duration());
  EXPECT_DOUBLE_EQ(parsed.start_hour(), original.start_hour());
  EXPECT_EQ(parsed.updates(), original.updates());
}

TEST(TraceIo, UpdateTraceRoundTripPreservesFullPrecision) {
  Rng rng(3);
  std::vector<TimePoint> times = generate_poisson(rng, 0.01, 50000.0);
  const UpdateTrace original("precise", times, 50000.0);
  const UpdateTrace parsed =
      parse_update_trace(serialize_update_trace(original));
  ASSERT_EQ(parsed.count(), original.count());
  for (std::size_t i = 0; i < times.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed.updates()[i], times[i]);
  }
}

TEST(TraceIo, ValueTraceRoundTrip) {
  const ValueTrace original(
      "stock/T", 36.10, {{1.0, 36.15}, {7.5, 36.05}}, 10800.0);
  const ValueTrace parsed =
      parse_value_trace(serialize_value_trace(original));
  EXPECT_EQ(parsed.name(), original.name());
  EXPECT_DOUBLE_EQ(parsed.initial_value(), original.initial_value());
  EXPECT_DOUBLE_EQ(parsed.duration(), original.duration());
  ASSERT_EQ(parsed.count(), 2u);
  EXPECT_DOUBLE_EQ(parsed.steps()[1].value, 36.05);
}

TEST(TraceIo, RejectsWrongKind) {
  const UpdateTrace update("u", {1.0}, 10.0);
  EXPECT_THROW(parse_value_trace(serialize_update_trace(update)),
               std::runtime_error);
  const ValueTrace value("v", 1.0, {}, 10.0);
  EXPECT_THROW(parse_update_trace(serialize_value_trace(value)),
               std::runtime_error);
}

TEST(TraceIo, RejectsMalformed) {
  EXPECT_THROW(parse_update_trace(""), std::runtime_error);
  EXPECT_THROW(parse_update_trace("no header\n1.0\n"), std::runtime_error);
  EXPECT_THROW(parse_update_trace("# broadway-update-trace,x,100\n"),
               std::runtime_error);  // missing field
  EXPECT_THROW(
      parse_update_trace("# broadway-update-trace,x,100,0\nnot-a-number\n"),
      std::runtime_error);
  EXPECT_THROW(
      parse_value_trace("# broadway-value-trace,x,100,1\n1.0\n"),
      std::runtime_error);  // step needs two fields
}

TEST(TraceIo, RejectsNonFiniteTimes) {
  // A NaN compares false both ways, so a sortedness check alone lets it
  // through.
  EXPECT_THROW(
      parse_update_trace("# broadway-update-trace,/x,100,0\n1\nnan\n0.5\n"),
      CheckFailure);
  EXPECT_THROW(parse_update_trace("# broadway-update-trace,/x,inf,0\n1\n"),
               CheckFailure);
  EXPECT_THROW(parse_value_trace("# broadway-value-trace,/x,inf,1\n0.5,2\n"),
               CheckFailure);
  EXPECT_THROW(parse_value_trace("# broadway-value-trace,/x,100,1\nnan,2\n"),
               CheckFailure);
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "/broadway_trace_io.csv";
  const UpdateTrace original("file-test", {5.0, 6.0}, 100.0, 2.0);
  save_update_trace(original, path);
  const UpdateTrace loaded = load_update_trace(path);
  EXPECT_EQ(loaded.updates(), original.updates());
  std::remove(path.c_str());
}

TEST(TraceIo, LoadMissingFileThrows) {
  EXPECT_THROW(load_update_trace("/nonexistent/path/trace.csv"),
               std::runtime_error);
}

}  // namespace
}  // namespace broadway
