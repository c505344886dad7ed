#include "metrics/accounting.h"

#include <gtest/gtest.h>

#include "id_of.h"
#include "util/check.h"
#include "util/uri_table.h"

namespace broadway {
namespace {

// The table every hand-built record of this file resolves its uri
// through; it lives for the whole test program, so records never outlive
// it.
UriTable& table() {
  static UriTable uris;
  return uris;
}

PollRecord record(TimePoint t, const std::string& uri, PollCause cause,
                  bool failed = false) {
  const ObjectId object = table().intern(uri);
  return PollRecord{.snapshot_time = t,
                    .complete_time = t,
                    .uri = table().uri(object),
                    .object = object,
                    .cause = cause,
                    .failed = failed};
}

std::vector<PollRecord> sample_log() {
  return {
      record(0.0, "/a", PollCause::kInitial),
      record(0.0, "/b", PollCause::kInitial),
      record(10.0, "/a", PollCause::kScheduled),
      record(12.0, "/b", PollCause::kScheduled),
      record(12.0, "/a", PollCause::kTriggered),
      record(20.0, "/a", PollCause::kScheduled, /*failed=*/true),
      record(25.0, "/a", PollCause::kRetry),
      record(35.0, "/b", PollCause::kTriggered),
  };
}

TEST(Accounting, CountByCause) {
  const PollCauseCounts counts = count_by_cause(sample_log());
  EXPECT_EQ(counts.initial, 2u);
  EXPECT_EQ(counts.scheduled, 2u);
  EXPECT_EQ(counts.triggered, 2u);
  EXPECT_EQ(counts.retry, 1u);
  EXPECT_EQ(counts.failed, 1u);
  EXPECT_EQ(counts.total_refreshes(), 5u);
}

TEST(Accounting, PollsPerBucketAll) {
  const auto buckets = polls_per_bucket(sample_log(), 10.0, 40.0);
  ASSERT_EQ(buckets.size(), 4u);
  EXPECT_EQ(buckets[0], 2u);  // two initial fetches at t=0
  EXPECT_EQ(buckets[1], 3u);  // 10, 12, 12
  EXPECT_EQ(buckets[2], 1u);  // 25 (the failed 20 is skipped)
  EXPECT_EQ(buckets[3], 1u);  // 35
}

TEST(Accounting, PollsPerBucketFilteredByCause) {
  const auto triggered = polls_per_bucket(sample_log(), 10.0, 40.0,
                                          PollCause::kTriggered);
  EXPECT_EQ(triggered, (std::vector<std::size_t>{0, 1, 0, 1}));
}

TEST(Accounting, PollsPerBucketFilteredByObject) {
  const std::vector<PollRecord> log = sample_log();
  const auto only_a = polls_per_bucket(log, 10.0, 40.0, std::nullopt,
                                       id_of(table(), "/a"));
  EXPECT_EQ(only_a, (std::vector<std::size_t>{1, 2, 1, 0}));
}

TEST(Accounting, EventsBeyondHorizonDropped) {
  auto log = sample_log();
  log.push_back(record(100.0, "/a", PollCause::kScheduled));
  const auto buckets = polls_per_bucket(log, 10.0, 40.0);
  std::size_t total = 0;
  for (std::size_t b : buckets) total += b;
  EXPECT_EQ(total, 7u);  // the t=100 record is outside the horizon
}

TEST(Accounting, Validation) {
  const std::vector<PollRecord> empty;
  EXPECT_THROW(polls_per_bucket(empty, 0.0, 10.0), CheckFailure);
  EXPECT_THROW(polls_per_bucket(empty, 1.0, 0.0), CheckFailure);
}

TEST(Accounting, FleetOriginLoadMerge) {
  FleetOriginLoad a;
  a.origin_messages = 10;
  a.origin_polls = 8;
  a.relay_refreshes = 3;
  a.failed = 1;
  FleetOriginLoad b;
  b.origin_messages = 5;
  b.origin_polls = 4;
  b.relay_refreshes = 2;
  b.failed = 2;
  a.merge(b);
  EXPECT_EQ(a.origin_messages, 15u);
  EXPECT_EQ(a.origin_polls, 12u);
  EXPECT_EQ(a.relay_refreshes, 5u);
  EXPECT_EQ(a.failed, 3u);
  EXPECT_DOUBLE_EQ(a.polls_per_second(6.0), 2.0);
}

TEST(Accounting, MergePollRecordsOrdersBySnapshotThenProxy) {
  // Proxy 1's log contains a relay record whose snapshot (5.0) predates
  // the record logged before it — in-log order is not snapshot order,
  // which is exactly why the merge semantics are a stable sort.
  const std::vector<PollRecord> log0 = {
      record(0.0, "/a", PollCause::kInitial),
      record(10.0, "/a", PollCause::kScheduled),
  };
  const std::vector<PollRecord> log1 = {
      record(0.0, "/a", PollCause::kInitial),
      record(10.0, "/b", PollCause::kScheduled),
      record(5.0, "/a", PollCause::kRelay),
  };
  const auto merged =
      merge_poll_records({{0, &log0}, {1, &log1}});
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].snapshot_time, 0.0);  // proxy 0 initial
  EXPECT_EQ(merged[0].uri.get(), "/a");
  EXPECT_EQ(merged[1].snapshot_time, 0.0);  // proxy 1 initial
  EXPECT_EQ(merged[2].cause, PollCause::kRelay);  // snapshot 5.0
  EXPECT_EQ(merged[3].snapshot_time, 10.0);  // proxy 0 before proxy 1
  EXPECT_EQ(merged[3].uri.get(), "/a");
  EXPECT_EQ(merged[4].uri.get(), "/b");
}

TEST(Accounting, MergePollRecordsIsCallerOrderIndependent) {
  const std::vector<PollRecord> log0 = {
      record(1.0, "/a", PollCause::kScheduled),
      record(2.0, "/a", PollCause::kScheduled),
  };
  const std::vector<PollRecord> log1 = {
      record(1.0, "/b", PollCause::kScheduled),
  };
  const auto forward = merge_poll_records({{0, &log0}, {1, &log1}});
  const auto backward = merge_poll_records({{1, &log1}, {0, &log0}});
  ASSERT_EQ(forward.size(), backward.size());
  for (std::size_t i = 0; i < forward.size(); ++i) {
    EXPECT_EQ(forward[i].uri.get(), backward[i].uri.get()) << "record " << i;
    EXPECT_EQ(forward[i].snapshot_time, backward[i].snapshot_time);
  }
}

}  // namespace
}  // namespace broadway
