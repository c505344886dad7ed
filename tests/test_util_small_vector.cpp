// SmallVector: the inline-storage vector behind the per-poll observation
// history.  The crosscheck that the type change is invisible to policy
// behaviour lives in the existing suites (every consistency/violation/
// rate test plus test_wire_differential run through it); these tests pin
// the container mechanics themselves, in particular the inline -> heap
// spill boundary.
#include "util/small_vector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "consistency/types.h"
#include "http/extensions.h"
#include "http/message.h"

namespace broadway {
namespace {

using SV = SmallVector<double, 4>;

TEST(SmallVector, StartsEmptyAndInline) {
  SV v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_FALSE(v.spilled());
}

TEST(SmallVector, StaysInlineUpToCapacity) {
  SV v;
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_FALSE(v.spilled());
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, SpillsBeyondInlineCapacityAndKeepsContents) {
  SV v;
  for (int i = 0; i < 23; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 23u);
  EXPECT_TRUE(v.spilled());
  EXPECT_GE(v.capacity(), 23u);
  for (int i = 0; i < 23; ++i) EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(v.front(), 0.0);
  EXPECT_EQ(v.back(), 22.0);
}

TEST(SmallVector, InitializerListAndVectorAssignment) {
  SV v = {1.0, 2.0, 3.0};
  EXPECT_EQ(v.size(), 3u);
  v = {4.0, 5.0};
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 4.0);
  const std::vector<double> big = {1, 2, 3, 4, 5, 6, 7, 8};
  v = big;
  EXPECT_EQ(v.size(), 8u);
  EXPECT_TRUE(v.spilled());
  EXPECT_TRUE(std::equal(v.begin(), v.end(), big.begin()));
}

TEST(SmallVector, CopyAndMoveAcrossTheSpillBoundary) {
  for (const std::size_t count : {3u, 30u}) {
    SV original;
    for (std::size_t i = 0; i < count; ++i) {
      original.push_back(static_cast<double>(i));
    }
    SV copied(original);
    EXPECT_EQ(copied, original);

    SV moved(std::move(original));
    EXPECT_EQ(moved, copied);
    EXPECT_TRUE(original.empty());  // moved-from: valid and empty

    SV assigned;
    assigned.push_back(-1.0);
    assigned = copied;
    EXPECT_EQ(assigned, copied);

    SV move_assigned;
    move_assigned = std::move(moved);
    EXPECT_EQ(move_assigned, copied);
    EXPECT_TRUE(moved.empty());
  }
}

TEST(SmallVector, EraseShiftsTheTail) {
  SV v = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};  // spilled
  const auto first = std::upper_bound(v.begin(), v.end(), 2.0);
  v.erase(v.begin(), first);
  EXPECT_EQ(v, (SV{3.0, 4.0, 5.0, 6.0}));
  v.erase(v.begin() + 1, v.begin() + 3);
  EXPECT_EQ(v, (SV{3.0, 6.0}));
  v.erase(v.begin(), v.begin());  // empty range: no-op
  EXPECT_EQ(v.size(), 2u);
}

TEST(SmallVector, ClearKeepsCapacity) {
  SV v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  const std::size_t capacity = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), capacity);
}

// The observation pipeline's exact usage: decode a wire history longer
// than the inline capacity and restrict it, typed and string paths alike.
TEST(SmallVector, ObservationHistorySpillsThroughTheWirePath) {
  static_assert(TemporalPollObservation::History::inline_capacity() == 8);
  std::vector<TimePoint> instants;
  for (int i = 1; i <= 20; ++i) instants.push_back(i * 10.0);

  Response typed;
  typed.status = StatusCode::kOk;
  typed.meta.active = true;
  typed.meta.history_present = true;
  typed.meta.history = instants;

  Response wire;
  wire.status = StatusCode::kOk;
  set_modification_history(wire.headers, instants);

  for (Response* response : {&typed, &wire}) {
    TemporalPollObservation obs;
    ASSERT_TRUE(wire_modification_history(*response, obs.history));
    ASSERT_EQ(obs.history.size(), 20u);
    EXPECT_TRUE(obs.history.spilled());
    // The on_response restriction: drop everything at or before 95.0.
    const auto first =
        std::upper_bound(obs.history.begin(), obs.history.end(), 95.0);
    obs.history.erase(obs.history.begin(), first);
    ASSERT_EQ(obs.history.size(), 11u);
    EXPECT_EQ(obs.history.front(), 100.0);
    EXPECT_EQ(obs.history.back(), 200.0);
  }
}

TEST(SmallVector, ShortHistoryStaysInline) {
  Response typed;
  typed.status = StatusCode::kOk;
  typed.meta.active = true;
  const std::vector<TimePoint> instants = {10.0, 20.0, 30.0};
  typed.meta.history_present = true;
  typed.meta.history = instants;
  TemporalPollObservation obs;
  ASSERT_TRUE(wire_modification_history(typed, obs.history));
  EXPECT_EQ(obs.history.size(), 3u);
  EXPECT_FALSE(obs.history.spilled());
}

}  // namespace
}  // namespace broadway
