// IdSlots: sparse ObjectId-keyed storage behind every per-object table of
// the proxy stack.  These tests pin the container itself — absent ids,
// huge ids, first-insert order, growth, the dense/sparse index switch and
// clear — against a std::map model; the tables built on it are covered by
// their own suites.
#include "util/id_slots.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/rng.h"

namespace broadway {
namespace {

TEST(IdSlots, EmptyReportsEveryIdAbsent) {
  IdSlots<int> slots;
  EXPECT_TRUE(slots.empty());
  EXPECT_EQ(slots.size(), 0u);
  for (const ObjectId id : {0u, 1u, 7u, 1'000'000u, 0xfffffffeu}) {
    EXPECT_EQ(slots.find(id), nullptr);
    EXPECT_FALSE(slots.contains(id));
    EXPECT_EQ(slots.slot_of(id), IdSlots<int>::kNoSlot);
  }
  EXPECT_EQ(slots.find(kInvalidObjectId), nullptr);
}

TEST(IdSlots, AbsentIdsStayAbsentAmongPresentOnes) {
  IdSlots<int> slots;
  slots[3] = 30;
  slots[5] = 50;
  EXPECT_EQ(slots.find(4), nullptr);
  EXPECT_EQ(slots.find(0), nullptr);
  EXPECT_EQ(slots.find(kInvalidObjectId), nullptr);
  ASSERT_NE(slots.find(3), nullptr);
  EXPECT_EQ(*slots.find(3), 30);
  EXPECT_EQ(*slots.find(5), 50);
}

TEST(IdSlots, HugeIdWithOneEntryStaysSmall) {
  IdSlots<std::uint64_t> slots;
  const ObjectId huge = 0xfffffffeu;  // the largest valid id
  slots[huge] = 7;
  EXPECT_EQ(slots.size(), 1u);
  EXPECT_EQ(*slots.find(huge), 7u);
  EXPECT_EQ(slots.find(huge - 1), nullptr);
  EXPECT_EQ(slots.find(0), nullptr);
  EXPECT_EQ(slots.ids(), std::vector<ObjectId>{huge});
  EXPECT_FALSE(slots.dense());
}

TEST(IdSlots, InvalidIdIsRejectedOnInsert) {
  IdSlots<int> slots;
  EXPECT_THROW(slots[kInvalidObjectId], CheckFailure);
  EXPECT_TRUE(slots.empty());
}

TEST(IdSlots, PayloadsAndIdsFollowFirstInsertOrder) {
  IdSlots<std::string> slots;
  const std::vector<ObjectId> order = {900, 2, 40'000, 17, 3};
  for (const ObjectId id : order) slots[id] = std::to_string(id);
  // A repeat insert neither moves an id nor adds a slot.
  auto [existing, inserted] = slots.try_emplace(2);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(existing, "2");
  EXPECT_EQ(slots.ids(), order);
  std::vector<std::string> payloads(slots.begin(), slots.end());
  ASSERT_EQ(payloads.size(), order.size());
  for (std::size_t slot = 0; slot < order.size(); ++slot) {
    EXPECT_EQ(payloads[slot], std::to_string(order[slot]));
    EXPECT_EQ(slots.slot_of(order[slot]), slot);
  }
}

TEST(IdSlots, TryEmplaceValueInitialisesNewPayloads) {
  IdSlots<double> slots;
  auto [value, inserted] = slots.try_emplace(12);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(value, 0.0);
  value = 2.5;
  EXPECT_EQ(*slots.find(12), 2.5);
}

TEST(IdSlots, MatchesMapModelThroughGrowth) {
  // Random ids over a wide range, many repeats: every lookup agrees with
  // a std::map after each insert, across several rehashes.
  IdSlots<std::size_t> slots;
  std::map<ObjectId, std::size_t> model;
  Rng rng(2024);
  for (std::size_t step = 0; step < 5000; ++step) {
    const auto id = static_cast<ObjectId>(rng.uniform(0.0, 1.0) * 20'000.0);
    auto [value, inserted] = slots.try_emplace(id);
    EXPECT_EQ(inserted, model.count(id) == 0);
    value += step;
    model[id] += step;
    if (step % 97 == 0) {
      ASSERT_EQ(slots.size(), model.size());
      for (ObjectId probe = 0; probe < 20'000; probe += 13) {
        const auto it = model.find(probe);
        const std::size_t* found = slots.find(probe);
        if (it == model.end()) {
          EXPECT_EQ(found, nullptr) << probe;
        } else {
          ASSERT_NE(found, nullptr) << probe;
          EXPECT_EQ(*found, it->second) << probe;
        }
      }
    }
  }
  for (const auto& [id, value] : model) EXPECT_EQ(*slots.find(id), value);
}

TEST(IdSlots, SwitchesIndexWithDensity) {
  // Dense while the ids cover their span well, sparse once one far id
  // stretches the span past 16x the entries, dense again once the gap
  // fills to within 8x.  Every switch keeps every entry findable.
  IdSlots<ObjectId> slots;
  const auto expect_all = [&slots] {
    for (std::size_t slot = 0; slot < slots.ids().size(); ++slot) {
      const ObjectId id = slots.ids()[slot];
      ASSERT_NE(slots.find(id), nullptr) << id;
      EXPECT_EQ(*slots.find(id), id);
      EXPECT_EQ(slots.slot_of(id), slot);
    }
  };
  for (ObjectId id = 0; id < 100; ++id) slots[id] = id;
  EXPECT_TRUE(slots.dense());
  expect_all();
  slots[10'000] = 10'000;
  EXPECT_FALSE(slots.dense());
  EXPECT_EQ(slots.find(5'000), nullptr);
  expect_all();
  for (ObjectId id = 100; id < 2'600; ++id) slots[id] = id;
  EXPECT_TRUE(slots.dense());
  EXPECT_EQ(slots.find(5'000), nullptr);
  EXPECT_EQ(slots.find(10'001), nullptr);
  expect_all();
}

TEST(IdSlots, ClearThenReinsert) {
  IdSlots<int> slots;
  for (ObjectId id = 100; id < 200; ++id) slots[id] = 1;
  slots.clear();
  EXPECT_TRUE(slots.empty());
  EXPECT_EQ(slots.find(150), nullptr);
  EXPECT_TRUE(slots.ids().empty());
  slots[150] = 2;
  slots[7] = 3;
  EXPECT_EQ(slots.size(), 2u);
  EXPECT_EQ(*slots.find(150), 2);
  EXPECT_EQ(*slots.find(7), 3);
  EXPECT_EQ(slots.find(100), nullptr);
  EXPECT_EQ(slots.ids(), (std::vector<ObjectId>{150, 7}));
}

}  // namespace
}  // namespace broadway
