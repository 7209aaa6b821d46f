#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>

#include "support/chunk_table.hpp"

namespace riscmp {
namespace {

TEST(ChunkTable, AbsentPageReadsNullAndAssignedPageReadsZeroElsewhere) {
  ChunkTable<std::uint64_t> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(~std::uint64_t{0}), nullptr);
  table[513] = 7;  // page 1
  ASSERT_NE(table.find(513), nullptr);
  EXPECT_EQ(*table.find(513), 7u);
  ASSERT_NE(table.find(1023), nullptr);  // same page, never assigned
  EXPECT_EQ(*table.find(1023), 0u);
  EXPECT_EQ(table.find(511), nullptr);   // page 0
  EXPECT_EQ(table.find(1024), nullptr);  // page 2
}

// A miss is memoised; creating that page afterwards must replace the memo.
TEST(ChunkTable, PageCreatedAfterAMissIsFound) {
  ChunkTable<std::uint64_t> table;
  EXPECT_EQ(table.find(5000), nullptr);
  table[5001] = 3;
  ASSERT_NE(table.find(5000), nullptr);
  EXPECT_EQ(*table.find(5001), 3u);
}

TEST(ChunkTable, ClearForgetsEveryPage) {
  ChunkTable<std::uint64_t> table;
  table[1] = 1;
  table[1u << 20] = 2;
  table.clear();
  EXPECT_EQ(table.find(1), nullptr);
  EXPECT_EQ(table.find(1u << 20), nullptr);
  table[1] = 4;
  EXPECT_EQ(*table.find(1), 4u);
}

TEST(ChunkTable, MatchesUnorderedMapOverTheWholeKeyRange) {
  ChunkTable<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  std::mt19937_64 rng(7);
  const std::uint64_t bases[] = {0, 511, 1u << 30, ~std::uint64_t{0} - 2000};
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t key = bases[rng() % 4] + rng() % 1500;
    if (rng() % 2 == 0) {
      const std::uint64_t value = 1 + rng() % 1000;
      table[key] = value;
      model[key] = value;
    } else {
      const std::uint64_t* found = table.find(key);
      const auto want = model.find(key);
      EXPECT_EQ(found == nullptr ? 0 : *found,
                want == model.end() ? 0 : want->second)
          << "key " << key;
    }
  }
}

}  // namespace
}  // namespace riscmp
