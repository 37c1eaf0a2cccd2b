#include "net/node_store.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

namespace imobif::net {
namespace {

// Mirrors Column<T>::kChunk (private); a static_assert-style guard lives
// in ChunkBoundarySlotAllocation below — if the chunk size ever changes,
// the boundary expectations there fail loudly rather than silently
// testing the middle of a chunk.
constexpr std::size_t kChunk = 4096;

geom::Vec2 pos_for(std::size_t i) {
  return {static_cast<double>(i), static_cast<double>(2 * i)};
}

TEST(NodeStore, ChunkBoundarySlotAllocation) {
  NodeStore store;
  for (std::size_t i = 0; i < kChunk; ++i) {
    const NodeStore::Index idx = store.add(pos_for(i), util::Joules{1.0});
    EXPECT_EQ(idx, i);
  }
  ASSERT_EQ(store.size(), kChunk);

  // The next add() is the first slot of chunk 1: its cell must live in
  // fresh storage, not overrun chunk 0's last slot.
  const NodeStore::Index first_of_next = store.add(pos_for(kChunk),
                                                   util::Joules{2.0});
  ASSERT_EQ(first_of_next, kChunk);
  geom::Vec2* last_of_chunk0 = store.position_cell(kChunk - 1);
  geom::Vec2* first_of_chunk1 = store.position_cell(first_of_next);
  EXPECT_NE(last_of_chunk0, first_of_chunk1);
  EXPECT_EQ(store.position(kChunk - 1).x, pos_for(kChunk - 1).x);
  EXPECT_EQ(store.position(first_of_next).x, pos_for(kChunk).x);
  EXPECT_EQ(store.residual(first_of_next).value(), 2.0);

  // Within a chunk the column is contiguous; across the boundary it is
  // not required to be — but both cells must be readable and distinct.
  EXPECT_EQ(store.position_cell(1) - store.position_cell(0), 1);
}

TEST(NodeStore, PointerStabilityAcrossGrowth) {
  NodeStore store;
  store.add(pos_for(0), util::Joules{10.0});
  geom::Vec2* p0 = store.position_cell(0);
  util::Joules* r0 = store.residual_cell(0);

  // Growing across several chunk boundaries must not move handed-out
  // cells (Nodes and Batteries hold them for the store's lifetime).
  std::vector<geom::Vec2*> sampled;
  for (std::size_t i = 1; i < 3 * kChunk + 5; ++i) {
    store.add(pos_for(i), util::Joules{1.0});
    if (i % kChunk == 0) sampled.push_back(store.position_cell(i));
  }
  EXPECT_EQ(store.position_cell(0), p0);
  EXPECT_EQ(store.residual_cell(0), r0);
  for (std::size_t s = 0; s < sampled.size(); ++s) {
    EXPECT_EQ(store.position_cell((s + 1) * kChunk), sampled[s]);
  }

  // Writes through a stale-looking pointer land in the store.
  *p0 = {-7.0, -8.0};
  *r0 = util::Joules{3.5};
  EXPECT_EQ(store.position(0).x, -7.0);
  EXPECT_EQ(store.residual(0).value(), 3.5);
}

}  // namespace
}  // namespace imobif::net
