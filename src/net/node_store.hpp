// NodeStore: struct-of-arrays storage for the hot per-node simulation
// state — position and residual energy (DESIGN.md §12).
//
// At 10^5-10^6 nodes the Node objects themselves (neighbor tables, flow
// tables, service bindings) are too large to stream through the cache on
// the hot paths that only need a position or a residual-energy reading.
// The store keeps exactly those fields in dense per-field columns, and
// Node binds its accessors to its slot at construction, so the public Node
// API reads and writes the columns directly.
//
// Columns are chunked (fixed-size blocks, never reallocated) so a cell
// pointer handed out to a Node or a Battery stays valid as the store
// grows. Slot indices are the dense NodeIds the Network assigns. Every
// Node requires a slot: there is no inline fallback.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "geom/vec2.hpp"
#include "util/units.hpp"

namespace imobif::net {

// snap:transient(SoA mirror refilled by the node-restore loop)
class NodeStore {
 public:
  using Index = std::uint32_t;

  /// Appends a slot; indices are dense from 0 in insertion order (the
  /// Network keeps them equal to NodeIds).
  Index add(geom::Vec2 position, util::Joules residual);

  std::size_t size() const { return count_; }
  bool has(Index i) const { return i < count_; }

  /// Stable cell pointers — valid for the lifetime of the store, across
  /// any number of add() calls.
  geom::Vec2* position_cell(Index i) { return &positions_.at(i); }
  util::Joules* residual_cell(Index i) { return &residuals_.at(i); }

  geom::Vec2 position(Index i) const { return positions_.at(i); }
  util::Joules residual(Index i) const { return residuals_.at(i); }

  /// Heap bytes held by the columns (scale accounting: bytes/node).
  std::size_t approx_bytes() const;

 private:
  /// Append-only column in fixed-size chunks: cell addresses never move.
  // snap:transient(SoA column storage, refilled via the owning store)
  template <typename T>
  class Column {
   public:
    static constexpr std::size_t kChunk = 4096;

    T& at(Index i) { return chunks_[i / kChunk]->data[i % kChunk]; }
    const T& at(Index i) const { return chunks_[i / kChunk]->data[i % kChunk]; }

    void push_back(T value) {
      const std::size_t slot = size_ % kChunk;
      if (slot == 0) chunks_.push_back(std::make_unique<Chunk>());
      chunks_.back()->data[slot] = value;
      ++size_;
    }

    std::size_t approx_bytes() const {
      return chunks_.size() * sizeof(Chunk) +
             chunks_.capacity() * sizeof(std::unique_ptr<Chunk>);
    }

   private:
    struct Chunk {
      T data[kChunk];
    };
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::size_t size_ = 0;
  };

  Column<geom::Vec2> positions_;
  Column<util::Joules> residuals_;
  std::size_t count_ = 0;
};

}  // namespace imobif::net
