// Paged table of per-memory-chunk state for the retire-path analyses.
//
// The dependency analyses keep state per 8-byte memory chunk (address >> 3):
// the depth of the chain that last wrote it, or its writer's retire index.
// Workload accesses are dense and mostly sequential, so instead of hashing
// every chunk id this table groups chunks into pages of 512 (4 KiB of
// address space): a FlatHashMap64 maps the page number (chunk >> 9) to a
// block of 512 values, and the page looked up last is memoised. A
// sequential sweep then costs one hash lookup per 512 chunks and touches
// contiguous memory. Any 64-bit chunk id is accepted.
//
// A chunk that was never assigned reads as `Value{}` once its page exists,
// so callers must give `Value{}` the meaning "no state" (depth 0, no
// writer), which is what the analyses' absent-key case meant before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/flat_hash.hpp"

namespace riscmp {

template <typename Value>
class ChunkTable {
 public:
  /// Value at `chunk`, or nullptr when no chunk of its page was assigned.
  [[nodiscard]] const Value* find(std::uint64_t chunk) const {
    const Value* block = blockOf(chunk >> kPageBits);
    return block == nullptr ? nullptr : block + (chunk & (kPageChunks - 1));
  }

  /// Value at `chunk` for assignment; its page is created (every value
  /// `Value{}`) on first use.
  Value& operator[](std::uint64_t chunk) {
    const std::uint64_t page = chunk >> kPageBits;
    Value* block = blockOf(page);
    if (block == nullptr) {
      blocks_.push_back(std::make_unique<Value[]>(kPageChunks));
      block = blocks_.back().get();
      pageIndex_.assign(page, static_cast<std::uint32_t>(blocks_.size() - 1));
      lastPage_ = page;
      lastBlock_ = block;
    }
    return block[chunk & (kPageChunks - 1)];
  }

  /// Forget every value and release the pages.
  void clear() {
    pageIndex_.clear();
    blocks_.clear();
    lastPage_ = kNoPage;
    lastBlock_ = nullptr;
  }

 private:
  static constexpr unsigned kPageBits = 9;
  static constexpr std::size_t kPageChunks = std::size_t{1} << kPageBits;
  // Page numbers are at most 2^55 - 1, so this never names a real page.
  static constexpr std::uint64_t kNoPage = ~std::uint64_t{0};

  /// Block of `page`, or nullptr when absent; misses are memoised too,
  /// since loads of never-stored data repeat them chunk after chunk.
  Value* blockOf(std::uint64_t page) const {
    if (page != lastPage_) {
      const std::uint32_t* index = pageIndex_.find(page);
      lastPage_ = page;
      lastBlock_ = index == nullptr ? nullptr : blocks_[*index].get();
    }
    return lastBlock_;
  }

  FlatHashMap64<std::uint32_t> pageIndex_;
  std::vector<std::unique_ptr<Value[]>> blocks_;
  mutable std::uint64_t lastPage_ = kNoPage;
  mutable Value* lastBlock_ = nullptr;
};

}  // namespace riscmp
