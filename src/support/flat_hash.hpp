// A minimal open-addressing hash map for the analysis hot paths.
//
// The trace analyses keep state keyed by 64-bit ids: the page index of
// ChunkTable (whose pages hold the per-8-byte-chunk dependency depths and
// writers), the windowed-CP chunk writers, the out-of-order core's memory
// readiness cycles, and the cache and memory-system line and page sets.
// They only ever need find and insert-or-assign — no erase, no iteration —
// but they perform those operations once or more per retired instruction,
// where std::unordered_map's per-node allocation and pointer chasing would
// dominate the simulator's end-to-end throughput. This map stores slots
// inline in one power-of-two array with linear probing (multiplicative
// hashing spreads sequential ids), so the common hit is one probe into one
// cache line and inserts never allocate until the 0.7 load factor forces a
// rehash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace riscmp {

/// Hash map from std::uint64_t keys to `Value`, open addressing + linear
/// probing. Supports find / insert-or-assign / clear only (the operations
/// the retire-path analyses need); erase is intentionally absent so probe
/// chains never need tombstones.
template <typename Value>
class FlatHashMap64 {
 public:
  FlatHashMap64() { rehash(kInitialCapacity); }

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] const Value* find(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (!slot.used) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// Insert `key` with `value`, overwriting any existing entry.
  void assign(std::uint64_t key, const Value& value) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        slot.used = true;
        slot.key = key;
        slot.value = value;
        if (++size_ * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
        return;
      }
      if (slot.key == key) {
        slot.value = value;
        return;
      }
    }
  }

  /// Value for `key`, inserting `fallback` first when absent.
  Value& findOrInsert(std::uint64_t key, const Value& fallback) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = indexOf(key);; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (!slot.used) {
        slot.used = true;
        slot.key = key;
        slot.value = fallback;
        if (++size_ * 10 >= slots_.size() * 7) {
          rehash(slots_.size() * 2);
          return *const_cast<Value*>(find(key));
        }
        return slot.value;
      }
      if (slot.key == key) return slot.value;
    }
  }

  void clear() {
    for (Slot& slot : slots_) slot.used = false;
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  static constexpr std::size_t kInitialCapacity = 64;

  struct Slot {
    std::uint64_t key = 0;
    Value value{};
    bool used = false;
  };

  [[nodiscard]] std::size_t indexOf(std::uint64_t key) const {
    // Fibonacci (multiplicative) hashing: sequential chunk ids land in
    // well-spread slots, keeping linear probe chains short.
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(capacity, Slot{});
    shift_ = 64;
    while ((std::size_t{1} << (64 - shift_)) < capacity) --shift_;
    size_ = 0;
    for (const Slot& slot : old) {
      if (slot.used) assign(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace riscmp
