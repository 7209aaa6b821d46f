#include "uarch/mem/cache.hpp"

#include <algorithm>

namespace riscmp::uarch::mem {
namespace {

constexpr std::size_t npos = ~std::size_t{0};

}  // namespace

Cache::Cache(std::uint32_t sets, std::uint32_t ways)
    : sets_(sets), ways_(ways) {
  const std::size_t size = static_cast<std::size_t>(sets_) * ways_;
  lines_.resize(size);
  lastUse_.resize(size);
  flags_.resize(size);
}

std::size_t Cache::find(std::uint64_t line) const {
  const std::size_t base = setBase(line);
  for (std::size_t way = base; way < base + ways_; ++way) {
    if (lines_[way] == line && lastUse_[way] != 0) return way;
  }
  return npos;
}

Cache::Lookup Cache::access(std::uint64_t line, bool write) {
  const std::size_t way = find(line);
  if (way == npos) return {};
  Lookup lookup;
  lookup.hit = true;
  lookup.firstUseOfPrefetch = (flags_[way] & kPrefetched) != 0;
  // Only the first demand touch scores a prefetch.
  flags_[way] = static_cast<std::uint8_t>((flags_[way] & ~kPrefetched) |
                                          (write ? kDirty : 0));
  lastUse_[way] = ++tick_;
  return lookup;
}

Cache::Eviction Cache::fill(std::uint64_t line, bool dirty, bool prefetched) {
  // The LRU way; a never-filled way has stamp 0, so the first of those
  // goes first.
  const std::size_t base = setBase(line);
  const std::size_t victim = static_cast<std::size_t>(
      std::min_element(lastUse_.begin() + base,
                       lastUse_.begin() + base + ways_) -
      lastUse_.begin());

  Eviction eviction;
  if (lastUse_[victim] != 0) {
    eviction.valid = true;
    eviction.dirty = (flags_[victim] & kDirty) != 0;
    eviction.line = lines_[victim];
  }
  lines_[victim] = line;
  flags_[victim] = static_cast<std::uint8_t>((dirty ? kDirty : 0) |
                                             (prefetched ? kPrefetched : 0));
  lastUse_[victim] = ++tick_;
  return eviction;
}

bool Cache::contains(std::uint64_t line) const { return find(line) != npos; }

void Cache::reset() {
  std::fill(lines_.begin(), lines_.end(), 0);
  std::fill(lastUse_.begin(), lastUse_.end(), 0);
  std::fill(flags_.begin(), flags_.end(), 0);
  tick_ = 0;
}

}  // namespace riscmp::uarch::mem
