// Separate-table reference for DependencyChainAnalyzer: one critical-path
// and one dependency-distance retire loop, test-only. Each keeps its own
// register array and its own FlatHashMap64 keyed by 8-byte chunk, so it
// shares neither the Link layout nor the ChunkTable paging with the
// analyzer it checks.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>

#include "analysis/dependency_chain.hpp"
#include "support/flat_hash.hpp"
#include "support/stats.hpp"

namespace riscmp::testref {

/// 8-byte chunk range covered by an access.
inline std::pair<std::uint64_t, std::uint64_t> chunkRange(
    const MemAccess& access) {
  const std::uint64_t first = access.addr >> 3;
  const std::uint64_t last = (access.addr + access.size - 1) >> 3;
  return {first, last};
}

/// Critical path, unit (§4) or latency-scaled (§5).
class CriticalPathReference {
 public:
  explicit CriticalPathReference(const LatencyTable* latencies = nullptr)
      : latencies_(latencies != nullptr ? *latencies : unitLatencies()),
        scaled_(latencies != nullptr) {}

  void retire(std::span<const RetiredInst> trace) {
    for (const RetiredInst& inst : trace) retireOne(inst);
  }

  [[nodiscard]] std::uint64_t criticalPath() const { return maxDepth_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }

 private:
  void retireOne(const RetiredInst& inst) {
    ++instructions_;

    std::uint64_t depth = 0;
    for (const Reg& reg : inst.srcs) {
      depth = std::max(depth, regDepth_[reg.dense()]);
    }
    for (const MemAccess& access : inst.loads) {
      const auto [first, last] = chunkRange(access);
      for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
        if (const std::uint64_t* found = memDepth_.find(chunk)) {
          depth = std::max(depth, *found);
        }
      }
    }

    // Loads and stores are never scaled (§5.1: store forwarding assumed).
    const bool isMem = !inst.loads.empty() || !inst.stores.empty();
    const std::uint64_t cost =
        (scaled_ && !isMem)
            ? latencies_[static_cast<std::size_t>(inst.group)]
            : 1;
    depth += cost;

    for (const Reg& reg : inst.dsts) {
      regDepth_[reg.dense()] = depth;
    }
    for (const MemAccess& access : inst.stores) {
      const auto [first, last] = chunkRange(access);
      for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
        memDepth_.assign(chunk, depth);
      }
    }
    maxDepth_ = std::max(maxDepth_, depth);
  }

  std::array<std::uint64_t, Reg::kDenseCount> regDepth_{};
  FlatHashMap64<std::uint64_t> memDepth_;
  LatencyTable latencies_;
  bool scaled_;
  std::uint64_t maxDepth_ = 0;
  std::uint64_t instructions_ = 0;
};

/// Producer->consumer distances through registers and memory.
class DependencyDistanceReference {
 public:
  static constexpr std::size_t kBuckets = DependencyChainAnalyzer::kBuckets;

  void retire(std::span<const RetiredInst> trace) {
    for (const RetiredInst& inst : trace) retireOne(inst);
  }

  [[nodiscard]] double meanDistance() const { return stats_.mean(); }
  [[nodiscard]] std::uint64_t dependencies() const { return stats_.count(); }
  [[nodiscard]] std::uint64_t instructions() const { return retired_; }
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& histogram() const {
    return histogram_;
  }

  [[nodiscard]] double fractionWithin(std::uint64_t window) const {
    if (stats_.count() == 0) return 0.0;
    std::uint64_t within = 0;
    std::uint64_t total = 0;
    for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
      total += histogram_[bucket];
      if ((std::uint64_t{1} << (bucket + 1)) - 1 <= window) {
        within += histogram_[bucket];
      }
    }
    return total == 0 ? 0.0
                      : static_cast<double>(within) /
                            static_cast<double>(total);
  }

 private:
  void record(std::uint64_t producerIndex) {
    const std::uint64_t distance = retired_ - producerIndex;
    if (distance == 0) return;
    stats_.add(static_cast<double>(distance));
    const auto bucket =
        static_cast<std::size_t>(std::bit_width(distance) - 1);
    ++histogram_[bucket < kBuckets ? bucket : kBuckets - 1];
  }

  void retireOne(const RetiredInst& inst) {
    for (const Reg& reg : inst.srcs) {
      const unsigned dense = reg.dense();
      if (regWritten_[dense]) record(regWriter_[dense]);
    }
    for (const MemAccess& access : inst.loads) {
      const auto [first, last] = chunkRange(access);
      for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
        if (const std::uint64_t* writer = memWriter_.find(chunk)) {
          record(*writer);
        }
      }
    }

    for (const Reg& reg : inst.dsts) {
      const unsigned dense = reg.dense();
      regWriter_[dense] = retired_;
      regWritten_[dense] = true;
    }
    for (const MemAccess& access : inst.stores) {
      const auto [first, last] = chunkRange(access);
      for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
        memWriter_.assign(chunk, retired_);
      }
    }
    ++retired_;
  }

  std::array<std::uint64_t, Reg::kDenseCount> regWriter_{};
  std::array<bool, Reg::kDenseCount> regWritten_{};
  FlatHashMap64<std::uint64_t> memWriter_;
  std::array<std::uint64_t, kBuckets> histogram_{};
  RunningStats stats_;
  std::uint64_t retired_ = 0;
};

}  // namespace riscmp::testref
