// Memory-aware scaled critical path (ISSUE 5 tentpole).
//
// The paper's scaled CP (§5.1) charges every non-memory instruction its
// core-model latency and leaves loads and stores at one cycle under the
// store-forwarding assumption — a flat memory system. This analyzer is the
// new memory-aware mode layered beside it (the flat mode stays the
// default, and its Table 2 numbers are bit-for-bit unaffected): the chain
// arithmetic is identical, except that each load contributes its *dynamic*
// latency — L1 hit, L2 hit, or memory — from a private MemoryHierarchy
// driven by the same retired-instruction stream. Stores keep cost 1
// (forwarded from the store buffer) but still update cache state, since a
// written line is a later hit.
//
// The analyzer owns its hierarchy instead of sharing the MPKI observer's:
// observers are independent by contract (isa/trace.hpp), and two
// hierarchies fed the same trace behave identically, so no cross-observer
// ordering is needed.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "analysis/critical_path.hpp"  // LatencyTable
#include "isa/trace.hpp"
#include "support/chunk_table.hpp"
#include "uarch/mem/hierarchy.hpp"

namespace riscmp::uarch::mem {

class CacheAwareCpAnalyzer final : public TraceObserver {
 public:
  /// Throws ConfigError when the cache geometry is invalid.
  CacheAwareCpAnalyzer(const LatencyTable& latencies,
                       const CacheConfig& config);

  void onRetire(const RetiredInst& inst) override;
  void onRetireBlock(std::span<const RetiredInst> block) override;

  [[nodiscard]] std::uint64_t criticalPath() const { return maxDepth_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] double ilp() const {
    return maxDepth_ == 0 ? 0.0
                          : static_cast<double>(instructions_) /
                                static_cast<double>(maxDepth_);
  }
  [[nodiscard]] double runtimeSeconds(double clockHz = 2e9) const {
    return static_cast<double>(maxDepth_) / clockHz;
  }
  [[nodiscard]] const HierarchyStats& cacheStats() const {
    return hierarchy_.stats();
  }

  /// Clear chain state and cache contents for a fresh trace; the latency
  /// table and geometry are retained.
  void reset();

 private:
  void retireOne(const RetiredInst& inst);

  MemoryHierarchy hierarchy_;
  std::array<std::uint64_t, Reg::kDenseCount> regDepth_{};
  ChunkTable<std::uint64_t> memDepth_;
  LatencyTable latencies_;
  std::uint64_t maxDepth_ = 0;
  std::uint64_t instructions_ = 0;
};

}  // namespace riscmp::uarch::mem
