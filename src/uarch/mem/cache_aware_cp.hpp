// Memory-aware scaled critical path (ISSUE 5 tentpole).
//
// The paper's scaled CP (§5.1) charges every non-memory instruction its
// core-model latency and leaves loads and stores at one cycle under the
// store-forwarding assumption — a flat memory system. This analyzer is the
// new memory-aware mode layered beside it (the flat mode stays the
// default, and its Table 2 numbers are bit-for-bit unaffected): the chain
// arithmetic is identical, except that each load contributes its *dynamic*
// latency — L1 hit, L2 hit, or memory — from the L1D/L2 hierarchy driven
// by the same retired-instruction stream. Stores keep cost 1 (forwarded
// from the store buffer) but still update cache state, since a written
// line is a later hit.
//
// The analyzer is MemoryPass with only its cache-aware CP consumer on. The
// engine instead attaches one MemoryPass per cell, whose single hierarchy
// also feeds the E11 cache stats and the E14 memory system.
#pragma once

#include <cstdint>
#include <span>

#include "analysis/critical_path.hpp"  // LatencyTable
#include "uarch/mem/memory_pass.hpp"

namespace riscmp::uarch::mem {

class CacheAwareCpAnalyzer final : public TraceObserver {
 public:
  /// Throws ConfigError when the cache geometry is invalid.
  CacheAwareCpAnalyzer(const LatencyTable& latencies,
                       const CacheConfig& config)
      : pass_(config, nullptr, {.cpLatencies = &latencies}) {}

  void onRetire(const RetiredInst& inst) override { pass_.onRetire(inst); }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    pass_.onRetireBlock(block);
  }

  [[nodiscard]] std::uint64_t criticalPath() const {
    return pass_.criticalPath();
  }
  [[nodiscard]] std::uint64_t instructions() const {
    return pass_.instructions();
  }
  [[nodiscard]] double ilp() const {
    return criticalPath() == 0 ? 0.0
                               : static_cast<double>(instructions()) /
                                     static_cast<double>(criticalPath());
  }
  [[nodiscard]] double runtimeSeconds(double clockHz = 2e9) const {
    return static_cast<double>(criticalPath()) / clockHz;
  }
  [[nodiscard]] const HierarchyStats& cacheStats() const {
    return pass_.hierarchyStats();
  }

  /// Clear chain state and cache contents for a fresh trace; the latency
  /// table and geometry are retained.
  void reset() { pass_.reset(); }

 private:
  MemoryPass pass_;
};

}  // namespace riscmp::uarch::mem
