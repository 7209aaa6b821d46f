// Cache-model trace observer (ISSUE 5 tentpole).
//
// Drives the L1D/L2 hierarchy from the retired-instruction stream and
// attributes every demand access to the benchmark kernel that issued it
// through a KernelMap (DESIGN.md §10): one table load per retire. Reports
// per-kernel and whole-program hits/misses/MPKI, prefetch accuracy, and an
// order-independent digest of the set of cache lines each kernel touched —
// the E11 cross-ISA invariant compares those digests between RV64 and A64
// compilations of the same kernel (the data-address stream is a property
// of the algorithm, not the ISA). The simulation is MemoryPass's with only
// its cache-stats consumer on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "uarch/mem/memory_pass.hpp"

namespace riscmp::uarch::mem {

class CacheModelAnalyzer final : public TraceObserver {
 public:
  using KernelStats = CacheKernelStats;

  /// Kernel regions come from the program's symbol table (KernelMap:
  /// regions sharing a name aggregate). Throws ConfigError for
  /// invalid geometry and ValidationFault for overlapping kernel regions.
  CacheModelAnalyzer(const CacheConfig& config, const Program& program)
      : pass_(config, &program, {.cacheStats = true}) {}

  void onRetire(const RetiredInst& inst) override { pass_.onRetire(inst); }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    pass_.onRetireBlock(block);
  }

  [[nodiscard]] const std::vector<KernelStats>& kernels() const {
    return pass_.cacheKernels();
  }
  [[nodiscard]] const HierarchyStats& totals() const {
    return pass_.hierarchyStats();
  }
  [[nodiscard]] std::uint64_t instructions() const {
    return pass_.instructions();
  }
  [[nodiscard]] std::uint64_t footprintLines() const {
    return pass_.footprintLines();
  }
  /// Whole-program order-independent line-set digest (same construction
  /// as KernelStats::lineSetDigest).
  [[nodiscard]] std::uint64_t lineSetDigest() const {
    return pass_.lineSetDigest();
  }
  [[nodiscard]] double l1Mpki() const { return mpki(totals().l1Misses); }
  [[nodiscard]] double l2Mpki() const { return mpki(totals().l2Misses); }

  /// Clear caches, counters, and line sets; kernel regions are retained so
  /// the analyzer can observe a fresh run of the same program.
  void reset() { pass_.reset(); }

 private:
  [[nodiscard]] double mpki(std::uint64_t misses) const {
    return instructions() == 0 ? 0.0
                               : 1000.0 * static_cast<double>(misses) /
                                     static_cast<double>(instructions());
  }

  MemoryPass pass_;
};

}  // namespace riscmp::uarch::mem
