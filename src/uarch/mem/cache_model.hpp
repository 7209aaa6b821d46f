// Block-batched cache-model trace observer (ISSUE 5 tentpole).
//
// Drives a MemoryHierarchy from the retired-instruction stream and
// attributes every demand access to the benchmark kernel that issued it
// through a KernelMap (DESIGN.md §10): one table load per retire. Reports
// per-kernel and whole-program hits/misses/MPKI, prefetch accuracy, and an
// order-independent digest of the set of cache lines each kernel touched —
// the E11 cross-ISA invariant compares those digests between RV64 and A64
// compilations of the same kernel (the data-address stream is a property
// of the algorithm, not the ISA).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/kernel_map.hpp"
#include "isa/trace.hpp"
#include "support/footprint_set.hpp"
#include "uarch/mem/hierarchy.hpp"

namespace riscmp::uarch::mem {

class CacheModelAnalyzer final : public TraceObserver {
 public:
  /// Kernel regions come from the program's symbol table (KernelMap:
  /// regions sharing a name aggregate). Throws ConfigError for
  /// invalid geometry and ValidationFault for overlapping kernel regions.
  CacheModelAnalyzer(const CacheConfig& config, const Program& program);

  void onRetire(const RetiredInst& inst) override;
  void onRetireBlock(std::span<const RetiredInst> block) override;

  /// Per-kernel demand-traffic summary. Digests are order-independent
  /// (commutative sums over hashed line numbers), so two runs touching the
  /// same line set in different orders — or interleaved differently by
  /// prefetching — compare equal.
  struct KernelStats {
    std::string name;
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t footprintLines = 0;   ///< distinct lines touched
    std::uint64_t lineSetDigest = 0;    ///< order-independent set digest

    [[nodiscard]] double l1Mpki() const {
      return instructions == 0 ? 0.0
                               : 1000.0 * static_cast<double>(l1Misses) /
                                     static_cast<double>(instructions);
    }
    [[nodiscard]] double l2Mpki() const {
      return instructions == 0 ? 0.0
                               : 1000.0 * static_cast<double>(l2Misses) /
                                     static_cast<double>(instructions);
    }
  };

  [[nodiscard]] const std::vector<KernelStats>& kernels() const {
    return kernels_;
  }
  [[nodiscard]] const HierarchyStats& totals() const {
    return hierarchy_.stats();
  }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] std::uint64_t footprintLines() const {
    return footprintLines_;
  }
  /// Whole-program order-independent line-set digest (same construction
  /// as KernelStats::lineSetDigest).
  [[nodiscard]] std::uint64_t lineSetDigest() const { return lineSetDigest_; }
  [[nodiscard]] double l1Mpki() const {
    return instructions_ == 0
               ? 0.0
               : 1000.0 * static_cast<double>(totals().l1Misses) /
                     static_cast<double>(instructions_);
  }
  [[nodiscard]] double l2Mpki() const {
    return instructions_ == 0
               ? 0.0
               : 1000.0 * static_cast<double>(totals().l2Misses) /
                     static_cast<double>(instructions_);
  }

  /// Clear caches, counters, and line sets; kernel regions are retained so
  /// the analyzer can observe a fresh run of the same program.
  void reset();

 private:
  void retireOne(const RetiredInst& inst);
  void recordLines(std::uint64_t addr, std::uint32_t size,
                   std::int32_t kernel);

  MemoryHierarchy hierarchy_;
  std::uint64_t instructions_ = 0;
  std::uint64_t footprintLines_ = 0;
  std::uint64_t lineSetDigest_ = 0;

  KernelMap kernelMap_;
  std::vector<KernelStats> kernels_;
  /// Line sets behind footprintLines/lineSetDigest: one per kernel, plus
  /// one whole-program set at index kernels_.size().
  std::vector<FootprintSet> lineSets_;
};

}  // namespace riscmp::uarch::mem
