// Memory-system analyzer (ISSUE 10 tentpole): TLBs, finite MSHRs with a
// peak-bandwidth occupancy model, and a shared-L2 multi-core contention
// model, driven from the retired-instruction stream in one pass.
//
// Three layers on top of the ISSUE 5 hierarchy:
//
//  1. A two-level data TLB (uarch/mem/tlb.hpp) translating every demand
//     access, with per-kernel walk attribution and order-independent
//     page-set digests extending the E11 cross-ISA identity argument from
//     line sets to page sets.
//  2. Occupancy bounds over the single-core demand+prefetch traffic: with
//     M MSHRs at most M misses overlap, so cycles >= missCycles / M; with
//     a peak memory bandwidth of B bytes/cycle, cycles >= bytesMoved / B
//     (fills *and* prefetch fills *and* write-backs move bytes). The
//     engine reports both so a bench can name the binding resource in
//     max(CP, port, issue, MSHR, bandwidth).
//  3. A shared-L2 scaling model: N simulated cores with private L1s and a
//     shared L2, fed by round-robin interleaving N copies of the retired
//     stream at disjoint address offsets (the deterministic equivalent of
//     N per-core Machines running the same kernel — see DESIGN.md §16).
//     Per-core hit/miss/latency attribution opens 1/2/4-core scaling
//     curves with an exact miss-conservation invariant.
//
// Like every analyzer in this repo the model is a pure timing/tag layer:
// it never changes architectural state, and all counters are deterministic
// functions of the retired stream. The simulation is MemoryPass's with
// only its memory-system consumer on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "uarch/mem/memory_pass.hpp"

namespace riscmp::uarch::mem {

class MemSystemAnalyzer final : public TraceObserver {
 public:
  /// `coreCounts` selects the shared-L2 scaling points (e.g. {1, 2, 4});
  /// duplicates and zeros are ignored. Kernel regions come from the
  /// program's symbol table (KernelMap). Throws ConfigError for invalid
  /// geometry or, with a scaling point, more L1D sets than
  /// kCoreOffsetLines; throws ValidationFault for overlapping kernel
  /// regions. A missing `config.tlb` falls back to TlbConfig{} defaults so
  /// page-set digests are always defined.
  MemSystemAnalyzer(const CacheConfig& config, const Program& program,
                    std::span<const unsigned> coreCounts)
      : pass_(config, &program,
              {.memSystem = true, .coreCounts = coreCounts}) {}

  void onRetire(const RetiredInst& inst) override { pass_.onRetire(inst); }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    pass_.onRetireBlock(block);
  }

  /// Finalized summary with the occupancy bounds computed from the
  /// current counters (cheap; callable at any point).
  [[nodiscard]] MemSummary summary() const { return pass_.memSummary(); }
  [[nodiscard]] const std::vector<MemKernelStats>& kernels() const {
    return pass_.memKernels();
  }
  /// Scaling points in the ctor's coreCounts order, bounds filled in.
  [[nodiscard]] std::vector<ScalingPoint> scaling() const {
    return pass_.scaling();
  }
  [[nodiscard]] const HierarchyStats& hierarchyTotals() const {
    return pass_.hierarchyStats();
  }
  [[nodiscard]] std::uint64_t instructions() const {
    return pass_.instructions();
  }

  /// Clear TLBs, caches, counters, and page sets; kernel regions and the
  /// configured core counts are retained.
  void reset() { pass_.reset(); }

 private:
  MemoryPass pass_;
};

}  // namespace riscmp::uarch::mem
