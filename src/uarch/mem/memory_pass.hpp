// One memory pass per retired-instruction stream (DESIGN.md §16).
//
// The E11 cache model, the memory-aware critical path and the E14 memory
// system all ask what the same L1D/L2 hierarchy does with the same demand
// stream. MemoryPass runs that hierarchy, its prefetcher and the TLB once
// per access — loads, then stores, per instruction — and feeds each
// access's outcome to whichever consumers are enabled:
//
//  * cache stats: per-kernel demand traffic and order-independent
//    line-set digests (E11);
//  * cache-aware CP: the chain arithmetic of the §5.1 scaled CP with each
//    load charged its dynamic L1/L2/memory latency;
//  * memory system: TLB walks and page-set digests, the MSHR/bandwidth
//    occupancy bounds over the single-core traffic, and the shared-L2
//    scaling points (E14).
//
// The shared-L2 model gives every simulated core a private demand-only L1
// over one shared L2. Core c sees line + c·kCoreOffsetLines, so its L1
// holds exactly core 0's lines shifted by that offset: with the set count
// dividing the offset, a shifted line keeps its set index, and LRU order
// within a set does not depend on the tick base, so every core's L1 hits,
// misses and dirty victims are core 0's, shifted. No L2 event reaches an
// L1 (non-inclusive, no back-invalidation). The pass therefore simulates
// one demand-only L1 per line access and drives each scaling point's L2
// with the N shifted streams in the round-robin core order.
//
// CacheModelAnalyzer, CacheAwareCpAnalyzer and MemSystemAnalyzer are
// standalone configurations of this class; the engine attaches one pass
// with every consumer its cell needs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/dependency_chain.hpp"  // LatencyTable
#include "core/kernel_map.hpp"
#include "isa/trace.hpp"
#include "support/chunk_table.hpp"
#include "support/footprint_set.hpp"
#include "uarch/mem/hierarchy.hpp"
#include "uarch/mem/tlb.hpp"

namespace riscmp::uarch::mem {

/// Line-number offset separating simulated cores' address spaces (1 GiB
/// at 64 B lines): each core runs the same kernel over its own arena, so
/// the shared L2 sees capacity/conflict contention between disjoint
/// working sets rather than artificial sharing.
inline constexpr std::uint64_t kCoreOffsetLines = std::uint64_t{1} << 24;

/// Per-kernel demand-traffic summary (E11). Digests are order-independent
/// (commutative sums over hashed line numbers), so two runs touching the
/// same line set in different orders — or interleaved differently by
/// prefetching — compare equal.
struct CacheKernelStats {
  std::string name;
  std::uint64_t instructions = 0;
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t l1Misses = 0;
  std::uint64_t l2Misses = 0;
  std::uint64_t footprintLines = 0;   ///< distinct lines touched
  std::uint64_t lineSetDigest = 0;    ///< order-independent set digest

  bool operator==(const CacheKernelStats&) const = default;

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

/// Per-kernel translation traffic and page-set identity (the page-set
/// analogue of CacheKernelStats).
struct MemKernelStats {
  std::string name;
  std::uint64_t instructions = 0;
  std::uint64_t tlbAccesses = 0;
  std::uint64_t tlbWalks = 0;
  std::uint64_t footprintPages = 0;  ///< distinct pages touched
  std::uint64_t pageSetDigest = 0;   ///< order-independent set digest

  bool operator==(const MemKernelStats&) const = default;
};

/// One simulated core's share of a shared-L2 scaling point.
struct CoreShare {
  std::uint64_t accesses = 0;  ///< demand line accesses
  std::uint64_t l1Misses = 0;
  std::uint64_t l2Hits = 0;
  std::uint64_t l2Misses = 0;
  std::uint64_t latencyCycles = 0;  ///< summed per-access latency

  bool operator==(const CoreShare&) const = default;
};

/// Shared-L2 contention outcome for one core count. The shared counters
/// are accumulated inside the shared-L2 path independently of the
/// per-core shares, so sum(perCore.l1Misses) == sharedL2Accesses and
/// sum(perCore.l2Misses) == sharedL2Misses are non-vacuous conservation
/// checks (E14 asserts both).
struct ScalingPoint {
  std::uint32_t cores = 1;
  std::vector<CoreShare> perCore;
  std::uint64_t sharedL2Accesses = 0;
  std::uint64_t sharedL2Hits = 0;
  std::uint64_t sharedL2Misses = 0;
  std::uint64_t sharedWritebacksToMem = 0;
  std::uint64_t bytesFromMem = 0;  ///< fills + write-backs, in bytes
  std::uint64_t bandwidthBoundCycles = 0;
  std::uint64_t mshrBoundCycles = 0;

  bool operator==(const ScalingPoint&) const = default;
};

/// Whole-program memory-system summary: TLB totals, page-set identity,
/// bytes moved, and the two single-core occupancy bounds.
struct MemSummary {
  TlbStats tlb;
  std::uint64_t footprintPages = 0;
  std::uint64_t pageSetDigest = 0;
  std::uint64_t demandFillBytes = 0;    ///< demand L2 misses x line size
  std::uint64_t prefetchFillBytes = 0;  ///< prefetch fills x line size
  std::uint64_t writebackBytes = 0;     ///< dirty spills to memory x line size
  std::uint64_t missCycles = 0;  ///< serialized L1-miss latency, no overlap
  std::uint64_t mshrBoundCycles = 0;       ///< ceil(missCycles / mshrs)
  std::uint64_t bandwidthBoundCycles = 0;  ///< ceil(totalBytes / B)

  bool operator==(const MemSummary&) const = default;

  [[nodiscard]] std::uint64_t totalBytes() const {
    return demandFillBytes + prefetchFillBytes + writebackBytes;
  }
};

/// The consumers one MemoryPass feeds. The hierarchy and its counters are
/// always simulated.
struct MemoryPassOptions {
  /// Per-kernel demand traffic and line-set digests (needs a program).
  bool cacheStats = false;
  /// When set, the cache-aware CP over these latencies.
  const LatencyTable* cpLatencies = nullptr;
  /// TLB, page sets and occupancy bounds (needs a program).
  bool memSystem = false;
  /// Shared-L2 scaling points, with memSystem only; duplicates and zeros
  /// are ignored.
  std::span<const unsigned> coreCounts = {};
};

class MemoryPass final : public TraceObserver {
 public:
  /// Kernel regions come from `program`'s symbol table (KernelMap);
  /// `program` may be null when neither cacheStats nor memSystem is on.
  /// Throws ConfigError for invalid geometry, or when a scaling point is
  /// requested and l1Sets() exceeds kCoreOffsetLines; throws
  /// ValidationFault for overlapping kernel regions. A missing
  /// `config.tlb` falls back to TlbConfig{} so page-set digests are always
  /// defined.
  MemoryPass(const CacheConfig& config, const Program* program,
             const MemoryPassOptions& options);

  void onRetire(const RetiredInst& inst) override;
  void onRetireBlock(std::span<const RetiredInst> block) override;

  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  /// Single-core hierarchy counters (demand and prefetch traffic).
  [[nodiscard]] const HierarchyStats& hierarchyStats() const {
    return hierarchy_.stats();
  }

  // Cache stats.
  [[nodiscard]] const std::vector<CacheKernelStats>& cacheKernels() const {
    return cacheKernels_;
  }
  [[nodiscard]] std::uint64_t footprintLines() const {
    return footprintLines_;
  }
  /// Whole-program order-independent line-set digest.
  [[nodiscard]] std::uint64_t lineSetDigest() const { return lineSetDigest_; }

  // Cache-aware CP.
  [[nodiscard]] std::uint64_t criticalPath() const { return maxDepth_; }

  // Memory system.
  /// Summary with the occupancy bounds computed from the current counters
  /// (cheap; callable at any point).
  [[nodiscard]] MemSummary memSummary() const;
  [[nodiscard]] const std::vector<MemKernelStats>& memKernels() const {
    return memKernels_;
  }
  /// Scaling points in the options' coreCounts order, bounds filled in.
  [[nodiscard]] std::vector<ScalingPoint> scaling() const;

  /// Clear every cache, TLB, chain and counter for a fresh trace; kernel
  /// regions, consumers and core counts are retained.
  void reset();

 private:
  /// One scaling point's shared L2 and its counters. perCore carries only
  /// the L2 outcomes; scaling() adds the L1 side from the shared L1.
  struct SharedL2 {
    Cache l2;
    ScalingPoint point;

    SharedL2(const CacheConfig& config, std::uint32_t cores);
    /// Demand fetch of `line` after an L1 miss of `core`.
    void fetch(std::uint32_t core, std::uint64_t line);
    /// Non-inclusive write-back of a dirty L1 victim.
    void writeBack(std::uint64_t line);
    void reset();
  };

  void retireOne(const RetiredInst& inst);
  void recordLines(std::uint64_t addr, std::uint32_t size,
                   std::int32_t kernel);
  void translate(std::uint64_t addr, std::uint32_t size, std::int32_t kernel);
  void scaleLines(std::uint64_t addr, std::uint32_t size, bool write);

  CacheConfig config_;
  MemoryHierarchy hierarchy_;
  std::uint64_t instructions_ = 0;
  bool cacheStats_;
  bool memSystem_;

  std::optional<KernelMap> kernelMap_;
  std::vector<CacheKernelStats> cacheKernels_;
  std::vector<MemKernelStats> memKernels_;

  // Cache stats: line sets, one per kernel plus the whole program last.
  std::vector<FootprintSet> lineSets_;
  std::uint64_t footprintLines_ = 0;
  std::uint64_t lineSetDigest_ = 0;

  // Cache-aware CP.
  std::optional<LatencyTable> cpLatencies_;
  std::array<std::uint64_t, Reg::kDenseCount> regDepth_{};
  ChunkTable<std::uint64_t> memDepth_;
  std::uint64_t maxDepth_ = 0;

  // Memory system: page sets as for lines, the TLB, and the shared-L2
  // scaling points behind one demand-only L1.
  std::optional<Tlb> tlb_;
  std::vector<FootprintSet> pageSets_;
  std::uint64_t footprintPages_ = 0;
  std::uint64_t pageSetDigest_ = 0;
  std::optional<Cache> scalingL1_;
  std::uint64_t scalingAccesses_ = 0;
  std::uint64_t scalingL1Misses_ = 0;
  std::vector<SharedL2> shared_;
};

}  // namespace riscmp::uarch::mem
