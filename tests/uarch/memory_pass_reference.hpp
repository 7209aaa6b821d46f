// Three-hierarchy reference for MemoryPass, test-only: the E11 cache
// model, the cache-aware CP and the E14 memory system as separate
// analyzers, each driving its own MemoryHierarchy over the same trace, and
// the shared-L2 model simulating a private L1 per core at every scaling
// point. MemoryPass must reproduce every counter, digest and scaling point
// of these bit for bit.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel_map.hpp"
#include "support/chunk_table.hpp"
#include "support/footprint_set.hpp"
#include "uarch/mem/hierarchy.hpp"
#include "uarch/mem/memory_pass.hpp"  // result types
#include "uarch/mem/tlb.hpp"

namespace riscmp::testref {

using uarch::mem::AccessOutcome;
using uarch::mem::Cache;
using uarch::mem::CacheConfig;
using uarch::mem::CacheKernelStats;
using uarch::mem::CoreShare;
using uarch::mem::HierarchyStats;
using uarch::mem::MemKernelStats;
using uarch::mem::MemoryHierarchy;
using uarch::mem::MemSummary;
using uarch::mem::ScalingPoint;
using uarch::mem::Tlb;
using uarch::mem::TlbConfig;
using uarch::mem::TlbLevel;

/// E11: per-kernel demand traffic and line-set digests.
class CacheModelReference {
 public:
  CacheModelReference(const CacheConfig& config, const Program& program)
      : hierarchy_(config), kernelMap_(program) {
    for (const std::string& name : kernelMap_.names()) {
      kernels_.push_back({.name = name});
    }
    lineSets_.resize(kernels_.size() + 1);  // last slot = whole program
  }

  void retire(std::span<const RetiredInst> trace) {
    for (const RetiredInst& inst : trace) retireOne(inst);
  }

  [[nodiscard]] const std::vector<CacheKernelStats>& kernels() const {
    return kernels_;
  }
  [[nodiscard]] const HierarchyStats& totals() const {
    return hierarchy_.stats();
  }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] std::uint64_t footprintLines() const {
    return footprintLines_;
  }
  [[nodiscard]] std::uint64_t lineSetDigest() const { return lineSetDigest_; }

 private:
  void recordLines(std::uint64_t addr, std::uint32_t size,
                   std::int32_t kernel) {
    const std::uint64_t first = hierarchy_.lineOf(addr);
    const std::uint64_t last =
        hierarchy_.lineOf(addr + std::max(size, 1u) - 1);
    for (std::uint64_t line = first; line <= last; ++line) {
      lineSets_.back().insert(line, footprintLines_, lineSetDigest_);
      if (kernel < 0) continue;
      CacheKernelStats& stats = kernels_[static_cast<std::size_t>(kernel)];
      lineSets_[static_cast<std::size_t>(kernel)].insert(
          line, stats.footprintLines, stats.lineSetDigest);
    }
  }

  void retireOne(const RetiredInst& inst) {
    ++instructions_;
    const std::int32_t kernel = kernelMap_.kernelOf(inst);
    CacheKernelStats* stats =
        kernel < 0 ? nullptr : &kernels_[static_cast<std::size_t>(kernel)];
    if (stats != nullptr) ++stats->instructions;

    for (const MemAccess& access : inst.loads) {
      const AccessOutcome outcome = hierarchy_.load(access.addr, access.size);
      recordLines(access.addr, access.size, kernel);
      if (stats == nullptr) continue;
      ++stats->loads;
      stats->l1Misses += outcome.l1LineMisses;
      stats->l2Misses += outcome.l2LineMisses;
    }
    for (const MemAccess& access : inst.stores) {
      const AccessOutcome outcome =
          hierarchy_.store(access.addr, access.size);
      recordLines(access.addr, access.size, kernel);
      if (stats == nullptr) continue;
      ++stats->stores;
      stats->l1Misses += outcome.l1LineMisses;
      stats->l2Misses += outcome.l2LineMisses;
    }
  }

  MemoryHierarchy hierarchy_;
  std::uint64_t instructions_ = 0;
  std::uint64_t footprintLines_ = 0;
  std::uint64_t lineSetDigest_ = 0;
  KernelMap kernelMap_;
  std::vector<CacheKernelStats> kernels_;
  std::vector<FootprintSet> lineSets_;
};

/// Scaled CP with each load charged its dynamic hierarchy latency.
class CacheAwareCpReference {
 public:
  CacheAwareCpReference(const LatencyTable& latencies,
                        const CacheConfig& config)
      : hierarchy_(config), latencies_(latencies) {}

  void retire(std::span<const RetiredInst> trace) {
    for (const RetiredInst& inst : trace) retireOne(inst);
  }

  [[nodiscard]] std::uint64_t criticalPath() const { return maxDepth_; }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] const HierarchyStats& cacheStats() const {
    return hierarchy_.stats();
  }

 private:
  static std::pair<std::uint64_t, std::uint64_t> chunkRange(
      const MemAccess& access) {
    const std::uint64_t first = access.addr >> 3;
    const std::uint64_t last = (access.addr + access.size - 1) >> 3;
    return {first, last};
  }

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

    std::uint64_t cost;
    if (!inst.loads.empty()) {
      std::uint32_t latency = 0;
      for (const MemAccess& access : inst.loads) {
        latency = std::max(
            latency, hierarchy_.load(access.addr, access.size).latency);
      }
      cost = latency;
    } else if (!inst.stores.empty()) {
      cost = 1;
    } else {
      cost = latencies_[static_cast<std::size_t>(inst.group)];
    }
    for (const MemAccess& access : inst.stores) {
      hierarchy_.store(access.addr, access.size);
    }
    depth += cost;

    for (const Reg& reg : inst.dsts) {
      regDepth_[reg.dense()] = depth;
    }
    for (const MemAccess& access : inst.stores) {
      const auto [first, last] = chunkRange(access);
      for (std::uint64_t chunk = first; chunk <= last; ++chunk) {
        memDepth_[chunk] = depth;
      }
    }
    maxDepth_ = std::max(maxDepth_, depth);
  }

  MemoryHierarchy hierarchy_;
  std::array<std::uint64_t, Reg::kDenseCount> regDepth_{};
  ChunkTable<std::uint64_t> memDepth_;
  LatencyTable latencies_;
  std::uint64_t maxDepth_ = 0;
  std::uint64_t instructions_ = 0;
};

/// E14: TLB, page sets, occupancy bounds, and the N-L1 shared-L2 model.
class MemSystemReference {
 public:
  MemSystemReference(const CacheConfig& config, const Program& program,
                     std::span<const unsigned> coreCounts)
      : config_(config),
        hierarchy_(config),
        tlb_(config.tlb ? *config.tlb : TlbConfig{}),
        kernelMap_(program) {
    for (const unsigned cores : coreCounts) {
      if (cores == 0) continue;
      const bool seen =
          std::any_of(shared_.begin(), shared_.end(),
                      [cores](const SharedHierarchy& s) {
                        return s.point.cores == cores;
                      });
      if (!seen) shared_.emplace_back(config_, cores);
    }
    for (const std::string& name : kernelMap_.names()) {
      kernels_.push_back({.name = name});
    }
    pageSets_.resize(kernels_.size() + 1);  // last slot = whole program
  }

  void retire(std::span<const RetiredInst> trace) {
    for (const RetiredInst& inst : trace) retireOne(inst);
  }

  [[nodiscard]] MemSummary summary() const {
    const HierarchyStats& h = hierarchy_.stats();
    MemSummary summary;
    summary.tlb = tlb_.stats();
    summary.footprintPages = footprintPages_;
    summary.pageSetDigest = pageSetDigest_;
    summary.demandFillBytes = h.l2Misses * config_.lineBytes;
    summary.prefetchFillBytes = h.prefetchFillsFromMem * config_.lineBytes;
    summary.writebackBytes = h.writebacksToMem * config_.lineBytes;
    summary.missCycles = h.l2Hits * config_.l2.latency +
                         h.l2Misses * config_.memoryLatency;
    summary.mshrBoundCycles = ceilDiv(summary.missCycles, config_.mshrs);
    summary.bandwidthBoundCycles =
        ceilDiv(summary.totalBytes(), config_.memBytesPerCycle);
    return summary;
  }
  [[nodiscard]] const std::vector<MemKernelStats>& kernels() const {
    return kernels_;
  }
  [[nodiscard]] std::vector<ScalingPoint> scaling() const {
    std::vector<ScalingPoint> points;
    points.reserve(shared_.size());
    for (const SharedHierarchy& sharedHierarchy : shared_) {
      ScalingPoint point = sharedHierarchy.point;
      point.bytesFromMem =
          (point.sharedL2Misses + point.sharedWritebacksToMem) *
          config_.lineBytes;
      point.bandwidthBoundCycles =
          ceilDiv(point.bytesFromMem, config_.memBytesPerCycle);
      std::uint64_t missCycles = 0;
      for (const CoreShare& share : point.perCore) {
        missCycles += share.l2Hits * config_.l2.latency +
                      share.l2Misses * config_.memoryLatency;
      }
      point.mshrBoundCycles =
          ceilDiv(missCycles, std::uint64_t{config_.mshrs} * point.cores);
      points.push_back(std::move(point));
    }
    return points;
  }
  [[nodiscard]] const HierarchyStats& hierarchyTotals() const {
    return hierarchy_.stats();
  }
  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }

 private:
  static constexpr std::uint64_t kCoreOffsetLines = std::uint64_t{1} << 24;

  static constexpr std::uint64_t ceilDiv(std::uint64_t n, std::uint64_t d) {
    return d == 0 ? 0 : (n + d - 1) / d;
  }

  /// Private L1s per core over one shared L2, demand-only.
  struct SharedHierarchy {
    std::vector<Cache> l1;  ///< one per core
    Cache l2;
    ScalingPoint point;

    SharedHierarchy(const CacheConfig& config, std::uint32_t cores)
        : l2(config.l2Sets(), config.l2.ways) {
      l1.reserve(cores);
      for (std::uint32_t c = 0; c < cores; ++c) {
        l1.emplace_back(config.l1Sets(), config.l1d.ways);
      }
      point.cores = cores;
      point.perCore.resize(cores);
    }

    void accessLine(const CacheConfig& config, std::uint32_t core,
                    std::uint64_t line, bool write) {
      CoreShare& share = point.perCore[core];
      ++share.accesses;
      if (l1[core].access(line, write).hit) {
        share.latencyCycles += config.l1d.latency;
        return;
      }
      ++share.l1Misses;

      ++point.sharedL2Accesses;
      if (l2.access(line, /*write=*/false).hit) {
        ++point.sharedL2Hits;
        ++share.l2Hits;
        share.latencyCycles += config.l2.latency;
        fillL1(core, line, write);
        return;
      }
      ++point.sharedL2Misses;
      ++share.l2Misses;
      share.latencyCycles += config.memoryLatency;
      const Cache::Eviction victim =
          l2.fill(line, /*dirty=*/false, /*prefetched=*/false);
      if (victim.valid && victim.dirty) ++point.sharedWritebacksToMem;
      fillL1(core, line, write);
    }

    void fillL1(std::uint32_t core, std::uint64_t line, bool dirty) {
      const Cache::Eviction victim =
          l1[core].fill(line, dirty, /*prefetched=*/false);
      if (!victim.valid || !victim.dirty) return;
      if (l2.contains(victim.line)) {
        l2.access(victim.line, /*write=*/true);
      } else {
        const Cache::Eviction spilled =
            l2.fill(victim.line, /*dirty=*/true, /*prefetched=*/false);
        if (spilled.valid && spilled.dirty) ++point.sharedWritebacksToMem;
      }
    }
  };

  void accessMemory(std::uint64_t addr, std::uint32_t size, bool write,
                    std::int32_t kernel) {
    MemKernelStats* stats =
        kernel < 0 ? nullptr : &kernels_[static_cast<std::size_t>(kernel)];

    if (write) {
      hierarchy_.store(addr, size);
    } else {
      hierarchy_.load(addr, size);
    }

    const std::uint64_t firstPage = tlb_.pageOf(addr);
    const std::uint64_t lastPage =
        tlb_.pageOf(addr + std::max(size, 1u) - 1);
    for (std::uint64_t page = firstPage; page <= lastPage; ++page) {
      const Tlb::Outcome outcome = tlb_.access(page);
      if (stats != nullptr) {
        ++stats->tlbAccesses;
        if (outcome.level == TlbLevel::Walk) ++stats->tlbWalks;
      }

      pageSets_.back().insert(page, footprintPages_, pageSetDigest_);
      if (stats != nullptr) {
        pageSets_[static_cast<std::size_t>(kernel)].insert(
            page, stats->footprintPages, stats->pageSetDigest);
      }
    }

    const std::uint64_t firstLine = hierarchy_.lineOf(addr);
    const std::uint64_t lastLine =
        hierarchy_.lineOf(addr + std::max(size, 1u) - 1);
    for (std::uint64_t line = firstLine; line <= lastLine; ++line) {
      for (SharedHierarchy& sharedHierarchy : shared_) {
        for (std::uint32_t core = 0; core < sharedHierarchy.point.cores;
             ++core) {
          sharedHierarchy.accessLine(config_, core,
                                     line + core * kCoreOffsetLines, write);
        }
      }
    }
  }

  void retireOne(const RetiredInst& inst) {
    ++instructions_;
    const std::int32_t kernel = kernelMap_.kernelOf(inst);
    if (kernel >= 0) {
      ++kernels_[static_cast<std::size_t>(kernel)].instructions;
    }

    for (const MemAccess& access : inst.loads) {
      accessMemory(access.addr, access.size, /*write=*/false, kernel);
    }
    for (const MemAccess& access : inst.stores) {
      accessMemory(access.addr, access.size, /*write=*/true, kernel);
    }
  }

  CacheConfig config_;
  MemoryHierarchy hierarchy_;
  Tlb tlb_;
  std::vector<SharedHierarchy> shared_;
  std::uint64_t instructions_ = 0;
  std::uint64_t footprintPages_ = 0;
  std::uint64_t pageSetDigest_ = 0;
  KernelMap kernelMap_;
  std::vector<MemKernelStats> kernels_;
  std::vector<FootprintSet> pageSets_;
};

}  // namespace riscmp::testref
