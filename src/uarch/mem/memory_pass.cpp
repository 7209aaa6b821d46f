#include "uarch/mem/memory_pass.hpp"

#include <algorithm>

#include "support/fault.hpp"

namespace riscmp::uarch::mem {
namespace {

constexpr std::uint64_t ceilDiv(std::uint64_t n, std::uint64_t d) {
  return d == 0 ? 0 : (n + d - 1) / d;
}

/// 8-byte chunk range covered by an access — the same dependency
/// granularity as CriticalPathAnalyzer, so the flat and memory-aware CPs
/// differ only in load cost, never in chain shape.
inline std::pair<std::uint64_t, std::uint64_t> chunkRange(
    const MemAccess& access) {
  const std::uint64_t first = access.addr >> 3;
  const std::uint64_t last = (access.addr + access.size - 1) >> 3;
  return {first, last};
}

/// The positive core counts in first-appearance order, without repeats.
std::vector<std::uint32_t> scalingCores(std::span<const unsigned> counts) {
  std::vector<std::uint32_t> cores;
  for (const unsigned count : counts) {
    if (count != 0 &&
        std::find(cores.begin(), cores.end(), count) == cores.end()) {
      cores.push_back(count);
    }
  }
  return cores;
}

/// Validates the geometry, and that one L1 simulation stands for every
/// core: a core's lines are core 0's shifted by kCoreOffsetLines, which
/// keeps their set index only when the set count divides the offset.
const CacheConfig& checkedConfig(const CacheConfig& config, bool scaling) {
  validateCacheConfig(config);
  if (scaling && config.l1Sets() > kCoreOffsetLines) {
    throw ConfigError("shared-L2 scaling needs at most " +
                          std::to_string(kCoreOffsetLines) +
                          " L1D sets (the per-core line offset), got " +
                          std::to_string(config.l1Sets()),
                      {}, 0, "l1d.size_kib");
  }
  return config;
}

}  // namespace

MemoryPass::SharedL2::SharedL2(const CacheConfig& config, std::uint32_t cores)
    : l2(config.l2Sets(), config.l2.ways) {
  point.cores = cores;
  point.perCore.resize(cores);
}

void MemoryPass::SharedL2::fetch(std::uint32_t core, std::uint64_t line) {
  // Counted independently of the per-core shares so the E14 conservation
  // checks compare two distinct tallies.
  CoreShare& share = point.perCore[core];
  ++point.sharedL2Accesses;
  if (l2.access(line, /*write=*/false).hit) {
    ++point.sharedL2Hits;
    ++share.l2Hits;
    return;
  }
  ++point.sharedL2Misses;
  ++share.l2Misses;
  const Cache::Eviction victim =
      l2.fill(line, /*dirty=*/false, /*prefetched=*/false);
  if (victim.valid && victim.dirty) ++point.sharedWritebacksToMem;
}

void MemoryPass::SharedL2::writeBack(std::uint64_t line) {
  // Non-inclusive, as in MemoryHierarchy::fillL1.
  if (l2.contains(line)) {
    l2.access(line, /*write=*/true);
    return;
  }
  const Cache::Eviction spilled =
      l2.fill(line, /*dirty=*/true, /*prefetched=*/false);
  if (spilled.valid && spilled.dirty) ++point.sharedWritebacksToMem;
}

void MemoryPass::SharedL2::reset() {
  l2.reset();
  const std::uint32_t cores = point.cores;
  point = ScalingPoint{};
  point.cores = cores;
  point.perCore.resize(cores);
}

MemoryPass::MemoryPass(const CacheConfig& config, const Program* program,
                       const MemoryPassOptions& options)
    : config_(checkedConfig(
          config, options.memSystem &&
                      !scalingCores(options.coreCounts).empty())),
      hierarchy_(config_),
      cacheStats_(options.cacheStats),
      memSystem_(options.memSystem) {
  if (cacheStats_ || memSystem_) {
    kernelMap_.emplace(*program);
    const std::size_t kernels = kernelMap_->names().size();
    if (cacheStats_) {
      for (const std::string& name : kernelMap_->names()) {
        cacheKernels_.push_back({.name = name});
      }
      lineSets_.resize(kernels + 1);  // last slot = whole program
    }
    if (memSystem_) {
      for (const std::string& name : kernelMap_->names()) {
        memKernels_.push_back({.name = name});
      }
      pageSets_.resize(kernels + 1);
      tlb_.emplace(config_.tlb ? *config_.tlb : TlbConfig{});
      for (const std::uint32_t cores : scalingCores(options.coreCounts)) {
        shared_.emplace_back(config_, cores);
      }
      if (!shared_.empty()) {
        scalingL1_.emplace(config_.l1Sets(), config_.l1d.ways);
      }
    }
  }
  if (options.cpLatencies != nullptr) cpLatencies_ = *options.cpLatencies;
}

void MemoryPass::onRetire(const RetiredInst& inst) { retireOne(inst); }

void MemoryPass::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) retireOne(inst);
}

void MemoryPass::recordLines(std::uint64_t addr, std::uint32_t size,
                             std::int32_t kernel) {
  const std::uint64_t first = hierarchy_.lineOf(addr);
  const std::uint64_t last =
      hierarchy_.lineOf(addr + std::max(size, 1u) - 1);
  for (std::uint64_t line = first; line <= last; ++line) {
    lineSets_.back().insert(line, footprintLines_, lineSetDigest_);
    if (kernel < 0) continue;
    CacheKernelStats& stats = cacheKernels_[static_cast<std::size_t>(kernel)];
    lineSets_[static_cast<std::size_t>(kernel)].insert(
        line, stats.footprintLines, stats.lineSetDigest);
  }
}

void MemoryPass::translate(std::uint64_t addr, std::uint32_t size,
                           std::int32_t kernel) {
  MemKernelStats* stats =
      kernel < 0 ? nullptr : &memKernels_[static_cast<std::size_t>(kernel)];
  // An access straddling a page boundary looks up every page it covers
  // (the straddle test pins this at exactly two).
  const std::uint64_t firstPage = tlb_->pageOf(addr);
  const std::uint64_t lastPage = tlb_->pageOf(addr + std::max(size, 1u) - 1);
  for (std::uint64_t page = firstPage; page <= lastPage; ++page) {
    const Tlb::Outcome outcome = tlb_->access(page);
    pageSets_.back().insert(page, footprintPages_, pageSetDigest_);
    if (stats == nullptr) continue;
    ++stats->tlbAccesses;
    if (outcome.level == TlbLevel::Walk) ++stats->tlbWalks;
    pageSets_[static_cast<std::size_t>(kernel)].insert(
        page, stats->footprintPages, stats->pageSetDigest);
  }
}

void MemoryPass::scaleLines(std::uint64_t addr, std::uint32_t size,
                            bool write) {
  const std::uint64_t first = hierarchy_.lineOf(addr);
  const std::uint64_t last =
      hierarchy_.lineOf(addr + std::max(size, 1u) - 1);
  for (std::uint64_t line = first; line <= last; ++line) {
    ++scalingAccesses_;
    if (scalingL1_->access(line, write).hit) continue;
    ++scalingL1Misses_;
    const Cache::Eviction victim =
        scalingL1_->fill(line, write, /*prefetched=*/false);
    const bool writeBack = victim.valid && victim.dirty;
    // Every core's L1 missed too; its L2 traffic follows in core order,
    // each core's fetch before its own victim's write-back.
    for (SharedL2& shared : shared_) {
      for (std::uint32_t core = 0; core < shared.point.cores; ++core) {
        const std::uint64_t offset = core * kCoreOffsetLines;
        shared.fetch(core, line + offset);
        if (writeBack) shared.writeBack(victim.line + offset);
      }
    }
  }
}

void MemoryPass::retireOne(const RetiredInst& inst) {
  ++instructions_;
  const std::int32_t kernel = kernelMap_ ? kernelMap_->kernelOf(inst) : -1;
  CacheKernelStats* cacheKernel =
      cacheStats_ && kernel >= 0
          ? &cacheKernels_[static_cast<std::size_t>(kernel)]
          : nullptr;
  if (cacheKernel != nullptr) ++cacheKernel->instructions;
  if (memSystem_ && kernel >= 0) {
    ++memKernels_[static_cast<std::size_t>(kernel)].instructions;
  }

  std::uint32_t loadLatency = 0;
  for (const MemAccess& access : inst.loads) {
    const AccessOutcome outcome = hierarchy_.load(access.addr, access.size);
    loadLatency = std::max(loadLatency, outcome.latency);
    if (cacheStats_) {
      recordLines(access.addr, access.size, kernel);
      if (cacheKernel != nullptr) {
        ++cacheKernel->loads;
        cacheKernel->l1Misses += outcome.l1LineMisses;
        cacheKernel->l2Misses += outcome.l2LineMisses;
      }
    }
    if (memSystem_) {
      translate(access.addr, access.size, kernel);
      if (scalingL1_) scaleLines(access.addr, access.size, /*write=*/false);
    }
  }
  for (const MemAccess& access : inst.stores) {
    const AccessOutcome outcome = hierarchy_.store(access.addr, access.size);
    if (cacheStats_) {
      recordLines(access.addr, access.size, kernel);
      if (cacheKernel != nullptr) {
        ++cacheKernel->stores;
        cacheKernel->l1Misses += outcome.l1LineMisses;
        cacheKernel->l2Misses += outcome.l2LineMisses;
      }
    }
    if (memSystem_) {
      translate(access.addr, access.size, kernel);
      if (scalingL1_) scaleLines(access.addr, access.size, /*write=*/true);
    }
  }

  if (!cpLatencies_) return;
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
  // Memory-aware cost: loads contribute their dynamic load-to-use latency;
  // stores stay at 1 (store forwarding) but still update cache state.
  if (!inst.loads.empty()) {
    depth += loadLatency;
  } else if (!inst.stores.empty()) {
    depth += 1;
  } else {
    depth += (*cpLatencies_)[static_cast<std::size_t>(inst.group)];
  }
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

MemSummary MemoryPass::memSummary() const {
  const HierarchyStats& h = hierarchy_.stats();
  MemSummary summary;
  if (tlb_) summary.tlb = tlb_->stats();
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

std::vector<ScalingPoint> MemoryPass::scaling() const {
  std::vector<ScalingPoint> points;
  points.reserve(shared_.size());
  const std::uint64_t l1Hits = scalingAccesses_ - scalingL1Misses_;
  for (const SharedL2& shared : shared_) {
    ScalingPoint point = shared.point;
    std::uint64_t missCycles = 0;
    for (CoreShare& share : point.perCore) {
      share.accesses = scalingAccesses_;
      share.l1Misses = scalingL1Misses_;
      const std::uint64_t shareMissCycles =
          share.l2Hits * config_.l2.latency +
          share.l2Misses * config_.memoryLatency;
      share.latencyCycles = l1Hits * config_.l1d.latency + shareMissCycles;
      missCycles += shareMissCycles;
    }
    point.bytesFromMem =
        (point.sharedL2Misses + point.sharedWritebacksToMem) *
        config_.lineBytes;
    point.bandwidthBoundCycles =
        ceilDiv(point.bytesFromMem, config_.memBytesPerCycle);
    // Each core brings its own MSHRs, so N cores overlap N x mshrs misses.
    point.mshrBoundCycles =
        ceilDiv(missCycles, std::uint64_t{config_.mshrs} * point.cores);
    points.push_back(std::move(point));
  }
  return points;
}

void MemoryPass::reset() {
  hierarchy_.reset();
  instructions_ = 0;
  for (CacheKernelStats& stats : cacheKernels_) {
    stats = CacheKernelStats{.name = std::move(stats.name)};
  }
  for (MemKernelStats& stats : memKernels_) {
    stats = MemKernelStats{.name = std::move(stats.name)};
  }
  for (FootprintSet& set : lineSets_) set.clear();
  footprintLines_ = 0;
  lineSetDigest_ = 0;

  regDepth_.fill(0);
  memDepth_.clear();
  maxDepth_ = 0;

  if (tlb_) tlb_->reset();
  for (FootprintSet& set : pageSets_) set.clear();
  footprintPages_ = 0;
  pageSetDigest_ = 0;
  if (scalingL1_) scalingL1_->reset();
  scalingAccesses_ = 0;
  scalingL1Misses_ = 0;
  for (SharedL2& shared : shared_) shared.reset();
}

}  // namespace riscmp::uarch::mem
