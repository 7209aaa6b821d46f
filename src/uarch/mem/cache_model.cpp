#include "uarch/mem/cache_model.hpp"

#include <algorithm>

namespace riscmp::uarch::mem {

CacheModelAnalyzer::CacheModelAnalyzer(const CacheConfig& config,
                                       const Program& program)
    : hierarchy_(config), kernelMap_(program) {
  for (const std::string& name : kernelMap_.names()) {
    kernels_.push_back({.name = name});
  }
  lineSets_.resize(kernels_.size() + 1);  // last slot = whole program
}

void CacheModelAnalyzer::onRetire(const RetiredInst& inst) { retireOne(inst); }

void CacheModelAnalyzer::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) retireOne(inst);
}

void CacheModelAnalyzer::recordLines(std::uint64_t addr, std::uint32_t size,
                                     std::int32_t kernel) {
  const std::uint64_t first = hierarchy_.lineOf(addr);
  const std::uint64_t last =
      hierarchy_.lineOf(addr + std::max(size, 1u) - 1);
  for (std::uint64_t line = first; line <= last; ++line) {
    lineSets_.back().insert(line, footprintLines_, lineSetDigest_);
    if (kernel < 0) continue;
    KernelStats& stats = kernels_[static_cast<std::size_t>(kernel)];
    lineSets_[static_cast<std::size_t>(kernel)].insert(
        line, stats.footprintLines, stats.lineSetDigest);
  }
}

void CacheModelAnalyzer::retireOne(const RetiredInst& inst) {
  ++instructions_;
  const std::int32_t kernel = kernelMap_.kernelOf(inst);
  KernelStats* stats =
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
    const AccessOutcome outcome = hierarchy_.store(access.addr, access.size);
    recordLines(access.addr, access.size, kernel);
    if (stats == nullptr) continue;
    ++stats->stores;
    stats->l1Misses += outcome.l1LineMisses;
    stats->l2Misses += outcome.l2LineMisses;
  }
}

void CacheModelAnalyzer::reset() {
  hierarchy_.reset();
  instructions_ = 0;
  footprintLines_ = 0;
  lineSetDigest_ = 0;
  for (KernelStats& stats : kernels_) {
    const std::string name = stats.name;
    stats = KernelStats{};
    stats.name = name;
  }
  for (FootprintSet& set : lineSets_) set.clear();
}

}  // namespace riscmp::uarch::mem
