// Brute-force windowed critical path: the test-only reference for
// WindowedCPAnalyzer. Every window is recomputed from the stored trace with
// fresh depth maps, exactly as the paper describes the method (§6.1): each
// instruction's depth is its cost plus the deepest of its source registers
// and loaded 8-byte chunks written earlier in the same window. Like the
// analyzer, at most the first 4 chunks per instruction per direction are
// tracked.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "analysis/windowed_cp.hpp"
#include "support/stats.hpp"

namespace riscmp::testref {

/// The first 4 8-byte chunks `accesses` cover, in access order.
inline std::vector<std::uint64_t> cappedChunks(
    const SmallVector<MemAccess, 2>& accesses) {
  std::vector<std::uint64_t> chunks;
  for (const MemAccess& access : accesses) {
    const std::uint64_t last = (access.addr + access.size - 1) >> 3;
    for (std::uint64_t chunk = access.addr >> 3;
         chunk <= last && chunks.size() < 4; ++chunk) {
      chunks.push_back(chunk);
    }
  }
  return chunks;
}

/// Critical path of one window, from scratch.
inline std::uint64_t windowCp(std::span<const RetiredInst> window,
                              const LatencyTable* latencies) {
  std::unordered_map<unsigned, std::uint64_t> regDepth;
  std::unordered_map<std::uint64_t, std::uint64_t> memDepth;
  std::uint64_t cp = 0;
  for (const RetiredInst& inst : window) {
    std::uint64_t depth = 0;
    for (const Reg& reg : inst.srcs) {
      if (const auto found = regDepth.find(reg.dense());
          found != regDepth.end()) {
        depth = std::max(depth, found->second);
      }
    }
    for (const std::uint64_t chunk : cappedChunks(inst.loads)) {
      if (const auto found = memDepth.find(chunk); found != memDepth.end()) {
        depth = std::max(depth, found->second);
      }
    }
    const bool isMem = !inst.loads.empty() || !inst.stores.empty();
    depth += latencies != nullptr && !isMem
                 ? (*latencies)[static_cast<std::size_t>(inst.group)]
                 : 1;
    for (const Reg& reg : inst.dsts) regDepth[reg.dense()] = depth;
    for (const std::uint64_t chunk : cappedChunks(inst.stores)) {
      memDepth[chunk] = depth;
    }
    cp = std::max(cp, depth);
  }
  return cp;
}

/// Every full window's CP, per size, in start order. Window j of a size
/// starts at j × max(1, size × num / den), as in the analyzer.
struct ReferenceWindows {
  std::vector<std::uint32_t> sizes;
  std::vector<std::uint32_t> slides;
  std::vector<std::vector<std::uint64_t>> cps;

  ReferenceWindows(std::span<const RetiredInst> trace,
                   const std::vector<std::uint32_t>& windowSizes,
                   unsigned num, unsigned den, const LatencyTable* latencies)
      : sizes(windowSizes) {
    for (const std::uint32_t size : sizes) {
      const std::uint32_t slide = std::max<std::uint32_t>(1, size * num / den);
      slides.push_back(slide);
      cps.emplace_back();
      for (std::uint64_t start = 0; start + size <= trace.size();
           start += slide) {
        cps.back().push_back(windowCp(trace.subspan(start, size), latencies));
      }
    }
  }
};

/// Folds a ReferenceWindows' CPs into the results the analyzer must report
/// after a given number of retired instructions. Calls must not go back in
/// the trace.
class ReferenceResults {
 public:
  explicit ReferenceResults(const ReferenceWindows& windows)
      : windows_(windows),
        next_(windows.sizes.size(), 0),
        stats_(windows.sizes.size()) {}

  std::vector<WindowedCPAnalyzer::WindowResult> after(std::uint64_t retired) {
    std::vector<WindowedCPAnalyzer::WindowResult> out;
    for (std::size_t s = 0; s < windows_.sizes.size(); ++s) {
      const std::uint32_t size = windows_.sizes[s];
      const std::vector<std::uint64_t>& cps = windows_.cps[s];
      while (next_[s] < cps.size() &&
             next_[s] * windows_.slides[s] + size <= retired) {
        stats_[s].add(static_cast<double>(cps[next_[s]++]));
      }
      WindowedCPAnalyzer::WindowResult result;
      result.windowSize = size;
      result.windows = stats_[s].count();
      result.meanCp = stats_[s].mean();
      result.meanIlp = result.meanCp == 0.0
                           ? 0.0
                           : static_cast<double>(size) / result.meanCp;
      result.minCp = stats_[s].min();
      result.maxCp = stats_[s].max();
      out.push_back(result);
    }
    return out;
  }

 private:
  const ReferenceWindows& windows_;
  std::vector<std::uint64_t> next_;
  std::vector<RunningStats> stats_;
};

}  // namespace riscmp::testref
