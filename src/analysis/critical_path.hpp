// Critical-path analysis (paper §4.1, §5.1).
//
// Each retired instruction's depth is
//   max(depth of sources) + cost
// over register and 8-byte memory-chunk RAW dependencies, where cost is 1
// for the ideal-processor analysis (§4) and the instruction's execution
// latency for the scaled analysis (§5) — loads and stores are not scaled
// (store-forwarding assumption, §5.1). The critical path is the maximum
// depth observed; ILP = instructions / CP. The chain tracking is
// DependencyChainAnalyzer's; this class selects the CP it reports.
#pragma once

#include <cstdint>
#include <span>

#include "analysis/dependency_chain.hpp"
#include "isa/trace.hpp"

namespace riscmp {

class CriticalPathAnalyzer final : public TraceObserver {
 public:
  /// Without a table the analyzer computes the paper's §4 (unscaled) CP;
  /// with one, the §5 scaled CP.
  CriticalPathAnalyzer() = default;
  explicit CriticalPathAnalyzer(const LatencyTable& latencies)
      : chain_(&latencies), scaled_(true) {}

  void onRetire(const RetiredInst& inst) override { chain_.onRetire(inst); }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    chain_.onRetireBlock(block);
  }

  /// Clear all chain state so the analyzer can observe a fresh trace; the
  /// latency table (and scaled/unscaled mode) is retained.
  void reset() { chain_.reset(); }

  /// Length of the longest RAW dependency chain seen so far.
  [[nodiscard]] std::uint64_t criticalPath() const {
    return scaled_ ? chain_.scaledCriticalPath() : chain_.criticalPath();
  }
  [[nodiscard]] std::uint64_t instructions() const {
    return chain_.instructions();
  }
  [[nodiscard]] double ilp() const {
    const std::uint64_t cp = criticalPath();
    return cp == 0 ? 0.0
                   : static_cast<double>(instructions()) /
                         static_cast<double>(cp);
  }
  /// Ideal runtime in seconds at `clockHz` (paper uses 2 GHz).
  [[nodiscard]] double runtimeSeconds(double clockHz = 2e9) const {
    return static_cast<double>(criticalPath()) / clockHz;
  }

 private:
  DependencyChainAnalyzer chain_;
  bool scaled_ = false;
};

}  // namespace riscmp
