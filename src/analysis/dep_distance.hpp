// Dependency-distance analysis (supports the paper's §6.2 explanation).
//
// For every retired instruction, the distance to each of its producers is
// the number of dynamically retired instructions between them. The paper
// explains RISC-V's small-window ILP advantage as "local dependent
// instructions are more distantly spread for RISC-V"; this observer
// measures exactly that: the distribution of producer->consumer distances
// through registers and memory. The producer tracking is
// DependencyChainAnalyzer's, with distances enabled.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "analysis/dependency_chain.hpp"
#include "isa/trace.hpp"

namespace riscmp {

class DependencyDistanceAnalyzer final : public TraceObserver {
 public:
  DependencyDistanceAnalyzer() : chain_(nullptr, true) {}

  void onRetire(const RetiredInst& inst) override { chain_.onRetire(inst); }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    chain_.onRetireBlock(block);
  }

  /// Forget every producer and distance sample; reusable for a new trace.
  void reset() { chain_.reset(); }

  /// Mean producer->consumer distance over all observed dependencies.
  [[nodiscard]] double meanDistance() const { return chain_.meanDistance(); }
  [[nodiscard]] std::uint64_t dependencies() const {
    return chain_.dependencies();
  }
  [[nodiscard]] std::uint64_t instructions() const {
    return chain_.instructions();
  }

  /// Fraction of dependencies with distance <= `window` — the share of
  /// producer/consumer pairs a ROB of that size could overlap.
  [[nodiscard]] double fractionWithin(std::uint64_t window) const {
    return chain_.fractionWithin(window);
  }

  /// Power-of-two histogram: bucket[i] counts distances in
  /// [2^i, 2^(i+1)) (bucket 0 = distance 1).
  static constexpr std::size_t kBuckets = DependencyChainAnalyzer::kBuckets;
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& histogram() const {
    return chain_.histogram();
  }

 private:
  DependencyChainAnalyzer chain_;
};

}  // namespace riscmp
