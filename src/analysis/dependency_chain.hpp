// Dependency-chain analysis: the one RAW dependency graph behind the
// paper's critical path (§4.1), scaled critical path (§5.1) and the
// producer->consumer dependency distances that explain §6.2.
//
// One array holds, per register, and one ChunkTable holds, per 8-byte
// memory chunk (covering each access's extent), a Link for the last
// writer: its chain depth, its latency-scaled chain depth and its retire
// index + 1 (0 = never written). Each retired instruction looks up each
// source register and loaded chunk once; every Link found feeds
//   depth  = max(depth of sources) + 1
//   scaled = max(scaled depth of sources) + cost
// where cost is the instruction group's latency, except that loads and
// stores are not scaled (store-forwarding assumption, §5.1), and, for a
// producer that exists, one distance sample: the number of instructions
// retired between producer and consumer. The critical paths are the
// maximum depths observed; ILP = instructions / CP.
//
// CriticalPathAnalyzer and DependencyDistanceAnalyzer are configurations of
// this class; the engine attaches one instance per instruction stream so
// the three analyses share a single lookup per dependency.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "isa/trace.hpp"
#include "support/chunk_table.hpp"

namespace riscmp {

/// Execution latency per instruction group (cycles).
using LatencyTable = std::array<std::uint32_t, kInstGroupCount>;

/// The unit latency table: every group costs one cycle (ideal processor).
constexpr LatencyTable unitLatencies() {
  LatencyTable table{};
  table.fill(1);
  return table;
}

class DependencyChainAnalyzer final : public TraceObserver {
 public:
  /// The unit critical path is always computed. `latencies` adds the
  /// scaled critical path; `distances` adds the dependency-distance
  /// statistics and histogram.
  explicit DependencyChainAnalyzer(const LatencyTable* latencies = nullptr,
                                   bool distances = false);

  void onRetire(const RetiredInst& inst) override;
  void onRetireBlock(std::span<const RetiredInst> block) override;

  /// Clear all chain and distance state so the analyzer can observe a
  /// fresh trace; the configuration is retained.
  void reset();

  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }

  /// Length of the longest RAW dependency chain, every instruction costing
  /// one cycle (§4).
  [[nodiscard]] std::uint64_t criticalPath() const { return maxDepth_; }
  /// The same chain length with latency-scaled costs (§5); 0 without a
  /// latency table.
  [[nodiscard]] std::uint64_t scaledCriticalPath() const {
    return maxScaled_;
  }

  /// Mean producer->consumer distance over all observed dependencies
  /// (0 unless distances are enabled).
  [[nodiscard]] double meanDistance() const { return meanDistance_; }
  [[nodiscard]] std::uint64_t dependencies() const { return dependencies_; }

  /// Fraction of dependencies with distance <= `window` — the share of
  /// producer/consumer pairs a ROB of that size could overlap.
  [[nodiscard]] double fractionWithin(std::uint64_t window) const;

  /// Power-of-two histogram: bucket[i] counts distances in
  /// [2^i, 2^(i+1)) (bucket 0 = distance 1).
  static constexpr std::size_t kBuckets = 24;
  [[nodiscard]] const std::array<std::uint64_t, kBuckets>& histogram() const {
    return histogram_;
  }

 private:
  /// State of the last writer of a register or memory chunk.
  struct Link {
    std::uint64_t depth = 0;
    std::uint64_t scaled = 0;
    std::uint64_t writer = 0;  ///< retire index + 1; 0 = never written
  };

  void record(std::uint64_t distance);

  std::array<Link, Reg::kDenseCount> regLink_{};
  ChunkTable<Link> memLink_;
  LatencyTable latencies_;
  bool scaled_;
  bool distances_;
  std::uint64_t maxDepth_ = 0;
  std::uint64_t maxScaled_ = 0;
  std::uint64_t instructions_ = 0;
  /// Distance count and running (Welford) mean; nothing else about the
  /// distances is read, so no other moment is kept.
  std::uint64_t dependencies_ = 0;
  double meanDistance_ = 0.0;
  std::array<std::uint64_t, kBuckets> histogram_{};
};

}  // namespace riscmp
