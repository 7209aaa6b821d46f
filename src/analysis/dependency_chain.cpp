#include "analysis/dependency_chain.hpp"

#include <algorithm>
#include <bit>

namespace riscmp {

DependencyChainAnalyzer::DependencyChainAnalyzer(const LatencyTable* latencies,
                                                 bool distances)
    : latencies_(latencies != nullptr ? *latencies : unitLatencies()),
      scaled_(latencies != nullptr),
      distances_(distances) {}

void DependencyChainAnalyzer::reset() {
  regLink_.fill(Link{});
  memLink_.clear();
  maxDepth_ = 0;
  maxScaled_ = 0;
  instructions_ = 0;
  distanceStats_.reset();
  histogram_.fill(0);
}

void DependencyChainAnalyzer::onRetireBlock(
    std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) onRetire(inst);
}

void DependencyChainAnalyzer::record(std::uint64_t distance) {
  distanceStats_.add(static_cast<double>(distance));
  const auto bucket =
      static_cast<std::size_t>(std::bit_width(distance) - 1);
  ++histogram_[bucket < kBuckets ? bucket : kBuckets - 1];
}

void DependencyChainAnalyzer::onRetire(const RetiredInst& inst) {
  const std::uint64_t index = instructions_++;
  std::uint64_t depth = 0;
  std::uint64_t scaled = 0;
  const auto consume = [&](const Link& producer) {
    depth = std::max(depth, producer.depth);
    scaled = std::max(scaled, producer.scaled);
    if (distances_ && producer.writer != 0) {
      record(index + 1 - producer.writer);
    }
  };
  for (const Reg& reg : inst.srcs) consume(regLink_[reg.dense()]);
  for (const MemAccess& access : inst.loads) {
    const std::uint64_t last = (access.addr + access.size - 1) >> 3;
    for (std::uint64_t chunk = access.addr >> 3; chunk <= last; ++chunk) {
      if (const Link* found = memLink_.find(chunk)) consume(*found);
    }
  }

  Link out{depth + 1, 0, index + 1};
  maxDepth_ = std::max(maxDepth_, out.depth);
  if (scaled_) {
    // Loads and stores are never scaled (§5.1: store forwarding assumed).
    const bool isMem = !inst.loads.empty() || !inst.stores.empty();
    out.scaled = scaled + (isMem ? 1
                                 : latencies_[static_cast<std::size_t>(
                                       inst.group)]);
    maxScaled_ = std::max(maxScaled_, out.scaled);
  }
  for (const Reg& reg : inst.dsts) regLink_[reg.dense()] = out;
  for (const MemAccess& access : inst.stores) {
    const std::uint64_t last = (access.addr + access.size - 1) >> 3;
    for (std::uint64_t chunk = access.addr >> 3; chunk <= last; ++chunk) {
      memLink_[chunk] = out;
    }
  }
}

double DependencyChainAnalyzer::fractionWithin(std::uint64_t window) const {
  if (distanceStats_.count() == 0) return 0.0;
  std::uint64_t within = 0;
  std::uint64_t total = 0;
  for (std::size_t bucket = 0; bucket < kBuckets; ++bucket) {
    total += histogram_[bucket];
    // Bucket covers [2^bucket, 2^(bucket+1)); count it as within when the
    // whole bucket fits.
    if ((std::uint64_t{1} << (bucket + 1)) - 1 <= window) {
      within += histogram_[bucket];
    }
  }
  return total == 0 ? 0.0
                    : static_cast<double>(within) / static_cast<double>(total);
}

}  // namespace riscmp
