#include "analysis/windowed_cp.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "support/fault.hpp"

namespace riscmp {
namespace {

/// Memory chunks tracked per instruction per direction.
constexpr unsigned kMaxChunks = 4;

/// Calls `visit` on the first kMaxChunks 8-byte chunks `accesses` cover.
template <typename Visit>
void forCappedChunks(const SmallVector<MemAccess, 2>& accesses,
                     Visit&& visit) {
  unsigned chunks = 0;
  for (const MemAccess& access : accesses) {
    const std::uint64_t last = (access.addr + access.size - 1) >> 3;
    for (std::uint64_t chunk = access.addr >> 3;
         chunk <= last && chunks < kMaxChunks; ++chunk, ++chunks) {
      visit(chunk);
    }
  }
}

using SignedLanes = std::int32_t __attribute__((vector_size(16)));

/// Lane-wise max. Depths and ages of open windows stay below 2^31, so the
/// signed compare is exact there and is one SSE2 instruction; the other
/// lanes hold values nobody reads.
template <typename Lanes>
Lanes maxLanes(Lanes a, Lanes b) {
  const auto aWins = std::bit_cast<Lanes>(std::bit_cast<SignedLanes>(a) >
                                          std::bit_cast<SignedLanes>(b));
  return (a & aWins) | (b & ~aWins);
}

}  // namespace

WindowedCPAnalyzer::WindowedCPAnalyzer(std::vector<std::uint32_t> windowSizes,
                                       unsigned slideNumerator,
                                       unsigned slideDenominator,
                                       const LatencyTable* latencies)
    : sizes_(std::move(windowSizes)), cpStats_(sizes_.size()) {
  slideNumerator = std::max(1u, slideNumerator);
  slideDenominator = std::max(1u, slideDenominator);
  for (std::uint32_t s = 0; s < sizes_.size(); ++s) {
    const std::uint32_t size = sizes_[s];
    if (size == 0 || size > kMaxWindowSize) {
      throw ConfigError("windowed CP: window size " + std::to_string(size) +
                            " is outside [1, 65536]", {}, 0, "windows");
    }
    const std::uint32_t slide =
        std::max<std::uint32_t>(1, size * slideNumerator / slideDenominator);
    const auto count =
        static_cast<std::uint32_t>((std::uint64_t{size} + slide - 1) / slide);
    for (std::uint32_t j = 0; j < count; ++j) {
      const std::size_t l = lanes_.size() % kLanesPerVector;
      if (l == 0) {  // unused lanes stay at age 0, never their last age
        blocks_.push_back({.period = Lanes{} + 1, .lastAge = ~Lanes{}});
      }
      blocks_.back().period[l] = count * slide;
      // Counting up from here, the age reaches 0 at instruction j * slide.
      blocks_.back().firstAge[l] = j == 0 ? 0 : (count - j) * slide;
      blocks_.back().lastAge[l] = size - 1;
      lanes_.push_back(Lane{s, std::uint64_t{j} * slide + size - 1});
    }
    ringRows_ = std::max(ringRows_, size);
  }
  if (latencies != nullptr) {
    if (std::ranges::max(*latencies) > kMaxLatency) {
      throw ConfigError("windowed CP: latencies must be at most 4096", {}, 0,
                        "latencies");
    }
    scaled_ = true;
    latencies_ = *latencies;
  }
  rows_.resize(std::size_t{ringRows_} * blocks_.size());
  reset();
}

void WindowedCPAnalyzer::reset() {
  for (LaneBlock& block : blocks_) block.age = block.firstAge;
  regWriter_.fill(0);
  for (FlatHashMap64<std::uint64_t>& writers : chunkWriter_) writers.clear();
  retired_ = 0;
  slot_ = 0;
  for (RunningStats& stats : cpStats_) stats.reset();
}

void WindowedCPAnalyzer::retireOne(const RetiredInst& inst) {
  // Producers, found once: the row and distance back of each last writer (of
  // up to 5 source registers and kMaxChunks chunks) inside some window.
  std::array<const Lanes*, 5 + kMaxChunks> from;
  std::array<std::int32_t, 5 + kMaxChunks> distance;
  std::size_t producers = 0;
  const auto addProducer = [&](std::uint64_t writer) {
    const std::uint64_t back = retired_ + 1 - writer;
    if (writer == 0 || back >= ringRows_) return;
    const auto d = static_cast<std::uint32_t>(back);
    const std::uint32_t slot = slot_ >= d ? slot_ - d : slot_ + ringRows_ - d;
    from[producers] = rows_.data() + std::size_t{slot} * blocks_.size();
    distance[producers++] = static_cast<std::int32_t>(d);
  };
  for (const Reg& reg : inst.srcs) addProducer(regWriter_[reg.dense()]);
  if (slot_ == 0) {  // a new epoch of ringRows_ instructions
    std::swap(chunkWriter_[0], chunkWriter_[1]);
    chunkWriter_[0].clear();
  }
  forCappedChunks(inst.loads, [&](std::uint64_t chunk) {
    const std::uint64_t* writer = chunkWriter_[0].find(chunk);
    if (writer == nullptr) writer = chunkWriter_[1].find(chunk);
    if (writer != nullptr) addProducer(*writer);
  });

  const bool isMem = !inst.loads.empty() || !inst.stores.empty();
  const std::uint32_t cost =
      scaled_ && !isMem ? latencies_[static_cast<std::size_t>(inst.group)]
                        : 1;
  Lanes* row = rows_.data() + std::size_t{slot_} * blocks_.size();
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    LaneBlock& block = blocks_[b];
    const Lanes age = block.age;
    Lanes depth{};
    for (std::size_t p = 0; p < producers; ++p) {
      const auto outside = std::bit_cast<Lanes>(
          SignedLanes{} + distance[p] > std::bit_cast<SignedLanes>(age));
      depth = maxLanes(depth, from[p][b] & ~outside);
    }
    row[b] = depth + cost;
    const auto starts = std::bit_cast<Lanes>(age == Lanes{});
    block.windowMax = maxLanes(block.windowMax & ~starts, row[b]);
    const Lanes next = age + 1;
    block.age = next & ~std::bit_cast<Lanes>(next == block.period);

    const auto ends = std::bit_cast<Lanes>(age == block.lastAge);
    const auto halves = std::bit_cast<std::array<std::uint64_t, 2>>(ends);
    if ((halves[0] | halves[1]) == 0) continue;
    for (std::size_t l = 0; l < kLanesPerVector; ++l) {
      if (ends[l] == 0) continue;
      // Before its first window starts a lane's age also passes the end.
      const Lane& lane = lanes_[b * kLanesPerVector + l];
      if (retired_ >= lane.firstEnd) {
        cpStats_[lane.sizeIndex].add(static_cast<double>(block.windowMax[l]));
      }
    }
  }

  for (const Reg& reg : inst.dsts) regWriter_[reg.dense()] = retired_ + 1;
  forCappedChunks(inst.stores, [&](std::uint64_t chunk) {
    chunkWriter_[0].assign(chunk, retired_ + 1);
  });
  ++retired_;
  if (++slot_ == ringRows_) slot_ = 0;
}

std::vector<WindowedCPAnalyzer::WindowResult> WindowedCPAnalyzer::results()
    const {
  std::vector<WindowResult> out;
  for (std::size_t s = 0; s < sizes_.size(); ++s) {
    const RunningStats& stats = cpStats_[s];
    const double mean = stats.mean();
    const double ilp = mean == 0.0 ? 0.0 : sizes_[s] / mean;
    out.push_back({sizes_[s], stats.count(), mean, ilp, stats.min(),
                   stats.max()});
  }
  return out;
}

}  // namespace riscmp
