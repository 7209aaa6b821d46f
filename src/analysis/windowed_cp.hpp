// Windowed critical-path analysis (paper §6).
//
// A window of W consecutive dynamic instructions models a W-entry ROB with
// perfect branch prediction and infinite physical registers; the window's
// critical path bounds how fast those W instructions could issue. Windows
// slide by W/2 (50 % overlap), modelling a limited commit stage (§6.1).
// Latency is not applied (§6.1). The tracked statistic is the mean CP per
// window; mean ILP = W / mean CP (Figure 2).
//
// One forward pass evaluates every window. Each window that can be open at
// the same time owns a *lane*: Σ ⌈W / slide⌉ lanes, 14 for the paper's
// sizes. A retiring instruction looks up its producers once (the last
// writer of each source register and of each loaded 8-byte chunk, at most
// 4 chunks per direction) and computes one depth row across all lanes:
//   row[l] = cost + max(row_p[l] for each producer p inside lane l's window)
// where p is inside iff its distance back is at most the instruction's
// offset into that window. A window's CP is the max of its lane over its
// W rows. Rows live in a ring of the last max(W) instructions, so memory
// is max(W) × lanes and the work per instruction is lanes × producers.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/critical_path.hpp"
#include "isa/trace.hpp"
#include "support/flat_hash.hpp"
#include "support/stats.hpp"

namespace riscmp {

class WindowedCPAnalyzer final : public TraceObserver {
 public:
  /// Largest accepted window size and latency: a window's CP then stays
  /// below 65536 × 4096 = 2^28, so the 32-bit lanes cannot overflow.
  static constexpr std::uint32_t kMaxWindowSize = 65536;
  static constexpr std::uint32_t kMaxLatency = 4096;

  /// The paper's window sizes.
  static std::vector<std::uint32_t> paperWindowSizes() {
    return {4, 16, 64, 200, 500, 1000, 2000};
  }

  /// `slideNumerator/slideDenominator` set the window slide as a fraction
  /// of the window size (the paper uses 1/2 and defers adjusting it to
  /// future work); `latencies` optionally scales non-memory instructions
  /// as in the Section-5 analysis (the paper's windowed analysis does not).
  /// Throws ConfigError for a window size outside [1, kMaxWindowSize] (key
  /// `windows`) or a latency above kMaxLatency (key `latencies`).
  explicit WindowedCPAnalyzer(std::vector<std::uint32_t> windowSizes,
                              unsigned slideNumerator = 1,
                              unsigned slideDenominator = 2,
                              const LatencyTable* latencies = nullptr);

  void onRetire(const RetiredInst& inst) override { retireOne(inst); }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    for (const RetiredInst& inst : block) retireOne(inst);
  }
  /// Partial trailing windows are discarded: only full windows count.
  void onProgramEnd() override {}

  /// Drop all window state and per-size statistics; the window sizes,
  /// slide fraction, and latency table are retained.
  void reset();

  struct WindowResult {
    std::uint32_t windowSize = 0;
    std::uint64_t windows = 0;   ///< number of full windows evaluated
    double meanCp = 0.0;         ///< mean critical path per window
    double meanIlp = 0.0;        ///< windowSize / meanCp
    double minCp = 0.0;
    double maxCp = 0.0;
  };
  [[nodiscard]] std::vector<WindowResult> results() const;

 private:
  /// Lanes are processed as GCC/Clang vectors of 4, so the lane loops are
  /// SIMD at the baseline flags; lanes past the last window's go unread.
  static constexpr std::size_t kLanesPerVector = 4;
  using Lanes = std::uint32_t __attribute__((vector_size(16)));

  /// Window j of a size with slide s spans [j*s, j*s + size) and takes the
  /// size's lane j mod n, n = ⌈size / s⌉, so a lane's windows start every
  /// n*s instructions and never overlap.
  struct Lane {
    std::uint32_t sizeIndex;
    std::uint64_t firstEnd;  ///< index of its first window's last instruction
  };
  /// Four lanes: the next instruction's offset into each lane's window (it
  /// wraps to 0 at `period`, where the lane's next window starts), its
  /// initial value, a window's last offset, and the window's max depth.
  struct LaneBlock {
    Lanes age{}, period{}, firstAge{}, lastAge{}, windowMax{};
  };

  void retireOne(const RetiredInst& inst);

  std::vector<std::uint32_t> sizes_;
  std::vector<RunningStats> cpStats_;  ///< per size
  std::vector<Lane> lanes_;
  std::vector<LaneBlock> blocks_;
  std::uint32_t ringRows_ = 1;  ///< largest window size
  std::vector<Lanes> rows_;     ///< ringRows_ depth rows, one Lanes per block

  /// Absolute index + 1 of the last writer of each register / 8-byte chunk
  /// (0: never written). Chunks keep only this epoch's and the previous
  /// epoch's writers (ringRows_ instructions each; older ones lie outside
  /// every window), so the tables stay small however much memory is used.
  std::array<std::uint64_t, Reg::kDenseCount> regWriter_{};
  std::array<FlatHashMap64<std::uint64_t>, 2> chunkWriter_;

  std::uint64_t retired_ = 0;
  std::uint32_t slot_ = 0;  ///< ring row of the next instruction
  bool scaled_ = false;
  LatencyTable latencies_ = unitLatencies();
};

}  // namespace riscmp
