// Differential test of WindowedCPAnalyzer against the brute-force
// reference in windowed_cp_reference.hpp: window count, mean, min and max
// CP must be bit-equal for every window size, slide fraction and latency
// table, whether the trace arrives one record at a time or in random
// blocks, and at every point mid-stream. Traces come from KernelFuzzer
// modules and the five paper workloads on all four ISA × compiler configs.
#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/windowed_cp.hpp"
#include "core/machine.hpp"
#include "kgen/compile.hpp"
#include "verify/conformance/kernel_fuzzer.hpp"
#include "windowed_cp_reference.hpp"
#include "workloads/workloads.hpp"

namespace riscmp {
namespace {

using WindowResult = WindowedCPAnalyzer::WindowResult;

const std::vector<std::uint32_t> kSizes = {1, 3, 4, 7, 16, 64, 200, 2000};

struct Slide {
  unsigned num;
  unsigned den;
};
constexpr std::array<Slide, 5> kSlides = {{{1, 8}, {1, 4}, {1, 2}, {3, 4},
                                           {1, 1}}};

/// A non-unit latency per group, so scaled depths differ from counts.
LatencyTable scaledLatencies() {
  LatencyTable latencies{};
  for (std::size_t g = 0; g < latencies.size(); ++g) {
    latencies[g] = 1 + static_cast<std::uint32_t>((g * 7) % 13);
  }
  return latencies;
}

struct Recorder final : TraceObserver {
  std::vector<RetiredInst> trace;
  void onRetire(const RetiredInst& inst) override { trace.push_back(inst); }
};

/// The first kMaxRecords retired records of `module` on one config: enough
/// to fill the largest window many times, small enough that the brute
/// force stays fast under the sanitizers.
constexpr std::size_t kMaxRecords = 40000;

std::vector<RetiredInst> record(const kgen::Module& module, Arch arch,
                                kgen::CompilerEra era) {
  const kgen::Compiled compiled = kgen::compile(module, arch, era);
  Machine machine(compiled.program);
  Recorder recorder;
  machine.addObserver(recorder);
  machine.run();
  if (recorder.trace.size() > kMaxRecords) recorder.trace.resize(kMaxRecords);
  return std::move(recorder.trace);
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

::testing::AssertionResult bitEqual(const std::vector<WindowResult>& got,
                                    const std::vector<WindowResult>& want,
                                    std::uint64_t retired) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure() << "result count differs";
  }
  for (std::size_t s = 0; s < got.size(); ++s) {
    const WindowResult& g = got[s];
    const WindowResult& w = want[s];
    if (g.windowSize != w.windowSize || g.windows != w.windows ||
        !sameBits(g.meanCp, w.meanCp) || !sameBits(g.meanIlp, w.meanIlp) ||
        !sameBits(g.minCp, w.minCp) || !sameBits(g.maxCp, w.maxCp)) {
      return ::testing::AssertionFailure()
             << "after " << retired << " records, W=" << w.windowSize
             << ": got windows=" << g.windows << " mean=" << g.meanCp
             << " min=" << g.minCp << " max=" << g.maxCp
             << ", want windows=" << w.windows << " mean=" << w.meanCp
             << " min=" << w.minCp << " max=" << w.maxCp;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Feeds `trace` to one analyzer record by record and to another in random
/// onRetireBlock splits, comparing both with the reference after every
/// call.
void checkTrace(std::span<const RetiredInst> trace, Slide slide,
                const LatencyTable* latencies, std::uint64_t seed) {
  SCOPED_TRACE("slide " + std::to_string(slide.num) + "/" +
               std::to_string(slide.den) +
               (latencies != nullptr ? " scaled" : ""));
  const testref::ReferenceWindows reference(trace, kSizes, slide.num,
                                            slide.den, latencies);

  WindowedCPAnalyzer single(kSizes, slide.num, slide.den, latencies);
  testref::ReferenceResults singleWant(reference);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    single.onRetire(trace[i]);
    ASSERT_TRUE(bitEqual(single.results(), singleWant.after(i + 1), i + 1));
  }

  std::mt19937_64 rng(seed);
  WindowedCPAnalyzer blocked(kSizes, slide.num, slide.den, latencies);
  testref::ReferenceResults blockedWant(reference);
  for (std::size_t pos = 0; pos < trace.size();) {
    const std::size_t length =
        std::min<std::size_t>(trace.size() - pos, 1 + rng() % 3000);
    blocked.onRetireBlock(trace.subspan(pos, length));
    pos += length;
    ASSERT_TRUE(bitEqual(blocked.results(), blockedWant.after(pos), pos));
  }
  blocked.onProgramEnd();
  ASSERT_TRUE(bitEqual(blocked.results(), blockedWant.after(trace.size()),
                       trace.size()));
}

void checkEveryConfig(const kgen::Module& module, std::uint64_t seed) {
  const LatencyTable latencies = scaledLatencies();
  for (const Arch arch : {Arch::Rv64, Arch::AArch64}) {
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      std::ostringstream where;
      where << module.name << " " << archName(arch) << " "
            << kgen::eraName(era);
      SCOPED_TRACE(where.str());
      const std::vector<RetiredInst> trace = record(module, arch, era);
      ASSERT_FALSE(trace.empty());
      for (const Slide slide : kSlides) {
        checkTrace(trace, slide, nullptr, seed);
        if (::testing::Test::HasFatalFailure()) return;
      }
      checkTrace(trace, {1, 2}, &latencies, seed);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class WindowedCpFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WindowedCpFuzz, MatchesBruteForceOnEveryConfig) {
  verify::conformance::KernelFuzzer fuzzer(GetParam());
  checkEveryConfig(fuzzer.generate(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedCpFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

class WindowedCpWorkload : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WindowedCpWorkload, MatchesBruteForceOnEveryConfig) {
  std::vector<workloads::WorkloadSpec> suite = workloads::paperSuite(0.01);
  ASSERT_LT(GetParam(), suite.size());
  checkEveryConfig(suite[GetParam()].module, 100 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(PaperSuite, WindowedCpWorkload,
                         ::testing::Range<std::size_t>(0, 5));

// At the largest accepted window and latency a window's CP is exactly
// 2^28, which the analyzer's 32-bit lanes must hold.
TEST(WindowedCpLimits, LargestWindowAndLatencyDoNotOverflow) {
  LatencyTable latencies{};
  latencies.fill(WindowedCPAnalyzer::kMaxLatency);
  const std::uint32_t size = WindowedCPAnalyzer::kMaxWindowSize;
  WindowedCPAnalyzer analyzer({size}, 1, 1, &latencies);
  RetiredInst inst;
  inst.srcs.push_back(Reg::gp(1));
  inst.dsts.push_back(Reg::gp(1));
  for (std::uint32_t i = 0; i < 2 * size; ++i) analyzer.onRetire(inst);
  const WindowResult result = analyzer.results()[0];
  EXPECT_EQ(result.windows, 2u);
  EXPECT_EQ(result.minCp, 268435456.0);
  EXPECT_EQ(result.maxCp, 268435456.0);
}

}  // namespace
}  // namespace riscmp
