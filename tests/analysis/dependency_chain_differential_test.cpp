// Differential test of DependencyChainAnalyzer, and of CriticalPathAnalyzer
// and DependencyDistanceAnalyzer, which are configurations of it, against
// the separate-table reference in dependency_chain_reference.hpp. CP,
// scaled CP, dependency count, mean distance, histogram and
// fractionWithin(4/16/64) must be bit-equal after every call, whether the
// trace arrives record by record or in random onRetireBlock splits, and
// again after reset(). Traces come from KernelFuzzer modules, the five
// paper workloads on all four ISA × compiler configs, and hand-built
// records whose 1-64-byte accesses straddle 512-chunk pages and sit near
// both ends of the 64-bit address space.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/dep_distance.hpp"
#include "analysis/dependency_chain.hpp"
#include "core/machine.hpp"
#include "dependency_chain_reference.hpp"
#include "kgen/compile.hpp"
#include "verify/conformance/kernel_fuzzer.hpp"
#include "workloads/workloads.hpp"

namespace riscmp {
namespace {

/// A non-unit latency per group, so scaled depths differ from counts.
LatencyTable scaledLatencies() {
  LatencyTable latencies{};
  for (std::size_t g = 0; g < latencies.size(); ++g) {
    latencies[g] = 1 + static_cast<std::uint32_t>((g * 7) % 13);
  }
  return latencies;
}

/// The three reference analyses.
struct Reference {
  explicit Reference(const LatencyTable& latencies) : scaled(&latencies) {}

  void retire(std::span<const RetiredInst> trace) {
    unit.retire(trace);
    scaled.retire(trace);
    distances.retire(trace);
  }

  testref::CriticalPathReference unit;
  testref::CriticalPathReference scaled;
  testref::DependencyDistanceReference distances;
};

/// The shared analyzer with every analysis on, and the wrapper classes.
struct Subject {
  explicit Subject(const LatencyTable& latencies)
      : chain(&latencies, true), scaled(latencies) {}

  void onRetire(const RetiredInst& inst) {
    chain.onRetire(inst);
    unit.onRetire(inst);
    scaled.onRetire(inst);
    distances.onRetire(inst);
  }
  void onRetireBlock(std::span<const RetiredInst> block) {
    chain.onRetireBlock(block);
    unit.onRetireBlock(block);
    scaled.onRetireBlock(block);
    distances.onRetireBlock(block);
  }
  void reset() {
    chain.reset();
    unit.reset();
    scaled.reset();
    distances.reset();
  }

  DependencyChainAnalyzer chain;
  CriticalPathAnalyzer unit;
  CriticalPathAnalyzer scaled;
  DependencyDistanceAnalyzer distances;
};

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Distance results of `got` (the chain or its wrapper) against `want`.
template <typename Distances>
::testing::AssertionResult sameDistances(const char* what,
                                         const Distances& got,
                                         const Reference& reference) {
  const testref::DependencyDistanceReference& want = reference.distances;
  if (got.dependencies() != want.dependencies() ||
      !sameBits(got.meanDistance(), want.meanDistance()) ||
      got.histogram() != want.histogram()) {
    return ::testing::AssertionFailure()
           << what << ": dependencies " << got.dependencies() << " vs "
           << want.dependencies() << ", mean " << got.meanDistance()
           << " vs " << want.meanDistance() << " (or histogram differs)";
  }
  for (const std::uint64_t window : {4, 16, 64}) {
    if (!sameBits(got.fractionWithin(window), want.fractionWithin(window))) {
      return ::testing::AssertionFailure()
             << what << ": fractionWithin(" << window << ") "
             << got.fractionWithin(window) << " vs "
             << want.fractionWithin(window);
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult matches(const Subject& got,
                                   const Reference& want,
                                   std::uint64_t retired) {
  const std::uint64_t cp = want.unit.criticalPath();
  const std::uint64_t scaledCp = want.scaled.criticalPath();
  if (got.chain.criticalPath() != cp || got.unit.criticalPath() != cp ||
      got.chain.scaledCriticalPath() != scaledCp ||
      got.scaled.criticalPath() != scaledCp) {
    return ::testing::AssertionFailure()
           << "after " << retired << " records: CP chain/wrapper "
           << got.chain.criticalPath() << "/" << got.unit.criticalPath()
           << " want " << cp << ", scaled CP chain/wrapper "
           << got.chain.scaledCriticalPath() << "/"
           << got.scaled.criticalPath() << " want " << scaledCp;
  }
  if (got.chain.instructions() != retired ||
      got.unit.instructions() != retired ||
      got.scaled.instructions() != retired ||
      got.distances.instructions() != retired ||
      want.unit.instructions() != retired ||
      want.distances.instructions() != retired) {
    return ::testing::AssertionFailure()
           << "instruction counts differ from " << retired;
  }
  if (auto result = sameDistances("chain", got.chain, want); !result) {
    return result << " after " << retired << " records";
  }
  if (auto result = sameDistances("wrapper", got.distances, want); !result) {
    return result << " after " << retired << " records";
  }
  return ::testing::AssertionSuccess();
}

/// Feeds `trace` to one subject record by record and to another in random
/// onRetireBlock splits, comparing both with the reference after every
/// call; then resets the second and replays the trace in new splits.
void checkTrace(std::span<const RetiredInst> trace, std::uint64_t seed,
                std::size_t maxBlock) {
  const LatencyTable latencies = scaledLatencies();

  Subject single(latencies);
  Reference singleWant(latencies);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    single.onRetire(trace[i]);
    singleWant.retire(trace.subspan(i, 1));
    ASSERT_TRUE(matches(single, singleWant, i + 1));
  }

  std::mt19937_64 rng(seed);
  Subject blocked(latencies);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "blocks" : "blocks after reset()");
    if (pass == 1) blocked.reset();
    Reference blockedWant(latencies);
    for (std::size_t pos = 0; pos < trace.size();) {
      const std::size_t length =
          std::min<std::size_t>(trace.size() - pos, 1 + rng() % maxBlock);
      blocked.onRetireBlock(trace.subspan(pos, length));
      blockedWant.retire(trace.subspan(pos, length));
      pos += length;
      ASSERT_TRUE(matches(blocked, blockedWant, pos));
    }
  }
}

struct Recorder final : TraceObserver {
  std::vector<RetiredInst> trace;
  void onRetire(const RetiredInst& inst) override { trace.push_back(inst); }
};

void checkEveryConfig(const kgen::Module& module, std::uint64_t seed) {
  for (const Arch arch : {Arch::Rv64, Arch::AArch64}) {
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      std::ostringstream where;
      where << module.name << " " << archName(arch) << " "
            << kgen::eraName(era);
      SCOPED_TRACE(where.str());
      const kgen::Compiled compiled = kgen::compile(module, arch, era);
      Machine machine(compiled.program);
      Recorder recorder;
      machine.addObserver(recorder);
      machine.run();
      ASSERT_FALSE(recorder.trace.empty());
      checkTrace(recorder.trace, seed, 3000);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

class DependencyChainFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DependencyChainFuzz, MatchesReferenceOnEveryConfig) {
  verify::conformance::KernelFuzzer fuzzer(GetParam());
  checkEveryConfig(fuzzer.generate(), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependencyChainFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

class DependencyChainWorkload
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DependencyChainWorkload, MatchesReferenceOnEveryConfig) {
  std::vector<workloads::WorkloadSpec> suite = workloads::paperSuite(0.01);
  ASSERT_LT(GetParam(), suite.size());
  checkEveryConfig(suite[GetParam()].module, 100 + GetParam());
}

INSTANTIATE_TEST_SUITE_P(PaperSuite, DependencyChainWorkload,
                         ::testing::Range<std::size_t>(0, 5));

/// Random records over a few registers and a few address regions: near 0,
/// on both sides of 512-chunk (4 KiB) page boundaries, and at the top of
/// the address space, where an access can end exactly at 2^64 - 1 or wrap
/// past it. Access sizes are 1-64 bytes.
std::vector<RetiredInst> handBuiltTrace(std::uint64_t seed,
                                        std::size_t count) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  const std::vector<std::uint64_t> bases = {
      0,          8,           4096 - 40,       7 * 4096 - 24,
      (1u << 20) - 32,         kTop - 4096 * 3 - 20,
      kTop - 127, kTop - 63,   kTop - 7};
  std::mt19937_64 rng(seed);
  const auto reg = [&] {
    switch (rng() % 3) {
      case 0: return Reg::gp(1 + static_cast<unsigned>(rng() % 6));
      case 1: return Reg::fp(static_cast<unsigned>(rng() % 4));
      default: return Reg::flags();
    }
  };
  const auto access = [&] {
    MemAccess out;
    out.addr = bases[rng() % bases.size()] + rng() % 96;
    out.size = static_cast<std::uint8_t>(1 + rng() % 64);
    return out;
  };
  std::vector<RetiredInst> trace(count);
  for (RetiredInst& inst : trace) {
    inst.group = static_cast<InstGroup>(rng() % kInstGroupCount);
    for (std::uint64_t n = rng() % 4; n > 0; --n) inst.srcs.push_back(reg());
    for (std::uint64_t n = rng() % 3; n > 0; --n) inst.dsts.push_back(reg());
    for (std::uint64_t n = rng() % 3; n > 0; --n) {
      inst.loads.push_back(access());
    }
    for (std::uint64_t n = rng() % 3; n > 0; --n) {
      inst.stores.push_back(access());
    }
  }
  return trace;
}

class DependencyChainHandBuilt
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DependencyChainHandBuilt, MatchesReference) {
  const std::vector<RetiredInst> trace = handBuiltTrace(GetParam(), 4000);
  checkTrace(trace, GetParam(), 64);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DependencyChainHandBuilt,
                         ::testing::Range<std::uint64_t>(1, 5));

// A 64-byte store that straddles a page boundary links all nine chunks it
// covers; an access running past 2^64 - 1 covers no chunk (its end address
// wraps), in the analyzer as in the reference.
TEST(DependencyChainEdges, PageStraddleAndAddressSpaceEnd) {
  const LatencyTable latencies = scaledLatencies();
  const auto record = [](std::uint64_t addr, std::uint8_t size, bool store) {
    RetiredInst inst;
    (store ? inst.stores : inst.loads).push_back({addr, size});
    return inst;
  };
  const std::vector<RetiredInst> trace = {
      record(4096 - 36, 64, true),             // chunks 507..515
      record(4096 - 40, 8, false),             // chunk 507: linked
      record(4096 + 24, 8, false),             // chunk 515: linked
      record(4096 + 32, 8, false),             // chunk 516: not written
      record(~std::uint64_t{0} - 7, 8, true),  // last chunk of the space
      record(~std::uint64_t{0} - 3, 4, false),  // linked
      record(~std::uint64_t{0} - 3, 8, false),  // wraps: no chunk
  };
  Subject subject(latencies);
  Reference reference(latencies);
  subject.onRetireBlock(trace);
  reference.retire(trace);
  ASSERT_TRUE(matches(subject, reference, trace.size()));
  EXPECT_EQ(subject.chain.criticalPath(), 2u);
  EXPECT_EQ(subject.chain.dependencies(), 3u);
  EXPECT_EQ(subject.distances.histogram()[0], 2u);  // distances 1 and 1
  EXPECT_EQ(subject.distances.histogram()[1], 1u);  // distance 2
}

}  // namespace
}  // namespace riscmp
