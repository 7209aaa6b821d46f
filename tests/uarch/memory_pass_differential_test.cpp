// Differential test of MemoryPass, and of CacheModelAnalyzer,
// CacheAwareCpAnalyzer and MemSystemAnalyzer, which are configurations of
// it, against the three-hierarchy reference in memory_pass_reference.hpp.
// Hierarchy counters, per-kernel cache and TLB stats, line- and page-set
// digests, the cache-aware CP, the occupancy bounds and every scaling
// point must be equal whether the trace arrives record by record or in
// random onRetireBlock splits, and again after reset(). A setup is one of
// prefetchers none, next_line and stride, core counts {1}, {1,2,4} and
// {4,2,2,0}, and two geometries: the shipped riscv-tx2 caches and a tiny
// one that evicts and writes back constantly. Traces come from
// KernelFuzzer modules and hand-built records, which run every setup, and
// from the five paper workloads on all four ISA × compiler configs, whose
// four traces share the setups out between them. Hand-built records have
// 1-64-byte accesses that straddle lines and pages near both ends of the
// 64-bit address space.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hpp"
#include "kgen/compile.hpp"
#include "memory_pass_reference.hpp"
#include "support/fault.hpp"
#include "uarch/core_model.hpp"
#include "uarch/mem/cache_aware_cp.hpp"
#include "uarch/mem/cache_model.hpp"
#include "uarch/mem/mem_system.hpp"
#include "uarch/mem/memory_pass.hpp"
#include "verify/conformance/kernel_fuzzer.hpp"
#include "workloads/workloads.hpp"

namespace riscmp::uarch::mem {
namespace {

/// A non-unit latency per group, so the cache-aware CP mixes both costs.
LatencyTable scaledLatencies() {
  LatencyTable latencies{};
  for (std::size_t g = 0; g < latencies.size(); ++g) {
    latencies[g] = 1 + static_cast<std::uint32_t>((g * 7) % 13);
  }
  return latencies;
}

/// 512 B / 2-way L1D over a 2 KiB / 4-way L2 and a 4-entry TLB: every
/// workload thrashes both levels, so the shared L2s see dirty victims.
CacheConfig tinyConfig() {
  CacheConfig config;
  config.lineBytes = 64;
  config.l1d = {512, 2, 4};
  config.l2 = {2048, 4, 12};
  config.memoryLatency = 80;
  config.mshrs = 3;
  config.memBytesPerCycle = 16;
  TlbConfig tlb;
  tlb.l1Entries = 2;
  tlb.l1Ways = 2;
  tlb.l2Entries = 4;
  tlb.l2Ways = 2;
  config.tlb = tlb;
  return config;
}

/// One geometry × prefetcher × core-count combination.
struct Setup {
  std::string name;
  CacheConfig config;
  std::vector<unsigned> cores;
};

std::vector<Setup> allSetups() {
  const std::vector<std::pair<std::string, CacheConfig>> geometries = {
      {"tiny", tinyConfig()},
      {"riscv-tx2", *CoreModel::named("riscv-tx2").caches}};
  const std::vector<std::vector<unsigned>> coreSets = {
      {1}, {1, 2, 4}, {4, 2, 2, 0}};
  std::vector<Setup> setups;
  for (const auto& [geometry, base] : geometries) {
    for (const PrefetchKind prefetch :
         {PrefetchKind::None, PrefetchKind::NextLine, PrefetchKind::Stride}) {
      for (const std::vector<unsigned>& cores : coreSets) {
        std::ostringstream name;
        name << geometry << " " << prefetchKindName(prefetch) << " cores";
        for (const unsigned count : cores) name << " " << count;
        Setup setup{name.str(), base, cores};
        setup.config.prefetch = prefetch;
        setups.push_back(std::move(setup));
      }
    }
  }
  return setups;
}

/// The three reference analyzers.
struct Reference {
  Reference(const Setup& setup, const Program& program,
            const LatencyTable& latencies)
      : cache(setup.config, program),
        cp(latencies, setup.config),
        mem(setup.config, program, setup.cores) {}

  void retire(std::span<const RetiredInst> trace) {
    cache.retire(trace);
    cp.retire(trace);
    mem.retire(trace);
  }

  testref::CacheModelReference cache;
  testref::CacheAwareCpReference cp;
  testref::MemSystemReference mem;
};

/// The engine's pass with every consumer on, and the three wrappers.
struct Subject {
  Subject(const Setup& setup, const Program& program,
          const LatencyTable& latencies)
      : pass(setup.config, &program,
             {.cacheStats = true,
              .cpLatencies = &latencies,
              .memSystem = true,
              .coreCounts = setup.cores}),
        cache(setup.config, program),
        cp(latencies, setup.config),
        mem(setup.config, program, setup.cores) {}

  void onRetire(const RetiredInst& inst) {
    pass.onRetire(inst);
    cache.onRetire(inst);
    cp.onRetire(inst);
    mem.onRetire(inst);
  }
  void onRetireBlock(std::span<const RetiredInst> block) {
    pass.onRetireBlock(block);
    cache.onRetireBlock(block);
    cp.onRetireBlock(block);
    mem.onRetireBlock(block);
  }
  void reset() {
    pass.reset();
    cache.reset();
    cp.reset();
    mem.reset();
  }

  MemoryPass pass;
  CacheModelAnalyzer cache;
  CacheAwareCpAnalyzer cp;
  MemSystemAnalyzer mem;
};

::testing::AssertionResult matches(const Subject& got, const Reference& want,
                                   std::uint64_t retired) {
  const auto fail = [&](const char* what) {
    return ::testing::AssertionFailure()
           << what << " differs after " << retired << " records";
  };
  for (const std::uint64_t count :
       {got.pass.instructions(), got.cache.instructions(),
        got.cp.instructions(), got.mem.instructions(),
        want.cache.instructions(), want.cp.instructions(),
        want.mem.instructions()}) {
    if (count != retired) return fail("an instruction count");
  }

  const HierarchyStats& totals = want.cache.totals();
  if (want.cp.cacheStats() != totals || want.mem.hierarchyTotals() != totals) {
    return fail("the reference hierarchies' counters");
  }
  if (got.pass.hierarchyStats() != totals || got.cache.totals() != totals ||
      got.cp.cacheStats() != totals || got.mem.hierarchyTotals() != totals) {
    return fail("hierarchy counters");
  }

  if (got.pass.cacheKernels() != want.cache.kernels() ||
      got.cache.kernels() != want.cache.kernels()) {
    return fail("per-kernel cache stats");
  }
  if (got.pass.footprintLines() != want.cache.footprintLines() ||
      got.cache.footprintLines() != want.cache.footprintLines() ||
      got.pass.lineSetDigest() != want.cache.lineSetDigest() ||
      got.cache.lineSetDigest() != want.cache.lineSetDigest()) {
    return fail("the line-set footprint or digest");
  }

  if (got.pass.criticalPath() != want.cp.criticalPath() ||
      got.cp.criticalPath() != want.cp.criticalPath()) {
    return fail("the cache-aware CP")
           << ": " << got.pass.criticalPath() << "/"
           << got.cp.criticalPath() << " want " << want.cp.criticalPath();
  }

  const MemSummary summary = want.mem.summary();
  if (got.pass.memSummary() != summary || got.mem.summary() != summary) {
    return fail("the memory-system summary");
  }
  if (got.pass.memKernels() != want.mem.kernels() ||
      got.mem.kernels() != want.mem.kernels()) {
    return fail("per-kernel TLB stats");
  }
  const std::vector<ScalingPoint> points = want.mem.scaling();
  if (got.pass.scaling() != points || got.mem.scaling() != points) {
    return fail("a scaling point");
  }
  return ::testing::AssertionSuccess();
}

/// Feeds `trace` to one subject record by record (comparing every
/// `stride` records and at the end) and to another in random
/// onRetireBlock splits (comparing after every block); then resets the
/// second and replays the trace in new splits.
void checkSetup(const Setup& setup, const Program& program,
                std::span<const RetiredInst> trace, std::uint64_t seed,
                std::size_t maxBlock, std::size_t stride) {
  SCOPED_TRACE(setup.name);
  const LatencyTable latencies = scaledLatencies();

  Subject single(setup, program, latencies);
  Reference singleWant(setup, program, latencies);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    single.onRetire(trace[i]);
    singleWant.retire(trace.subspan(i, 1));
    if ((i + 1) % stride == 0 || i + 1 == trace.size()) {
      ASSERT_TRUE(matches(single, singleWant, i + 1));
    }
  }

  std::mt19937_64 rng(seed);
  Subject blocked(setup, program, latencies);
  for (int pass = 0; pass < 2; ++pass) {
    SCOPED_TRACE(pass == 0 ? "blocks" : "blocks after reset()");
    if (pass == 1) blocked.reset();
    Reference blockedWant(setup, program, latencies);
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

/// Runs every `every`-th setup from `first` on; every = 1 runs them all.
void checkTrace(const Program& program, std::span<const RetiredInst> trace,
                std::uint64_t seed, std::size_t maxBlock, std::size_t stride,
                std::size_t first = 0, std::size_t every = 1) {
  const std::vector<Setup> setups = allSetups();
  for (std::size_t s = first; s < setups.size(); s += every) {
    checkSetup(setups[s], program, trace, seed, maxBlock, stride);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

struct Recorder final : TraceObserver {
  std::vector<RetiredInst> trace;
  void onRetire(const RetiredInst& inst) override { trace.push_back(inst); }
};

/// Runs the module on all four ISA × compiler configs. Each config checks
/// all setups (`spread` false) or a quarter of them, so that the four
/// configs together cover every setup once.
void checkEveryConfig(const kgen::Module& module, std::uint64_t seed,
                      bool spread) {
  std::size_t config = 0;
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
      if (spread) {
        checkTrace(compiled.program, recorder.trace, seed, 3000, 97, config,
                   4);
      } else {
        checkTrace(compiled.program, recorder.trace, seed, 3000, 97);
      }
      if (::testing::Test::HasFatalFailure()) return;
      ++config;
    }
  }
}

class MemoryPassFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryPassFuzz, MatchesReferenceOnEveryConfig) {
  verify::conformance::KernelFuzzer fuzzer(GetParam());
  checkEveryConfig(fuzzer.generate(), GetParam(), false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPassFuzz,
                         ::testing::Range<std::uint64_t>(1, 5));

class MemoryPassWorkload : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MemoryPassWorkload, MatchesReferenceOnEveryConfig) {
  std::vector<workloads::WorkloadSpec> suite = workloads::paperSuite(0.01);
  ASSERT_LT(GetParam(), suite.size());
  checkEveryConfig(suite[GetParam()].module, 100 + GetParam(), true);
}

INSTANTIATE_TEST_SUITE_P(PaperSuite, MemoryPassWorkload,
                         ::testing::Range<std::size_t>(0, 5));

/// Two kernels with code left empty, so attribution takes the pc lookup.
Program handBuiltProgram() {
  Program program;
  program.kernels.push_back(Symbol{"low", 0x10000, 0x100});
  program.kernels.push_back(Symbol{"high", 0x10100, 0x100});
  return program;
}

/// Random records inside and outside both kernels, over a few address
/// regions: near 0, on both sides of line and 4 KiB page boundaries, just
/// below a core's 1 GiB arena offset, and at the top of the address
/// space, where a shifted core line wraps past 2^64. Access sizes are
/// 1-64 bytes.
std::vector<RetiredInst> handBuiltTrace(std::uint64_t seed,
                                        std::size_t count) {
  constexpr std::uint64_t kTop = ~std::uint64_t{0};
  const std::vector<std::uint64_t> bases = {
      0,         4096 - 40,          7 * 4096 - 24,  (1u << 20) - 32,
      (std::uint64_t{1} << 30) - 80, kTop - 4096 * 3 - 20,
      kTop - 191, kTop - 127};
  std::mt19937_64 rng(seed);
  const auto reg = [&] {
    return rng() % 2 == 0 ? Reg::gp(1 + static_cast<unsigned>(rng() % 6))
                          : Reg::fp(static_cast<unsigned>(rng() % 4));
  };
  const auto access = [&] {
    MemAccess out;
    out.addr = bases[rng() % bases.size()] + rng() % 64 * 8 + rng() % 8;
    out.size = static_cast<std::uint8_t>(1 + rng() % 64);
    return out;
  };
  std::vector<RetiredInst> trace(count);
  for (RetiredInst& inst : trace) {
    inst.pc = 0xff80 + 4 * (rng() % 160);
    inst.group = static_cast<InstGroup>(rng() % kInstGroupCount);
    for (std::uint64_t n = rng() % 3; n > 0; --n) inst.srcs.push_back(reg());
    for (std::uint64_t n = rng() % 2; n > 0; --n) inst.dsts.push_back(reg());
    for (std::uint64_t n = rng() % 3; n > 0; --n) {
      inst.loads.push_back(access());
    }
    for (std::uint64_t n = rng() % 3; n > 0; --n) {
      inst.stores.push_back(access());
    }
  }
  return trace;
}

class MemoryPassHandBuilt : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemoryPassHandBuilt, MatchesReference) {
  const Program program = handBuiltProgram();
  const std::vector<RetiredInst> trace = handBuiltTrace(GetParam(), 3000);
  checkTrace(program, trace, GetParam(), 64, 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryPassHandBuilt,
                         ::testing::Range<std::uint64_t>(1, 4));

// One L1 stands for every core only while a core's shifted lines keep
// their set index, i.e. while the set count divides kCoreOffsetLines. A
// 2^25-set L1D must be rejected before any cache is allocated.
TEST(MemoryPassConfig, RejectsMoreL1SetsThanTheCoreOffset) {
  CacheConfig config;
  config.lineBytes = 8;
  config.l1d = {(kCoreOffsetLines * 2) * 8, 1, 4};
  config.l2 = config.l1d;
  config.l2.latency = 12;
  ASSERT_EQ(config.l1Sets(), kCoreOffsetLines * 2);
  const Program program;
  const std::vector<unsigned> cores = {1, 2, 4};
  EXPECT_THROW(MemSystemAnalyzer(config, program, cores), ConfigError);
  EXPECT_THROW(MemoryPass(config, &program,
                          {.memSystem = true, .coreCounts = cores}),
               ConfigError);
}

}  // namespace
}  // namespace riscmp::uarch::mem
