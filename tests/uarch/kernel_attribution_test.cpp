// Kernel attribution across the five per-kernel analyses. On the paper
// workloads (scale 0.01) under all four ISA × compiler configs:
//  - every code word's KernelMap slot equals the pc lookup's answer for
//    that word's pc;
//  - PathLengthCounter, ThroughputBoundAnalyzer, CacheModelAnalyzer,
//    MemSystemAnalyzer and FusionPass report identical per-kernel results
//    whether their records carry the core's staticIndex or have it
//    cleared to kNoStaticIndex, so the pc lookup is exercised on every
//    record of a real trace.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/path_length.hpp"
#include "analysis/throughput_bound.hpp"
#include "core/kernel_map.hpp"
#include "core/machine.hpp"
#include "kgen/compile.hpp"
#include "uarch/core_model.hpp"
#include "uarch/fusion/fusion.hpp"
#include "uarch/mem/cache_model.hpp"
#include "uarch/mem/mem_system.hpp"
#include "workloads/workloads.hpp"

namespace riscmp {
namespace {

constexpr unsigned kCoreCounts[] = {1, 2};

/// The five analyses, with a path-length counter behind the fusion pass so
/// the fused stream's attribution is compared too.
struct Analyzers {
  Analyzers(const Program& program, const uarch::CoreModel& model)
      : pathLength(program),
        throughput(model.throughputModel(), program),
        cache(*model.caches, program),
        mem(*model.caches, program, kCoreCounts),
        fusedPathLength(program),
        fusion(uarch::FusionConfig::allRulesFor(program.arch), program,
               {&fusedPathLength}) {}

  std::vector<TraceObserver*> observers() {
    return {&pathLength, &throughput, &cache, &mem, &fusion};
  }

  PathLengthCounter pathLength;
  ThroughputBoundAnalyzer throughput;
  uarch::mem::CacheModelAnalyzer cache;
  uarch::mem::MemSystemAnalyzer mem;
  PathLengthCounter fusedPathLength;
  uarch::FusionPass fusion;
};

/// Forwards the retired stream to `downstream` with every staticIndex
/// cleared, as a hand-built trace would arrive.
class StripStaticIndex final : public TraceObserver {
 public:
  explicit StripStaticIndex(std::vector<TraceObserver*> downstream)
      : downstream_(std::move(downstream)) {}

  void onRetire(const RetiredInst& inst) override {
    onRetireBlock({&inst, 1});
  }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    buffer_.assign(block.begin(), block.end());
    for (RetiredInst& inst : buffer_) {
      inst.staticIndex = RetiredInst::kNoStaticIndex;
    }
    for (TraceObserver* observer : downstream_) {
      observer->onRetireBlock(buffer_);
    }
  }
  void onProgramEnd() override {
    for (TraceObserver* observer : downstream_) observer->onProgramEnd();
  }

 private:
  std::vector<TraceObserver*> downstream_;
  std::vector<RetiredInst> buffer_;
};

void describePathLength(std::ostream& out, const PathLengthCounter& counter) {
  out << "total=" << counter.total()
      << " unattributed=" << counter.unattributed();
  for (const PathLengthCounter::KernelCount& kernel : counter.kernels()) {
    out << " " << kernel.name << "=" << kernel.count;
  }
  out << "\n";
}

void describeBound(std::ostream& out,
                   const ThroughputBoundAnalyzer::KernelBound& bound) {
  out << bound.name << " inst=" << bound.instructions << " ports=";
  for (const std::uint64_t cycles : bound.portCycles) out << cycles << ",";
  out << " port=" << bound.portBound << "(" << bound.bindingPort << ")"
      << " issue=" << bound.issueBound << " cp=" << bound.cpBound << "\n";
}

/// Every per-kernel and whole-program result of the five analyses as text,
/// so a mismatch prints the differing line.
std::string describe(const Analyzers& analyzers) {
  std::ostringstream out;
  out << "path_length ";
  describePathLength(out, analyzers.pathLength);

  for (const auto& bound : analyzers.throughput.kernels()) {
    out << "throughput ";
    describeBound(out, bound);
  }
  out << "throughput ";
  describeBound(out, analyzers.throughput.program());

  for (const auto& stats : analyzers.cache.kernels()) {
    out << "cache " << stats.name << " inst=" << stats.instructions
        << " loads=" << stats.loads << " stores=" << stats.stores
        << " l1=" << stats.l1Misses << " l2=" << stats.l2Misses
        << " lines=" << stats.footprintLines
        << " digest=" << stats.lineSetDigest << "\n";
  }
  out << "cache program lines=" << analyzers.cache.footprintLines()
      << " digest=" << analyzers.cache.lineSetDigest()
      << " l1=" << analyzers.cache.totals().l1Misses
      << " l2=" << analyzers.cache.totals().l2Misses << "\n";

  for (const auto& stats : analyzers.mem.kernels()) {
    out << "mem " << stats.name << " inst=" << stats.instructions
        << " tlb=" << stats.tlbAccesses << " walks=" << stats.tlbWalks
        << " pages=" << stats.footprintPages
        << " digest=" << stats.pageSetDigest << "\n";
  }
  const uarch::mem::MemSummary summary = analyzers.mem.summary();
  out << "mem program pages=" << summary.footprintPages
      << " digest=" << summary.pageSetDigest
      << " bytes=" << summary.totalBytes() << "\n";

  out << "fusion pairs=" << analyzers.fusion.pairs()
      << " unattributed=" << analyzers.fusion.unattributedPairs()
      << " output=" << analyzers.fusion.outputInstructions() << "\n";
  for (const auto& kernel : analyzers.fusion.kernels()) {
    out << "fusion " << kernel.name << " pairs=" << kernel.pairs << " rules=";
    for (const std::uint64_t count : kernel.byRule) out << count << ",";
    out << "\n";
  }
  out << "fused_path_length ";
  describePathLength(out, analyzers.fusedPathLength);
  return out.str();
}

class KernelAttribution : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelAttribution, StaticIndexAndPcLookupAgree) {
  const std::vector<workloads::WorkloadSpec> suite =
      workloads::paperSuite(0.01);
  ASSERT_LT(GetParam(), suite.size());
  const workloads::WorkloadSpec& workload = suite[GetParam()];

  for (const Arch arch : {Arch::Rv64, Arch::AArch64}) {
    const uarch::CoreModel model =
        uarch::CoreModel::named(arch == Arch::Rv64 ? "riscv-tx2" : "tx2");
    ASSERT_TRUE(model.caches.has_value());
    for (const kgen::CompilerEra era :
         {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
      SCOPED_TRACE(workload.name + " " + std::string(archName(arch)) + " " +
                   std::string(kgen::eraName(era)));
      const kgen::Compiled compiled =
          kgen::compile(workload.module, arch, era);
      const Program& program = compiled.program;

      const KernelMap map(program);
      for (std::uint32_t w = 0; w < program.code.size(); ++w) {
        RetiredInst inst;
        inst.pc = program.codeBase + 4 * std::uint64_t{w};
        inst.staticIndex = w;
        ASSERT_EQ(map.kernelOf(inst), map.kernelAt(inst.pc))
            << "word " << w;
      }

      Analyzers withIndex(program, model);
      Analyzers withoutIndex(program, model);
      StripStaticIndex strip(withoutIndex.observers());
      Machine machine(program);
      for (TraceObserver* observer : withIndex.observers()) {
        machine.addObserver(*observer);
      }
      machine.addObserver(strip);
      machine.run();

      ASSERT_GT(withIndex.pathLength.total(), 0u);
      ASSERT_GT(withIndex.pathLength.total(),
                withIndex.pathLength.unattributed());
      EXPECT_EQ(describe(withIndex), describe(withoutIndex));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSuite, KernelAttribution,
                         ::testing::Range<std::size_t>(0, 5));

}  // namespace
}  // namespace riscmp
