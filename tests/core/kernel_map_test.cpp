// KernelMap: kernel-name slots, the overlap check, and agreement between
// the per-word table (stamped records) and the pc lookup (records without
// a staticIndex).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/kernel_map.hpp"
#include "support/fault.hpp"

namespace riscmp {
namespace {

/// A program whose code image is `words` words at Program::kCodeBase.
Program programWith(std::size_t words, std::vector<Symbol> kernels) {
  Program program;
  program.codeBase = Program::kCodeBase;
  program.code.assign(words, 0);
  program.kernels = std::move(kernels);
  return program;
}

RetiredInst stamped(const Program& program, std::uint32_t word) {
  RetiredInst inst;
  inst.pc = program.codeBase + 4 * std::uint64_t{word};
  inst.staticIndex = word;
  return inst;
}

RetiredInst unstamped(std::uint64_t pc) {
  RetiredInst inst;
  inst.pc = pc;
  return inst;
}

/// Every code word's stamped answer equals the pc lookup of its pc.
void expectTableMatchesPcLookup(const Program& program, const KernelMap& map) {
  for (std::uint32_t w = 0; w < program.code.size(); ++w) {
    const RetiredInst inst = stamped(program, w);
    EXPECT_EQ(map.kernelOf(inst), map.kernelAt(inst.pc)) << "word " << w;
    EXPECT_EQ(map.kernelOf(inst), map.kernelOf(unstamped(inst.pc)))
        << "word " << w;
  }
}

TEST(KernelMap, SharedNamesAggregateInFirstAppearanceOrder) {
  const Program program =
      programWith(16, {{"b", 0x10000, 8},
                       {"a", 0x10008, 8},
                       {"b", 0x10010, 8},
                       {"c", 0x10018, 8}});
  const KernelMap map(program);
  EXPECT_EQ(map.names(), (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(map.kernelOf(stamped(program, 0)), 0);
  EXPECT_EQ(map.kernelOf(stamped(program, 2)), 1);
  EXPECT_EQ(map.kernelOf(stamped(program, 4)), 0);
  EXPECT_EQ(map.kernelOf(stamped(program, 6)), 2);
  EXPECT_EQ(map.kernelOf(stamped(program, 8)), -1);
  EXPECT_EQ(map.kernelAt(0x10014), 0);
  expectTableMatchesPcLookup(program, map);
}

TEST(KernelMap, AdjacentRegionsSplitAtTheBoundary) {
  // Listed out of address order: slots follow the symbol table, lookups
  // follow addresses.
  const Program program =
      programWith(8, {{"second", 0x10010, 0x10}, {"first", 0x10000, 0x10}});
  const KernelMap map(program);
  EXPECT_EQ(map.names(), (std::vector<std::string>{"second", "first"}));
  EXPECT_EQ(map.kernelAt(0x1000c), 1);
  EXPECT_EQ(map.kernelAt(0x1000f), 1);
  EXPECT_EQ(map.kernelAt(0x10010), 0);
  EXPECT_EQ(map.kernelAt(0x1001f), 0);
  EXPECT_EQ(map.kernelAt(0x10020), -1);
  expectTableMatchesPcLookup(program, map);
}

TEST(KernelMap, OverlapNamesBothSymbols) {
  const Program program =
      programWith(16, {{"copy", 0x10000, 0x20}, {"scale", 0x10010, 0x20}});
  try {
    const KernelMap map(program);
    FAIL() << "expected ValidationFault for overlapping kernel regions";
  } catch (const ValidationFault& fault) {
    EXPECT_NE(std::string(fault.what())
                  .find("kernel regions overlap: 'copy' [0x10000, 0x10020) "
                        "and 'scale' [0x10010, 0x10030)"),
              std::string::npos)
        << fault.what();
  }
}

TEST(KernelMap, ZeroSizeSymbolsCoverNothingAndHideNothing) {
  const Program program = programWith(
      0x40, {{"A", 0x10000, 0x100}, {"Z", 0x10080, 0}, {"E", 0x10200, 0}});
  const KernelMap map(program);
  // Zero-size symbols still own a name slot, as every other symbol does.
  EXPECT_EQ(map.names(), (std::vector<std::string>{"A", "Z", "E"}));
  EXPECT_EQ(map.kernelAt(0x10080), 0);
  EXPECT_EQ(map.kernelAt(0x100c0), 0);
  EXPECT_EQ(map.kernelOf(unstamped(0x100c0)), 0);
  EXPECT_EQ(map.kernelOf(stamped(program, 0x30)), 0);
  EXPECT_EQ(map.kernelAt(0x10200), -1);
  expectTableMatchesPcLookup(program, map);
}

TEST(KernelMap, ZeroSizeSymbolDoesNotMaskAnOverlap) {
  // Sorted by address the zero-size symbol sits between the two
  // overlapping regions; it must not separate them.
  const Program program = programWith(
      0x40, {{"A", 0x10000, 0x100}, {"Z", 0x10080, 0}, {"B", 0x100c0, 0x10}});
  EXPECT_THROW(KernelMap{program}, ValidationFault);
}

TEST(KernelMap, PcsOutsideTheCodeImage) {
  const Program program = programWith(4, {{"k", 0x10000, 0x10}});
  const KernelMap map(program);
  EXPECT_EQ(map.kernelOf(unstamped(0)), -1);
  EXPECT_EQ(map.kernelOf(unstamped(0xfffc)), -1);
  EXPECT_EQ(map.kernelOf(unstamped(0x10010)), -1);
  EXPECT_EQ(map.kernelOf(unstamped(~std::uint64_t{0})), -1);
  // A staticIndex past the table falls back to the pc.
  RetiredInst inst = unstamped(0x10004);
  inst.staticIndex = 4;
  EXPECT_EQ(map.kernelOf(inst), 0);
  inst.pc = 0x20000;
  EXPECT_EQ(map.kernelOf(inst), -1);
}

TEST(KernelMap, SymbolRunningPastCodeEnd) {
  const Program program = programWith(
      8, {{"head", 0x10000, 8}, {"tail", 0x10008, 0x100}});
  ASSERT_EQ(program.codeEnd(), 0x10020u);
  const KernelMap map(program);
  for (std::uint32_t w = 2; w < 8; ++w) {
    EXPECT_EQ(map.kernelOf(stamped(program, w)), 1) << "word " << w;
  }
  EXPECT_EQ(map.kernelOf(unstamped(0x10020)), 1);
  EXPECT_EQ(map.kernelOf(unstamped(0x10104)), 1);
  EXPECT_EQ(map.kernelOf(unstamped(0x10108)), -1);
  expectTableMatchesPcLookup(program, map);
}

TEST(KernelMap, SymbolStartingBeforeCodeBase) {
  const Program program = programWith(8, {{"k", 0xfff0, 0x18}});
  const KernelMap map(program);
  EXPECT_EQ(map.kernelOf(stamped(program, 1)), 0);
  EXPECT_EQ(map.kernelOf(stamped(program, 2)), -1);
  EXPECT_EQ(map.kernelOf(unstamped(0xfff0)), 0);
  expectTableMatchesPcLookup(program, map);
}

}  // namespace
}  // namespace riscmp
