#include <gtest/gtest.h>

#include <string>

#include "analysis/path_length.hpp"
#include "core/machine.hpp"
#include "riscv/asm.hpp"
#include "support/fault.hpp"

namespace riscmp {
namespace {

TEST(PathLength, AttributesPerKernelRegion) {
  Program program;
  program.kernels = {{"copy", 0x1000, 0x10}, {"scale", 0x1010, 0x10}};
  PathLengthCounter counter(program);

  RetiredInst inst;
  inst.pc = 0x1000;
  counter.onRetire(inst);
  inst.pc = 0x1008;
  counter.onRetire(inst);
  inst.pc = 0x1010;
  counter.onRetire(inst);
  inst.pc = 0x2000;  // outside all regions
  counter.onRetire(inst);

  EXPECT_EQ(counter.total(), 4u);
  EXPECT_EQ(counter.kernelCount("copy"), 2u);
  EXPECT_EQ(counter.kernelCount("scale"), 1u);
  EXPECT_EQ(counter.kernelCount("bogus"), 0u);
  EXPECT_EQ(counter.unattributed(), 1u);
}

TEST(PathLength, OverlappingKernelRegionsRejectedAtConstruction) {
  Program program;
  program.kernels = {{"copy", 0x1000, 0x20}, {"scale", 0x1010, 0x20}};
  try {
    PathLengthCounter counter(program);
    FAIL() << "expected ValidationFault for overlapping kernel regions";
  } catch (const ValidationFault& fault) {
    const std::string what = fault.what();
    EXPECT_NE(what.find("copy"), std::string::npos) << what;
    EXPECT_NE(what.find("scale"), std::string::npos) << what;
    EXPECT_NE(what.find("overlap"), std::string::npos) << what;
  }
}

TEST(PathLength, AdjacentKernelRegionsAccepted) {
  Program program;
  program.kernels = {{"copy", 0x1000, 0x10}, {"scale", 0x1010, 0x10}};
  EXPECT_NO_THROW(PathLengthCounter{program});
}

TEST(PathLength, GroupMixCounted) {
  Program program;
  PathLengthCounter counter(program);
  RetiredInst branch;
  branch.group = InstGroup::Branch;
  RetiredInst mul;
  mul.group = InstGroup::FpMul;
  counter.onRetire(branch);
  counter.onRetire(branch);
  counter.onRetire(mul);
  EXPECT_EQ(counter.branchCount(), 2u);
  EXPECT_EQ(counter.groupCount(InstGroup::FpMul), 1u);
  EXPECT_EQ(counter.groupCount(InstGroup::IntDiv), 0u);
}

TEST(PathLength, EndToEndWithMachine) {
  Program program;
  program.arch = Arch::Rv64;
  program.codeBase = Program::kCodeBase;
  program.entry = program.codeBase;
  program.code = rv64::assemble(
      "  li a1, 8\n"       // 1 instruction of setup
      "loop:\n"
      "  addi a1, a1, -1\n"
      "  bnez a1, loop\n"
      "  li a7, 93\n"
      "  ecall\n",
      program.codeBase);
  // The loop body spans words 1..2 (addresses base+4 .. base+12).
  program.kernels = {{"loop", program.codeBase + 4, 8}};

  PathLengthCounter counter(program);
  Machine machine(program);
  machine.addObserver(counter);
  const RunResult result = machine.run();

  EXPECT_EQ(counter.total(), result.instructions);
  EXPECT_EQ(counter.kernelCount("loop"), 16u);  // 8 iterations x 2
  EXPECT_EQ(counter.unattributed(), 3u);        // li + li + ecall
  EXPECT_EQ(counter.branchCount(), 8u);
}

TEST(PathLength, ResetKeepsRegionsAndZerosCounts) {
  Program program;
  program.kernels = {{"copy", 0x1000, 0x10}};
  PathLengthCounter counter(program);
  RetiredInst inst;
  inst.pc = 0x1000;
  inst.group = InstGroup::Branch;
  counter.onRetire(inst);
  inst.pc = 0x2000;
  counter.onRetire(inst);

  counter.reset();
  EXPECT_EQ(counter.total(), 0u);
  EXPECT_EQ(counter.kernelCount("copy"), 0u);
  EXPECT_EQ(counter.unattributed(), 0u);
  EXPECT_EQ(counter.branchCount(), 0u);

  // Region attribution still works after reset.
  inst.pc = 0x1008;
  counter.onRetire(inst);
  EXPECT_EQ(counter.total(), 1u);
  EXPECT_EQ(counter.kernelCount("copy"), 1u);
}

// A zero-size symbol inside a kernel covers nothing: a record past it
// still counts toward the kernel whether or not it carries a staticIndex.
TEST(PathLength, ZeroSizeSymbolInsideKernelHidesNothing) {
  Program program;
  program.codeBase = Program::kCodeBase;
  program.code.assign(0x40, 0);  // [0x10000, 0x10100)
  program.kernels = {{"A", 0x10000, 0x100}, {"Z", 0x10080, 0}};
  PathLengthCounter counter(program);

  RetiredInst stamped;
  stamped.pc = 0x100c0;
  stamped.staticIndex = 0x30;
  counter.onRetire(stamped);
  RetiredInst unstamped;
  unstamped.pc = 0x100c0;
  counter.onRetire(unstamped);

  EXPECT_EQ(counter.kernelCount("A"), 2u);
  EXPECT_EQ(counter.kernelCount("Z"), 0u);
  EXPECT_EQ(counter.unattributed(), 0u);
}

}  // namespace
}  // namespace riscmp
