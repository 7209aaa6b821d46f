// Golden test pinning the fault taxonomy's string forms (ISSUE 6).
//
// faultKindName() and every constructor's what() summary are a stable wire
// format: stored cell results, crash artifacts, and the bench failure
// footers all embed them, and the result store verifies digests over
// encoded results that contain them. Any change here is a format break —
// update the codec version, not just these strings.
#include <gtest/gtest.h>

#include "support/fault.hpp"

namespace riscmp {
namespace {

TEST(FaultGolden, KindNamesArePinned) {
  EXPECT_EQ(faultKindName(FaultKind::Decode), "DecodeFault");
  EXPECT_EQ(faultKindName(FaultKind::Memory), "MemoryFault");
  EXPECT_EQ(faultKindName(FaultKind::Trap), "TrapFault");
  EXPECT_EQ(faultKindName(FaultKind::Budget), "BudgetExceeded");
  EXPECT_EQ(faultKindName(FaultKind::Config), "ConfigError");
  EXPECT_EQ(faultKindName(FaultKind::Validation), "ValidationFault");
  EXPECT_EQ(faultKindName(FaultKind::Timeout), "TimeoutFault");
  EXPECT_EQ(faultKindName(FaultKind::Crash), "CrashFault");
}

TEST(FaultGolden, SummariesArePinned) {
  EXPECT_STREQ(DecodeFault(0xDEADBEEF, 0x10000).what(),
               "undecodable instruction 0xdeadbeef at pc 0x10000");
  EXPECT_STREQ(MemoryFault(0x8000, 8).what(),
               "memory fault: access of 8 bytes at 0x8000");
  EXPECT_STREQ(TrapFault("ebreak", 0x104).what(),
               "unhandled trap (ebreak) at pc 0x104");
  EXPECT_STREQ(BudgetExceeded(1000).what(),
               "instruction budget exceeded (1000)");
  EXPECT_STREQ(ConfigError("bad latency", "tx2.yaml", 7, "LOAD").what(),
               "config error: tx2.yaml: line 7: key 'LOAD': bad latency");
  EXPECT_STREQ(ValidationFault("stores diverge").what(),
               "validation fault: stores diverge");
}

TEST(FaultGolden, TimeoutSummaryIsPinned) {
  const TimeoutFault fault(2500);
  EXPECT_EQ(fault.kind(), FaultKind::Timeout);
  EXPECT_EQ(fault.deadlineMs(), 2500u);
  EXPECT_STREQ(fault.what(), "wall-clock deadline exceeded (2500 ms)");
}

TEST(FaultGolden, CrashSignalSummaryIsPinned) {
  const CrashFault fault(11, "LBM/GCC 12.2 RISC-V");
  EXPECT_EQ(fault.kind(), FaultKind::Crash);
  EXPECT_EQ(fault.signo(), 11);
  EXPECT_EQ(fault.exitCode(), 0);
  EXPECT_EQ(fault.cell(), "LBM/GCC 12.2 RISC-V");
  EXPECT_STREQ(fault.what(),
               "worker for cell 'LBM/GCC 12.2 RISC-V' killed by SIGSEGV "
               "(signal 11)");
}

TEST(FaultGolden, CrashExitSummaryIsPinned) {
  const CrashFault fault = CrashFault::exited(3, "STREAM/GCC 9.2 AArch64");
  EXPECT_EQ(fault.signo(), 0);
  EXPECT_EQ(fault.exitCode(), 3);
  EXPECT_STREQ(fault.what(),
               "worker for cell 'STREAM/GCC 9.2 AArch64' exited without a "
               "result (code 3)");
}

TEST(FaultGolden, SignalNamesArePinned) {
  EXPECT_EQ(signalName(1), "SIGHUP");
  EXPECT_EQ(signalName(2), "SIGINT");
  EXPECT_EQ(signalName(4), "SIGILL");
  EXPECT_EQ(signalName(6), "SIGABRT");
  EXPECT_EQ(signalName(7), "SIGBUS");
  EXPECT_EQ(signalName(8), "SIGFPE");
  EXPECT_EQ(signalName(9), "SIGKILL");
  EXPECT_EQ(signalName(11), "SIGSEGV");
  EXPECT_EQ(signalName(13), "SIGPIPE");
  EXPECT_EQ(signalName(15), "SIGTERM");
  EXPECT_EQ(signalName(42), "signal 42");
}

TEST(FaultGolden, ReportWithoutContextIsStable) {
  const TimeoutFault fault(100);
  EXPECT_EQ(fault.report(),
            "=== FAULT REPORT: TimeoutFault ===\n"
            "  wall-clock deadline exceeded (100 ms)\n"
            "=== END FAULT REPORT ===");
}

}  // namespace
}  // namespace riscmp
