// Structured fault taxonomy shared by every layer of the simulator.
//
// Any failure the engine can diagnose is thrown as a subclass of `Fault`,
// which carries (a) a machine-readable kind, (b) a one-line summary served
// through what(), and (c) — once the emulation core has had a chance to
// annotate it — a MachineContext snapshot (pc, retired-instruction count,
// faulting word and its disassembly, enclosing kernel, register file).
// `Fault::report()` renders everything as a multi-line crash report so no
// failure ever surfaces as a bare what() string.
//
// The taxonomy (ISSUE 1, extended by ISSUE 6):
//   DecodeFault     — a word no decoder accepts, or decode out of bounds
//   MemoryFault     — simulated access outside the memory arena
//   TrapFault       — an architectural trap the core does not service
//                     (ebreak/brk, illegal instruction, unknown syscall)
//   BudgetExceeded  — the instruction budget ran out (hang guard)
//   ConfigError     — malformed or semantically invalid configuration,
//                     with file / line / key provenance
//   ValidationFault — an internal invariant or differential check failed
//   TimeoutFault    — a cell overran its wall-clock deadline (watchdog)
//   CrashFault      — an isolated worker process died (signal / bad exit)
//                     instead of delivering a result
//
// The string forms of faultKindName() and every constructor's what()
// summary are load-bearing: stored cell results (src/engine/cell_codec) and
// crash-report artifacts embed them, and tests/verify/fault_golden_test.cpp
// pins them. Extend the taxonomy freely, but treat existing spellings as a
// stable wire format.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace riscmp {

enum class FaultKind : std::uint8_t {
  Decode,
  Memory,
  Trap,
  Budget,
  Config,
  Validation,
  Timeout,
  Crash,
};

std::string_view faultKindName(FaultKind kind);

/// Snapshot of the simulated machine at the faulting instruction. All
/// fields are plain strings/integers so the support layer stays free of
/// ISA dependencies; the emulation core fills it in.
struct MachineContext {
  std::string arch;          ///< "RISC-V" / "AArch64"
  std::uint64_t pc = 0;
  std::uint64_t retired = 0;  ///< instructions retired before the fault
  std::uint32_t word = 0;     ///< faulting encoding (when applicable)
  std::string disasm;         ///< best-effort disassembly of `word`
  std::string kernel;         ///< "name+0xoff" of the enclosing kernel,
                              ///< or empty when outside any symbol
  /// Small register snapshot: (name, value) pairs in display order.
  std::vector<std::pair<std::string, std::uint64_t>> regs;
};

class Fault : public std::runtime_error {
 public:
  Fault(FaultKind kind, const std::string& summary)
      : std::runtime_error(summary), kind_(kind) {}

  [[nodiscard]] FaultKind kind() const { return kind_; }

  [[nodiscard]] bool hasContext() const { return context_.has_value(); }
  [[nodiscard]] const MachineContext& context() const { return *context_; }
  /// Attach machine context (first writer wins: the innermost frame that
  /// knows the machine state annotates; outer frames must not overwrite).
  void attachContext(MachineContext context) {
    if (!context_) context_ = std::move(context);
  }

  /// Render the full crash report: kind, summary, and — when present —
  /// machine context with disassembly and register file.
  [[nodiscard]] std::string report() const;

 private:
  FaultKind kind_;
  std::optional<MachineContext> context_;
};

/// A word no decoder accepts (or decode outside the code image).
class DecodeFault : public Fault {
 public:
  DecodeFault(std::uint32_t word, std::uint64_t pc);
  [[nodiscard]] std::uint32_t word() const { return word_; }
  [[nodiscard]] std::uint64_t pc() const { return pc_; }

 private:
  std::uint32_t word_;
  std::uint64_t pc_;
};

/// A simulated memory access outside the arena.
class MemoryFault : public Fault {
 public:
  MemoryFault(std::uint64_t addr, std::size_t size);
  [[nodiscard]] std::uint64_t addr() const { return addr_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::uint64_t addr_;
  std::size_t size_;
};

/// An architectural trap the emulation core does not service.
class TrapFault : public Fault {
 public:
  TrapFault(const std::string& trapName, std::uint64_t pc);
  [[nodiscard]] const std::string& trapName() const { return trap_; }
  [[nodiscard]] std::uint64_t pc() const { return pc_; }

 private:
  std::string trap_;
  std::uint64_t pc_;
};

/// Instruction budget exhausted — the hang guard fired.
class BudgetExceeded : public Fault {
 public:
  explicit BudgetExceeded(std::uint64_t limit);
  [[nodiscard]] std::uint64_t limit() const { return limit_; }

 private:
  std::uint64_t limit_;
};

/// Malformed or semantically invalid configuration, with provenance.
/// `file` and `key` may be empty (e.g. for in-memory documents); `line`
/// is 0 when unknown.
class ConfigError : public Fault {
 public:
  ConfigError(const std::string& message, std::string file = {}, int line = 0,
              std::string key = {});
  [[nodiscard]] const std::string& file() const { return file_; }
  [[nodiscard]] int line() const { return line_; }
  [[nodiscard]] const std::string& key() const { return key_; }
  [[nodiscard]] const std::string& message() const { return message_; }

  /// Rebuild this error with file (and optionally key) provenance added —
  /// used by loaders that know the path the document came from.
  [[nodiscard]] ConfigError withFile(const std::string& file) const;
  [[nodiscard]] ConfigError withKey(const std::string& key) const;

 private:
  std::string message_;
  std::string file_;
  int line_;
  std::string key_;
};

/// An internal invariant or differential check failed.
class ValidationFault : public Fault {
 public:
  explicit ValidationFault(const std::string& message)
      : Fault(FaultKind::Validation, "validation fault: " + message) {}
};

/// A cell overran its wall-clock deadline. Raised cooperatively by the
/// emulation core when the engine watchdog flags the deadline expired
/// (thread isolation, full machine context attached), or synthesized by
/// the parent after SIGKILLing an overrunning worker (process isolation,
/// no context — the worker is gone).
class TimeoutFault : public Fault {
 public:
  explicit TimeoutFault(std::uint64_t deadlineMs);
  [[nodiscard]] std::uint64_t deadlineMs() const { return deadlineMs_; }

 private:
  std::uint64_t deadlineMs_;
};

/// Printable name for the signals worker processes die from ("SIGSEGV",
/// or "signal 42" for anything without a stable name). strsignal(3) is
/// locale/platform dependent, so crash records use this fixed table.
std::string signalName(int signo);

/// An isolated worker process died without delivering a result: killed by
/// a signal (SIGSEGV/SIGKILL/OOM...) or exited uncleanly mid-protocol.
/// Synthesized by the parent from waitpid status, so it never carries
/// machine context — the crashing cell's machine died with the worker.
class CrashFault : public Fault {
 public:
  /// Worker terminated by signal `signo` while running `cell`.
  CrashFault(int signo, const std::string& cell);
  /// Worker exited with `code` without completing the result protocol.
  static CrashFault exited(int code, const std::string& cell);

  [[nodiscard]] int signo() const { return signo_; }  ///< 0 for exits
  [[nodiscard]] int exitCode() const { return exitCode_; }
  [[nodiscard]] const std::string& cell() const { return cell_; }

 private:
  CrashFault(const std::string& summary, int signo, int exitCode,
             std::string cell);

  int signo_;
  int exitCode_;
  std::string cell_;
};

namespace fault_detail {
std::string hexWord(std::uint32_t word);
std::string hexAddr(std::uint64_t addr);
}  // namespace fault_detail

}  // namespace riscmp
