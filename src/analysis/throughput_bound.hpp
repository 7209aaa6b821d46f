// OSACA-style per-kernel throughput bound (ISSUE 7 tentpole).
//
// Laukemann et al. (OSACA, PAPERS.md) predict loop-kernel performance as
// max(throughput bound, critical-path bound): the throughput bound is the
// pressure on the busiest execution port under an idealised least-loaded
// assignment, and the CP bound is the longest latency-scaled RAW chain.
// This observer computes both per benchmark kernel (plus whole-program)
// from the same retired-instruction stream the engine already produces:
//   - every retired instruction is attributed to its kernel by a
//     KernelMap (DESIGN.md §10),
//   - its group is assigned to the least-loaded eligible port (ties break
//     to the lowest port index), adding one slot-cycle of pressure — the
//     fully-pipelined single-issue-per-port assumption the OoO model also
//     makes,
//   - an issue-width bound ceil(instructions / issueWidth) models the
//     front end,
//   - the CP bound mirrors CriticalPathAnalyzer's scaled semantics exactly
//     (loads/stores cost 1 — store forwarding, §5.1 — everything else its
//     group latency), tracked per kernel so a kernel's chain is only what
//     its own instructions contribute.
// The reported cycles are max(port bound, issue bound, CP bound), with the
// binding resource named.
//
// The port/width description arrives as a ThroughputModel — a plain struct
// mirroring the `ports:` + `core:` sections of the YAML core models —
// rather than a uarch::CoreModel, because riscmp_uarch links
// riscmp_analysis, not the other way around. CoreModel::throughputModel()
// (uarch/core_model.hpp) performs the conversion.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "core/kernel_map.hpp"
#include "isa/trace.hpp"
#include "support/chunk_table.hpp"

namespace riscmp {

/// One execution port: the instruction groups it accepts, as a bitmask
/// over InstGroup (mirrors uarch::Port without depending on it).
struct ThroughputPort {
  std::string name;
  std::uint32_t groupMask = 0;  ///< bit i set => accepts InstGroup(i)

  [[nodiscard]] bool accepts(InstGroup group) const {
    return groupMask & (1u << static_cast<unsigned>(group));
  }
};

/// Port layout + issue width + latency table of one core model — the
/// inputs the throughput bound needs, decoupled from uarch::CoreModel.
struct ThroughputModel {
  std::string name;
  unsigned issueWidth = 4;
  std::vector<ThroughputPort> ports;
  LatencyTable latencies = unitLatencies();

  /// Number of ports accepting `group` (its port multiplicity).
  [[nodiscard]] unsigned portMultiplicity(InstGroup group) const {
    unsigned count = 0;
    for (const ThroughputPort& port : ports) {
      if (port.accepts(group)) ++count;
    }
    return count;
  }

  /// Best-case cycles per instruction of `group` in a homogeneous stream:
  /// max(1/multiplicity, 1/issueWidth) — the OSACA reciprocal throughput.
  /// Infinity when no port accepts the group (it can never issue).
  [[nodiscard]] double reciprocalThroughput(InstGroup group) const;
};

class ThroughputBoundAnalyzer final : public TraceObserver {
 public:
  /// Kernel regions come from the program's symbol table (KernelMap:
  /// regions sharing a name aggregate). Throws ConfigError when
  /// the model has no ports and ValidationFault for overlapping kernel
  /// regions; retiring an instruction whose group no port accepts throws
  /// ValidationFault (the silent-fallthrough bug this PR fixes in the OoO
  /// model).
  ThroughputBoundAnalyzer(ThroughputModel model, const Program& program);

  void onRetire(const RetiredInst& inst) override;
  void onRetireBlock(std::span<const RetiredInst> block) override;

  /// One kernel's (or the whole program's) resource bounds. Plain data so
  /// the cell codec can round-trip it exactly.
  struct KernelBound {
    std::string name;
    std::uint64_t instructions = 0;
    std::vector<std::uint64_t> portCycles;  ///< slot-cycles per port
    std::uint64_t portBound = 0;            ///< max over portCycles
    std::string bindingPort;                ///< most-loaded port ("" if none)
    std::uint64_t issueBound = 0;           ///< ceil(instructions / width)
    std::uint64_t cpBound = 0;              ///< latency-scaled RAW chain

    /// The OSACA prediction: max of the three bounds.
    [[nodiscard]] std::uint64_t boundCycles() const {
      std::uint64_t bound = portBound;
      if (issueBound > bound) bound = issueBound;
      if (cpBound > bound) bound = cpBound;
      return bound;
    }
    /// Which resource binds: "CP" when the dependency chain dominates,
    /// otherwise "port:<name>" or "issue". Structural bounds win ties
    /// against CP (a saturated port is the physical limit); the port wins
    /// a port/issue tie (it is the narrower resource).
    [[nodiscard]] std::string bindingResource() const {
      const std::uint64_t structural =
          portBound > issueBound ? portBound : issueBound;
      if (cpBound > structural) return "CP";
      if (portBound >= issueBound) return "port:" + bindingPort;
      return "issue";
    }
    [[nodiscard]] double cyclesPerInstruction() const {
      return instructions == 0 ? 0.0
                               : static_cast<double>(boundCycles()) /
                                     static_cast<double>(instructions);
    }
  };

  /// Per-kernel bounds, in first-appearance symbol order.
  [[nodiscard]] std::vector<KernelBound> kernels() const;
  /// Whole-program bounds (every retired instruction, attributed or not);
  /// its cpBound equals CriticalPathAnalyzer's scaled CP by construction.
  [[nodiscard]] KernelBound program() const;

  [[nodiscard]] std::uint64_t instructions() const { return instructions_; }
  [[nodiscard]] const ThroughputModel& model() const { return model_; }

  /// Clear pressure and chain state; the model and kernel regions are
  /// retained so the analyzer can observe a fresh run of the same program.
  void reset();

 private:
  /// Per-kernel accumulation state: port pressure plus a private scaled-CP
  /// chain (register and memory depths are tracked per kernel so one
  /// kernel's chain never leaks into another's bound).
  struct Context {
    std::uint64_t instructions = 0;
    std::vector<std::uint64_t> portCycles;
    std::uint64_t maxDepth = 0;
    std::array<std::uint64_t, Reg::kDenseCount> regDepth{};
    ChunkTable<std::uint64_t> memDepth;
  };

  void retireOne(const RetiredInst& inst);
  void account(Context& context, const RetiredInst& inst);
  [[nodiscard]] KernelBound bound(const Context& context,
                                  std::string name) const;

  ThroughputModel model_;
  std::uint64_t instructions_ = 0;

  KernelMap kernelMap_;
  /// One context per kernel slot, plus the whole-program context last.
  std::vector<Context> contexts_;
};

}  // namespace riscmp
