// Macro-op fusion pass (ISSUE 8 tentpole).
//
// Celio et al. ("The Renewed Case for the Reduced Instruction Set
// Computer", PAPERS.md) argue the paper's headline gap — RISC-V retires
// more instructions than AArch64 on the same kernels — largely disappears
// once the decoder fuses common adjacent pairs into single macro-ops. This
// pass makes that claim measurable: it sits between the emulation core and
// any set of downstream analyzers (DESIGN.md §14), consumes the batched
// retired stream via onRetireBlock, greedily pairs adjacent same-kernel
// instructions that match an enabled rule, and forwards the fused stream —
// macro-ops carrying merged dependence edges and the dominant group for
// latency selection — to the downstream observers.
//
// Rule catalogue (provenance: Celio et al. §"macro-op fusion"; RV64
// compare-and-branch is a native fused form, so the RISC-V rules cover the
// remaining idioms; the A64 rules are the reverse-direction controls):
//
//   load_pair     (rv64)  two same-width loads off one base register at
//                         adjacent addresses -> one LDP-like macro-op
//   indexed_load  (rv64)  add rd,rs1,rs2 ; load rt,0(rd)  -> indexed load
//   indexed_store (rv64)  add rd,rs1,rs2 ; store rt,0(rd) -> indexed store
//   lui_addi      (rv64)  lui rd,hi ; addi/addiw rt,rd,lo -> 32-bit const
//   slli_add      (rv64)  slli rd,rs,{1,2,3} ; add consuming rd
//                         -> shifted-index address formation (Zba shNadd)
//   cmp_bcc       (a64)   flag-setting ALU op ; conditional branch reading
//                         the flags -> fused compare-and-branch
//   adrp_add      (a64)   adrp rd ; add rt,rd,#imm -> address formation
//                         (the kgen backends never emit adrp: this rule is
//                         a deliberate zero-fire control)
//
// Fusion is an analysis-layer transform: it must never change architectural
// semantics. The sim_conformance oracle enforces this (fusion-on runs must
// produce identical architectural state and an identical *unfused* upstream
// stream).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/kernel_map.hpp"
#include "isa/arch.hpp"
#include "isa/trace.hpp"

namespace riscmp::uarch {

enum class FusionRule : std::uint8_t {
  LoadPair,
  IndexedLoad,
  IndexedStore,
  LuiAddi,
  SlliAdd,
  CmpBcc,
  AdrpAdd,
};

inline constexpr std::size_t kFusionRuleCount = 7;

/// Stable YAML/report name, e.g. "load_pair".
std::string_view fusionRuleName(FusionRule rule);
std::optional<FusionRule> fusionRuleFromName(std::string_view name);

/// Whether `rule` is meaningful on `arch` (load_pair on A64 is illegal:
/// the ISA has a real LDP the compiler already emits, so configuring the
/// rule would double-count; cmp_bcc on RV64 is illegal because the ISA's
/// branches are natively fused compare-and-branch).
bool fusionRuleLegalFor(FusionRule rule, Arch arch);

/// Enabled-rule set for one ISA (the `fusion:` YAML section, ISSUE 8).
struct FusionConfig {
  Arch arch = Arch::Rv64;
  std::uint32_t ruleMask = 0;  ///< bit i set => FusionRule(i) enabled

  [[nodiscard]] bool enabled(FusionRule rule) const {
    return ruleMask & (1u << static_cast<unsigned>(rule));
  }
  void enable(FusionRule rule) {
    ruleMask |= 1u << static_cast<unsigned>(rule);
  }

  /// Every rule legal for `arch` enabled — the oracle and bench default.
  static FusionConfig allRulesFor(Arch arch);
};

/// The fusion pass: a TraceObserver that rewrites the retired stream and
/// forwards it to a fixed set of downstream observers.
///
/// Contract (DESIGN.md §14):
///  - Order-preserving and greedy left-to-right: a record is held as the
///    pending pair candidate until the next record arrives; if an enabled
///    rule matches (pending, next) they are emitted as one macro-op (rule
///    priority = enum order), otherwise pending is emitted unfused and
///    next becomes the new candidate. Pairs never overlap.
///  - The pending candidate carries across TraceBlock boundaries, so a
///    fusable pair split across two 4096-record blocks still fuses.
///  - The pass therefore defers at most ONE record relative to the
///    upstream stream. onProgramEnd() flushes it and forwards program end
///    downstream. After a mid-run fault (the machine flushes retired
///    blocks before throwing but never calls onProgramEnd), call flush()
///    to deliver the deferred record to downstream observers.
///  - Macro-op record: pc/encoding/staticIndex from the first instruction;
///    group chosen per rule (the latency-dominant half: Load/Store for the
///    memory rules, Branch for cmp_bcc, IntSimple otherwise); srcs =
///    A.srcs ∪ (B.srcs \ A.dsts) — the fused-internal edge disappears;
///    dsts = A.dsts ∪ B.dsts; loads/stores concatenated; branch fields
///    from the second instruction.
///  - A pair must be pc-adjacent (B.pc == A.pc + 4), lie in the same
///    kernel region (or both outside every kernel), and B must not be a
///    static branch target (a fused pair cannot be entered in the middle;
///    targets of indirect branches are not known statically and are
///    approximated as non-targets, documented in DESIGN.md §14).
class FusionPass final : public TraceObserver {
 public:
  /// Per-kernel fused-pair counts (program kernel order, plus totals via
  /// pairs()/pairsByRule()).
  struct KernelFusion {
    std::string name;
    std::uint64_t pairs = 0;
    std::array<std::uint64_t, kFusionRuleCount> byRule{};
  };

  /// `program` supplies kernel attribution and the static branch-target
  /// scan; `downstream` observers receive the fused stream (block sizes
  /// stay within kTraceBlockCapacity) and onProgramEnd. The config's arch
  /// must match program.arch (ValidationFault otherwise).
  FusionPass(const FusionConfig& config, const Program& program,
             std::vector<TraceObserver*> downstream);

  void onRetire(const RetiredInst& inst) override;
  void onRetireBlock(std::span<const RetiredInst> block) override;
  void onProgramEnd() override;

  /// Deliver the deferred candidate (if any) downstream without signalling
  /// program end. Safe to call repeatedly; used after a mid-run fault.
  void flush();

  [[nodiscard]] std::uint64_t inputInstructions() const { return input_; }
  /// Records forwarded downstream so far (== input - 2*pairs + pairs,
  /// minus the at-most-one still-deferred candidate).
  [[nodiscard]] std::uint64_t outputInstructions() const { return output_; }
  [[nodiscard]] std::uint64_t pairs() const { return pairsTotal_; }
  [[nodiscard]] const std::array<std::uint64_t, kFusionRuleCount>&
  pairsByRule() const {
    return pairsByRule_;
  }
  [[nodiscard]] const std::vector<KernelFusion>& kernels() const {
    return kernels_;
  }
  /// Pairs whose first instruction lies outside every kernel region.
  [[nodiscard]] std::uint64_t unattributedPairs() const {
    return unattributedPairs_;
  }

 private:
  [[nodiscard]] bool isBranchTarget(const RetiredInst& inst) const;

  /// First matching enabled rule for the adjacent pair, if any.
  [[nodiscard]] std::optional<FusionRule> match(const RetiredInst& a,
                                                const RetiredInst& b) const;

  void process(const RetiredInst& inst);
  void emit(const RetiredInst& inst);
  void emitFused(const RetiredInst& a, const RetiredInst& b, FusionRule rule);
  void forward();

  FusionConfig config_;
  std::uint64_t codeBase_ = 0;
  std::size_t codeWords_ = 0;

  KernelMap kernelMap_;
  /// Per code word: 1 when some static direct branch/jump targets it.
  std::vector<std::uint8_t> branchTarget_;

  std::vector<TraceObserver*> downstream_;
  std::vector<RetiredInst> out_;  ///< per-forward output buffer
  std::optional<RetiredInst> pending_;

  std::uint64_t input_ = 0;
  std::uint64_t output_ = 0;
  std::uint64_t pairsTotal_ = 0;
  std::array<std::uint64_t, kFusionRuleCount> pairsByRule_{};
  std::vector<KernelFusion> kernels_;
  std::uint64_t unattributedPairs_ = 0;
};

}  // namespace riscmp::uarch
