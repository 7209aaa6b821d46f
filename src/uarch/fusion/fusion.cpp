#include "uarch/fusion/fusion.hpp"

#include <algorithm>

#include "aarch64/decode.hpp"
#include "riscv/decode.hpp"
#include "support/fault.hpp"

namespace riscmp::uarch {

namespace {

constexpr std::array<std::string_view, kFusionRuleCount> kRuleNames = {
    "load_pair", "indexed_load", "indexed_store", "lui_addi",
    "slli_add",  "cmp_bcc",      "adrp_add"};

// ---- RV64 encoding fields -------------------------------------------------

constexpr std::uint32_t rvOpc(std::uint32_t enc) { return enc & 0x7f; }
constexpr std::uint32_t rvRd(std::uint32_t enc) { return (enc >> 7) & 31; }
constexpr std::uint32_t rvFunct3(std::uint32_t enc) {
  return (enc >> 12) & 7;
}
constexpr std::uint32_t rvRs1(std::uint32_t enc) { return (enc >> 15) & 31; }
constexpr std::uint32_t rvRs2(std::uint32_t enc) { return (enc >> 20) & 31; }

/// Integer (0x03) and FP (0x07) load opcodes; integer (0x23) / FP (0x27)
/// store opcodes.
constexpr bool rvIsLoad(std::uint32_t enc) {
  return rvOpc(enc) == 0x03 || rvOpc(enc) == 0x07;
}
constexpr bool rvIsStore(std::uint32_t enc) {
  return rvOpc(enc) == 0x23 || rvOpc(enc) == 0x27;
}
/// ADD rd, rs1, rs2 exactly (funct7 0, funct3 0, opcode OP).
constexpr bool rvIsAdd(std::uint32_t enc) {
  return (enc & 0xfe00707f) == 0x00000033;
}
/// SLLI rd, rs1, shamt (RV64: funct6 0, funct3 1, opcode OP-IMM).
constexpr bool rvIsSlli(std::uint32_t enc) {
  return (enc & 0xfc00707f) == 0x00001013;
}
constexpr std::uint32_t rvShamt(std::uint32_t enc) {
  return (enc >> 20) & 0x3f;
}
/// I-type immediate is zero (bits 31:20 clear).
constexpr bool rvImmIZero(std::uint32_t enc) { return (enc >> 20) == 0; }
/// S-type immediate is zero (imm[11:5] and imm[4:0] both clear).
constexpr bool rvImmSZero(std::uint32_t enc) {
  return ((enc >> 25) & 0x7f) == 0 && ((enc >> 7) & 31) == 0;
}

// ---- A64 encoding fields --------------------------------------------------

constexpr bool a64IsAdrp(std::uint32_t enc) {
  return (enc & 0x9f000000) == 0x90000000;
}
/// ADD Xd, Xn, #imm12 {, lsl #12} (64-bit, non-flag-setting).
constexpr bool a64IsAddImm(std::uint32_t enc) {
  return (enc & 0xff800000) == 0x91000000;
}
constexpr std::uint32_t a64Rd(std::uint32_t enc) { return enc & 31; }
constexpr std::uint32_t a64Rn(std::uint32_t enc) { return (enc >> 5) & 31; }

template <typename Regs>
bool contains(const Regs& regs, Reg reg) {
  return std::find(regs.begin(), regs.end(), reg) != regs.end();
}

InstGroup fusedGroup(FusionRule rule) {
  switch (rule) {
    case FusionRule::LoadPair:
    case FusionRule::IndexedLoad:
      return InstGroup::Load;
    case FusionRule::IndexedStore:
      return InstGroup::Store;
    case FusionRule::CmpBcc:
      return InstGroup::Branch;
    case FusionRule::LuiAddi:
    case FusionRule::SlliAdd:
    case FusionRule::AdrpAdd:
      return InstGroup::IntSimple;
  }
  return InstGroup::IntSimple;
}

/// The merged macro-op must fit RetiredInst's inline operand storage
/// (SmallVector asserts on overflow — there is no heap spill). Every
/// catalogued rule fits by construction; this check keeps the pass safe
/// against future rules and adversarial hand-built streams.
bool mergeFits(const RetiredInst& a, const RetiredInst& b) {
  SmallVector<Reg, 5> srcs = a.srcs;
  for (const Reg src : b.srcs) {
    if (contains(a.dsts, src)) continue;
    if (contains(srcs, src)) continue;
    if (srcs.size() == srcs.capacity()) return false;
    srcs.push_back(src);
  }
  SmallVector<Reg, 3> dsts = a.dsts;
  for (const Reg dst : b.dsts) {
    if (contains(dsts, dst)) continue;
    if (dsts.size() == dsts.capacity()) return false;
    dsts.push_back(dst);
  }
  return a.loads.size() + b.loads.size() <= a.loads.capacity() &&
         a.stores.size() + b.stores.size() <= a.stores.capacity();
}

}  // namespace

std::string_view fusionRuleName(FusionRule rule) {
  return kRuleNames[static_cast<std::size_t>(rule)];
}

std::optional<FusionRule> fusionRuleFromName(std::string_view name) {
  for (std::size_t i = 0; i < kFusionRuleCount; ++i) {
    if (kRuleNames[i] == name) return static_cast<FusionRule>(i);
  }
  return std::nullopt;
}

bool fusionRuleLegalFor(FusionRule rule, Arch arch) {
  switch (rule) {
    case FusionRule::LoadPair:
    case FusionRule::IndexedLoad:
    case FusionRule::IndexedStore:
    case FusionRule::LuiAddi:
    case FusionRule::SlliAdd:
      return arch == Arch::Rv64;
    case FusionRule::CmpBcc:
    case FusionRule::AdrpAdd:
      return arch == Arch::AArch64;
  }
  return false;
}

FusionConfig FusionConfig::allRulesFor(Arch arch) {
  FusionConfig config;
  config.arch = arch;
  for (std::size_t i = 0; i < kFusionRuleCount; ++i) {
    const auto rule = static_cast<FusionRule>(i);
    if (fusionRuleLegalFor(rule, arch)) config.enable(rule);
  }
  return config;
}

FusionPass::FusionPass(const FusionConfig& config, const Program& program,
                       std::vector<TraceObserver*> downstream)
    : config_(config),
      codeBase_(program.codeBase),
      codeWords_(program.code.size()),
      kernelMap_(program),
      downstream_(std::move(downstream)) {
  if (config.arch != program.arch) {
    throw ValidationFault(std::string("fusion config is for ") +
                          std::string(archName(config.arch)) +
                          " but the program is " +
                          std::string(archName(program.arch)));
  }
  for (const std::string& name : kernelMap_.names()) {
    kernels_.push_back(KernelFusion{name, 0, {}});
  }

  // Static branch-target scan: any word a direct branch or jump in the
  // code image targets can be entered mid-stream, so a pair whose second
  // half sits on such a word must not fuse. Indirect branches (jalr, br/
  // blr/ret) have no static target and are approximated as targeting
  // nothing (DESIGN.md §14).
  branchTarget_.assign(codeWords_, 0);
  const std::uint64_t codeEnd = codeBase_ + codeWords_ * 4;
  const auto mark = [&](std::uint64_t target) {
    if (target < codeBase_ || target >= codeEnd || (target & 3) != 0) return;
    branchTarget_[static_cast<std::size_t>((target - codeBase_) / 4)] = 1;
  };
  for (std::size_t i = 0; i < codeWords_; ++i) {
    const std::uint64_t pc = codeBase_ + i * 4;
    const std::uint32_t word = program.code[i];
    if (program.arch == Arch::Rv64) {
      const auto inst = rv64::decode(word);
      if (!inst) continue;
      const rv64::ImmKind imm = inst->info().imm;
      if (imm == rv64::ImmKind::B || imm == rv64::ImmKind::J) {
        mark(pc + static_cast<std::uint64_t>(inst->imm));
      }
    } else {
      const auto inst = a64::decode(word);
      if (!inst) continue;
      const a64::Cls cls = inst->info().cls;
      if (cls == a64::Cls::Branch26 || cls == a64::Cls::CondBranch ||
          cls == a64::Cls::CmpBranch || cls == a64::Cls::TestBranch) {
        mark(pc + static_cast<std::uint64_t>(inst->imm));
      }
    }
  }
}

bool FusionPass::isBranchTarget(const RetiredInst& inst) const {
  if (inst.staticIndex != RetiredInst::kNoStaticIndex &&
      inst.staticIndex < branchTarget_.size()) {
    return branchTarget_[inst.staticIndex] != 0;
  }
  if (inst.pc >= codeBase_ && inst.pc < codeBase_ + codeWords_ * 4 &&
      (inst.pc & 3) == 0) {
    return branchTarget_[static_cast<std::size_t>((inst.pc - codeBase_) /
                                                  4)] != 0;
  }
  return false;
}

std::optional<FusionRule> FusionPass::match(const RetiredInst& a,
                                            const RetiredInst& b) const {
  // Pair preconditions shared by every rule: dynamic adjacency, same
  // kernel region (both outside every kernel also qualifies), and the
  // second half must not be enterable mid-pair via a branch.
  if (b.pc != a.pc + 4) return std::nullopt;
  if (kernelMap_.kernelOf(a) != kernelMap_.kernelOf(b)) return std::nullopt;
  if (isBranchTarget(b)) return std::nullopt;

  const std::uint32_t ea = a.encoding;
  const std::uint32_t eb = b.encoding;
  const auto matches = [&](FusionRule rule) -> bool {
    switch (rule) {
      case FusionRule::LoadPair:
        // Two same-width loads off the same (unmodified) base register,
        // dynamically adjacent in memory — the LDP idiom.
        return rvIsLoad(ea) && rvOpc(eb) == rvOpc(ea) &&
               rvFunct3(eb) == rvFunct3(ea) && rvRs1(eb) == rvRs1(ea) &&
               rvRd(ea) != rvRs1(ea) && a.loads.size() == 1 &&
               b.loads.size() == 1 && a.loads[0].size == b.loads[0].size &&
               b.loads[0].addr == a.loads[0].addr + a.loads[0].size;
      case FusionRule::IndexedLoad:
        // add rd, rs1, rs2 ; load rt, 0(rd) — the load consumes the
        // freshly formed address.
        return rvIsAdd(ea) && rvRd(ea) != 0 && rvIsLoad(eb) &&
               rvImmIZero(eb) && rvRs1(eb) == rvRd(ea);
      case FusionRule::IndexedStore:
        return rvIsAdd(ea) && rvRd(ea) != 0 && rvIsStore(eb) &&
               rvImmSZero(eb) && rvRs1(eb) == rvRd(ea);
      case FusionRule::LuiAddi:
        // lui rd, hi ; addi/addiw rt, rd, lo — 32-bit constant or address
        // formation (the RV64 backend emits addiw for sign-correct
        // materialisation, so both OP-IMM and OP-IMM-32 qualify).
        return rvOpc(ea) == 0x37 && rvRd(ea) != 0 &&
               (rvOpc(eb) == 0x13 || rvOpc(eb) == 0x1b) &&
               rvFunct3(eb) == 0 && rvRs1(eb) == rvRd(ea);
      case FusionRule::SlliAdd:
        // slli rd, rs, {1,2,3} ; add consuming rd — the Zba shNadd
        // shifted-index idiom (shift amounts beyond 3 have no fused
        // hardware analogue, so they stay unfused).
        return rvIsSlli(ea) && rvRd(ea) != 0 && rvShamt(ea) >= 1 &&
               rvShamt(ea) <= 3 && rvIsAdd(eb) &&
               (rvRs1(eb) == rvRd(ea) || rvRs2(eb) == rvRd(ea));
      case FusionRule::CmpBcc:
        // Flag-setting integer ALU op immediately consumed by a
        // conditional branch: cmp/cmn/tst/subs/adds/ands + b.cc.
        return !a.isBranch && a.group == InstGroup::IntSimple &&
               a.loads.empty() && a.stores.empty() &&
               contains(a.dsts, Reg::flags()) &&
               b.isBranch &&
               contains(b.srcs, Reg::flags());
      case FusionRule::AdrpAdd:
        return a64IsAdrp(ea) && a64IsAddImm(eb) && a64Rn(eb) == a64Rd(ea);
    }
    return false;
  };

  for (std::size_t i = 0; i < kFusionRuleCount; ++i) {
    const auto rule = static_cast<FusionRule>(i);
    if (!config_.enabled(rule)) continue;
    if (matches(rule) && mergeFits(a, b)) return rule;
  }
  return std::nullopt;
}

void FusionPass::emit(const RetiredInst& inst) { out_.push_back(inst); }

void FusionPass::emitFused(const RetiredInst& a, const RetiredInst& b,
                           FusionRule rule) {
  RetiredInst macro;
  macro.pc = a.pc;
  macro.encoding = a.encoding;
  macro.staticIndex = a.staticIndex;
  macro.group = fusedGroup(rule);

  // Merged dependence edges: the pair's external interface. The internal
  // edge (B reading what A wrote) disappears — that is the fusion win the
  // critical-path analyses measure.
  for (const Reg src : a.srcs) macro.srcs.push_back(src);
  for (const Reg src : b.srcs) {
    if (contains(a.dsts, src)) continue;
    if (contains(macro.srcs, src)) continue;
    macro.srcs.push_back(src);
  }
  for (const Reg dst : a.dsts) macro.dsts.push_back(dst);
  for (const Reg dst : b.dsts) {
    if (contains(macro.dsts, dst)) continue;
    macro.dsts.push_back(dst);
  }
  for (const MemAccess& load : a.loads) macro.loads.push_back(load);
  for (const MemAccess& load : b.loads) macro.loads.push_back(load);
  for (const MemAccess& store : a.stores) macro.stores.push_back(store);
  for (const MemAccess& store : b.stores) macro.stores.push_back(store);

  macro.isBranch = b.isBranch;
  macro.branchTaken = b.branchTaken;
  macro.branchTarget = b.branchTarget;

  ++pairsTotal_;
  ++pairsByRule_[static_cast<std::size_t>(rule)];
  const std::int32_t kernel = kernelMap_.kernelOf(a);
  if (kernel >= 0) {
    KernelFusion& stats = kernels_[static_cast<std::size_t>(kernel)];
    ++stats.pairs;
    ++stats.byRule[static_cast<std::size_t>(rule)];
  } else {
    ++unattributedPairs_;
  }
  out_.push_back(macro);
}

void FusionPass::process(const RetiredInst& inst) {
  ++input_;
  if (!pending_) {
    pending_ = inst;
    return;
  }
  if (const std::optional<FusionRule> rule = match(*pending_, inst)) {
    emitFused(*pending_, inst, *rule);
    pending_.reset();
    return;
  }
  emit(*pending_);
  pending_ = inst;
}

void FusionPass::forward() {
  if (out_.empty()) return;
  std::span<const RetiredInst> all(out_.data(), out_.size());
  // Stay within the block-size contract downstream observers were written
  // against (a carried-over candidate can push one block past capacity).
  while (!all.empty()) {
    const std::size_t n = std::min(all.size(), kTraceBlockCapacity);
    for (TraceObserver* observer : downstream_) {
      observer->onRetireBlock(all.subspan(0, n));
    }
    all = all.subspan(n);
  }
  output_ += out_.size();
  out_.clear();
}

void FusionPass::onRetire(const RetiredInst& inst) {
  process(inst);
  forward();
}

void FusionPass::onRetireBlock(std::span<const RetiredInst> block) {
  for (const RetiredInst& inst : block) process(inst);
  forward();
}

void FusionPass::flush() {
  if (pending_) {
    emit(*pending_);
    pending_.reset();
  }
  forward();
}

void FusionPass::onProgramEnd() {
  flush();
  for (TraceObserver* observer : downstream_) observer->onProgramEnd();
}

}  // namespace riscmp::uarch
