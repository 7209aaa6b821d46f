// Differential fault checker (ISSUE 1 tentpole, part 2).
//
// Every injected variant must leave the engine in exactly one of a small
// set of classified outcomes — never a crash, hang, or silent wrong answer:
//
//   * word-level   — decode → disassemble → re-assemble round-trips: a
//     corrupted word either decodes to another valid instruction (and its
//     disassembly re-assembles to an equivalent encoding), raises a
//     DecodeFault, or produces a Divergence report naming both sides.
//   * program-level — a corrupted program either runs to a clean exit whose
//     memory image matches the reference interpreter, terminates with a
//     classified Fault (decode/memory/trap/budget), or yields a Divergence
//     report. `Unclassified` means an unexpected exception escaped: always
//     a bug in the engine, and campaigns assert it never happens.
//   * config-level — a corrupted core-model YAML either still loads or is
//     rejected with a ConfigError.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "isa/arch.hpp"
#include "kgen/compile.hpp"
#include "support/fault.hpp"
#include "verify/injector.hpp"

namespace riscmp::verify {

enum class OutcomeKind : std::uint8_t {
  ValidDecode,     ///< corrupted word decodes; round-trip agreed
  DecodeFault,     ///< decoder rejected the word
  CleanRun,        ///< program exited cleanly and matched the reference
  MemoryFault,     ///< classified wild access
  TrapFault,       ///< classified unhandled trap
  BudgetExceeded,  ///< hang guard fired (still classified)
  ConfigError,     ///< config rejected with provenance
  Divergence,      ///< classified mismatch, with a report naming both sides
  Unclassified,    ///< unexpected escape — an engine bug, campaigns fail
};
inline constexpr std::size_t kOutcomeKinds = 9;

std::string_view outcomeName(OutcomeKind kind);

struct Outcome {
  OutcomeKind kind = OutcomeKind::Unclassified;
  std::string detail;  ///< divergence/fault report (may be empty)
};

/// Tally of campaign outcomes, indexed by OutcomeKind.
struct CampaignStats {
  std::array<std::uint64_t, kOutcomeKinds> counts{};
  std::uint64_t total = 0;
  std::string firstUnclassified;  ///< detail of the first engine escape

  void record(const Outcome& outcome);
  [[nodiscard]] std::uint64_t count(OutcomeKind kind) const {
    return counts[static_cast<std::size_t>(kind)];
  }
  /// True when no outcome escaped the taxonomy.
  [[nodiscard]] bool allClassified() const {
    return count(OutcomeKind::Unclassified) == 0;
  }
  [[nodiscard]] std::string summary() const;
};

/// The outcome a caught Fault stands for. The two hang guards (instruction
/// budget, wall-clock timeout) are BudgetExceeded; a crashed worker is an
/// engine escape, so Unclassified, and fails a campaign.
OutcomeKind outcomeForFault(const Fault& fault);

/// Classify one (possibly corrupted) word: decode, disassemble, and
/// re-assemble. Never throws.
Outcome classifyWord(Arch arch, std::uint32_t word);

/// Corrupt one code word of the module compiled for (arch, era) and run it
/// under `budget` instructions; on a clean exit, compare every array
/// against the reference interpreter. Never throws.
Outcome runCorruptedProgram(const kgen::Module& module, Arch arch,
                            kgen::CompilerEra era, FaultInjector& injector,
                            std::uint64_t budget);

/// Word-level campaign: `rounds` corrupted variants of words drawn from
/// `corpus`, classified via classifyWord.
CampaignStats decodeCampaign(Arch arch, std::span<const std::uint32_t> corpus,
                             std::uint64_t seed, std::uint64_t rounds);

/// Program-level campaign over all four (ISA, era) configs of `module`.
CampaignStats execCampaign(const kgen::Module& module, std::uint64_t seed,
                           int roundsPerConfig, std::uint64_t budget);

/// Config-level campaign: `rounds` corrupted variants of `yamlText`, each
/// pushed through the YAML parser and CoreModel validation.
CampaignStats configCampaign(const std::string& yamlText, std::uint64_t seed,
                             int rounds);

}  // namespace riscmp::verify
