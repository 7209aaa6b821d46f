// Fault-injection campaign tests (ISSUE 1 tentpole, part 2).
//
// The contract under test: every injected corruption leaves the engine in
// a *classified* state — a valid decode, a typed Fault, or a divergence
// report. `Unclassified` outcomes mean an unexpected exception escaped the
// taxonomy, which is always an engine bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <csignal>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kgen/compile.hpp"
#include "support/fault.hpp"
#include "verify/differential.hpp"
#include "verify/injector.hpp"
#include "workloads/workloads.hpp"

namespace riscmp::verify {
namespace {

std::vector<std::uint32_t> corpusFor(Arch arch) {
  const kgen::Module stream = workloads::makeStream({.n = 256, .reps = 1});
  std::vector<std::uint32_t> corpus;
  for (const auto era : {kgen::CompilerEra::Gcc9, kgen::CompilerEra::Gcc12}) {
    const auto compiled = kgen::compile(stream, arch, era);
    corpus.insert(corpus.end(), compiled.program.code.begin(),
                  compiled.program.code.end());
  }
  return corpus;
}

void expectDecodeCampaignClassified(Arch arch) {
  const auto corpus = corpusFor(arch);
  // Acceptance floor from ISSUE 1: >= 10k corrupted words per ISA.
  constexpr std::uint64_t kRounds = 10'000;
  const CampaignStats stats = decodeCampaign(arch, corpus, 2026, kRounds);

  EXPECT_EQ(stats.total, kRounds);
  EXPECT_TRUE(stats.allClassified()) << stats.firstUnclassified;
  // Word-level outcomes can only be: still-valid decode, a DecodeFault,
  // or a round-trip divergence. Nothing else applies to a single word.
  EXPECT_EQ(stats.count(OutcomeKind::ValidDecode) +
                stats.count(OutcomeKind::DecodeFault) +
                stats.count(OutcomeKind::Divergence),
            kRounds)
      << stats.summary();
  // Sanity: bit-flips of real code must hit both classes.
  EXPECT_GT(stats.count(OutcomeKind::ValidDecode), 0u) << stats.summary();
  EXPECT_GT(stats.count(OutcomeKind::DecodeFault), 0u) << stats.summary();
}

TEST(FaultInjection, DecodeCampaignRv64TenThousandWordsAllClassified) {
  expectDecodeCampaignClassified(Arch::Rv64);
}

TEST(FaultInjection, DecodeCampaignA64TenThousandWordsAllClassified) {
  expectDecodeCampaignClassified(Arch::AArch64);
}

TEST(FaultInjection, DecodeCampaignIsDeterministic) {
  const auto corpus = corpusFor(Arch::Rv64);
  const CampaignStats a = decodeCampaign(Arch::Rv64, corpus, 7, 500);
  const CampaignStats b = decodeCampaign(Arch::Rv64, corpus, 7, 500);
  EXPECT_EQ(a.counts, b.counts);
  const CampaignStats c = decodeCampaign(Arch::Rv64, corpus, 8, 500);
  EXPECT_NE(a.counts, c.counts);  // a different seed corrupts differently
}

TEST(FaultInjection, CorruptWordFlipsOneOrTwoBits) {
  FaultInjector injector(99);
  for (int i = 0; i < 1000; ++i) {
    const std::uint32_t word = static_cast<std::uint32_t>(
        injector.rng().next());
    const std::uint32_t corrupted = injector.corruptWord(word, 2);
    const int flipped = std::popcount(word ^ corrupted);
    EXPECT_GE(flipped, 1);
    EXPECT_LE(flipped, 2);
  }
}

TEST(FaultInjection, CorruptCodeWordChangesExactlyOneWord) {
  const kgen::Module stream = workloads::makeStream({.n = 16, .reps = 1});
  const auto compiled =
      kgen::compile(stream, Arch::Rv64, kgen::CompilerEra::Gcc12);
  Program program = compiled.program;
  FaultInjector injector(5);
  const std::size_t index = injector.corruptCodeWord(program);
  ASSERT_LT(index, program.code.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < program.code.size(); ++i) {
    if (program.code[i] != compiled.program.code[i]) ++differing;
  }
  EXPECT_EQ(differing, 1u);
  EXPECT_NE(program.code[index], compiled.program.code[index]);
}

TEST(FaultInjection, InjectorStreamsAreSeedReproducible) {
  FaultInjector a(123);
  FaultInjector b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.corruptWord(0xdeadbeef), b.corruptWord(0xdeadbeef));
  }
}

TEST(FaultInjection, ClassifyWordKnownEncodings) {
  // addi x0, x0, 0 (canonical nop): valid on RV64 and round-trips.
  EXPECT_EQ(classifyWord(Arch::Rv64, 0x00000013).kind,
            OutcomeKind::ValidDecode);
  // The all-zero word is defined to be undecodable on RV64.
  EXPECT_EQ(classifyWord(Arch::Rv64, 0x00000000).kind,
            OutcomeKind::DecodeFault);
}

TEST(FaultInjection, ExecCampaignAllClassified) {
  const kgen::Module stream = workloads::makeStream({.n = 64, .reps = 1});
  const CampaignStats stats =
      execCampaign(stream, 2026, /*roundsPerConfig=*/4,
                   /*budget=*/5'000'000);
  EXPECT_EQ(stats.total, 16u);  // 4 rounds x (2 ISAs x 2 eras)
  EXPECT_TRUE(stats.allClassified()) << stats.firstUnclassified;
}

TEST(FaultInjection, ConfigCampaignAllClassified) {
  const std::string yamlText =
      "name: probe\n"
      "core:\n"
      "  fetch_width: 4\n"
      "  rob_size: 64\n"
      "  clock_ghz: 2.0\n"
      "ports:\n"
      "  - name: alu0\n"
      "    groups: [INT_SIMPLE, BRANCH]\n"
      "latencies:\n"
      "  INT_SIMPLE: 1\n"
      "  LOAD: 4\n";
  const CampaignStats stats = configCampaign(yamlText, 11, 300);
  EXPECT_EQ(stats.total, 300u);
  EXPECT_TRUE(stats.allClassified()) << stats.firstUnclassified;
  // Corrupted configs either still load or are rejected with provenance.
  EXPECT_EQ(stats.count(OutcomeKind::CleanRun) +
                stats.count(OutcomeKind::ConfigError),
            300u)
      << stats.summary();
  EXPECT_GT(stats.count(OutcomeKind::ConfigError), 0u) << stats.summary();
}

// Every FaultKind maps to its outcome. The two hang guards share
// BudgetExceeded; a crashed worker is an engine escape and stays
// Unclassified, so a campaign that meets one fails.
TEST(FaultInjection, EveryFaultKindHasAnOutcome) {
  const std::vector<std::pair<std::shared_ptr<const Fault>, OutcomeKind>>
      cases = {
          {std::make_shared<DecodeFault>(0xdeadbeef, 0x1000),
           OutcomeKind::DecodeFault},
          {std::make_shared<MemoryFault>(0x10, 8), OutcomeKind::MemoryFault},
          {std::make_shared<TrapFault>("ebreak", 0x1000),
           OutcomeKind::TrapFault},
          {std::make_shared<BudgetExceeded>(100),
           OutcomeKind::BudgetExceeded},
          {std::make_shared<ConfigError>("bad value"),
           OutcomeKind::ConfigError},
          {std::make_shared<ValidationFault>("mismatch"),
           OutcomeKind::Divergence},
          {std::make_shared<TimeoutFault>(50), OutcomeKind::BudgetExceeded},
          {std::make_shared<CrashFault>(SIGSEGV, "cell"),
           OutcomeKind::Unclassified},
      };
  std::vector<bool> seen(static_cast<std::size_t>(FaultKind::Crash) + 1);
  for (const auto& [fault, want] : cases) {
    SCOPED_TRACE(std::string(faultKindName(fault->kind())));
    EXPECT_EQ(outcomeForFault(*fault), want);
    seen[static_cast<std::size_t>(fault->kind())] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), true),
            static_cast<std::ptrdiff_t>(seen.size()))
      << "a FaultKind has no case";
}

}  // namespace
}  // namespace riscmp::verify
