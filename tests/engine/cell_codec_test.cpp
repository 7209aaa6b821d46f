// Cell codec (v4): the one wire format behind the result store and the
// process-isolation pipe. Exact round-trips, pinned wire bytes (stored
// cells and perfbench's golden digests depend on them), and a seeded
// property test over every optional block.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "engine/cell_codec.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"

namespace riscmp::engine {
namespace {

/// A CellResult with every field populated, including doubles that decimal
/// renderings would mangle (subnormals, values needing all 17 digits).
CellResult sampleCell() {
  CellResult cell;
  cell.key = CellKey{"STREAM", 0,
                     Config{Arch::Rv64, kgen::CompilerEra::Gcc12}, 3};
  cell.cell.name = "STREAM/GCC 12.2 RISC-V";
  cell.instructions = 123456789;
  cell.kernels = {{"copy", 1000}, {"triad", 2000}};
  for (std::size_t g = 0; g < kInstGroupCount; ++g) cell.groups[g] = g * 7 + 1;
  cell.unattributed = 42;
  cell.criticalPath = 54321;
  cell.hasScaledCp = true;
  cell.scaledCriticalPath = 98765;

  WindowedCPAnalyzer::WindowResult window;
  window.windowSize = 64;
  window.windows = 17;
  window.meanCp = 0.1 + 0.2;  // 0.30000000000000004 — decimal-hostile
  window.meanIlp = 5e-324;    // smallest subnormal
  window.minCp = 1.0;
  window.maxCp = 1e308;
  cell.windows = {window};

  cell.deps.dependencies = 77;
  cell.deps.meanDistance = 3.3333333333333335;
  cell.deps.within4 = 0.25;
  cell.deps.within16 = 0.5;
  cell.deps.within64 = 0.75;

  cell.hasCache = true;
  cell.cache.loads = 11;
  cell.cache.stores = 12;
  cell.cache.l1Hits = 13;
  cell.cache.l1Misses = 14;
  cell.cache.l2Hits = 15;
  cell.cache.l2Misses = 16;
  cell.cache.writebacksToL2 = 17;
  cell.cache.writebacksToMem = 18;
  cell.cache.prefetchesIssued = 19;
  cell.cache.prefetchesUseful = 20;
  cell.cacheFootprintLines = 21;
  cell.cacheLineSetDigest = 0xDEADBEEFCAFEF00Dull;
  cell.cacheKernels = {{"copy", 1, 2, 3, 4, 5, 6, 7}};
  cell.hasCacheAwareCp = true;
  cell.cacheAwareCriticalPath = 111213;

  cell.hasThroughput = true;
  cell.throughputProgram =
      {"<program>", 4000, {151, 149, 50, 50, 0, 0}, 151, "ls0", 1000, 88};
  cell.throughputKernels = {
      {"copy", 1000, {100, 100, 0, 0, 0, 0}, 100, "ls0", 250, 8},
      {"triad", 3000, {51, 49, 50, 50, 0, 0}, 51, "ls0", 750, 80}};

  cell.hasFusion = true;
  cell.fusedInstructions = 123450000;
  cell.fusionPairs = 6789;
  for (std::size_t r = 0; r < uarch::kFusionRuleCount; ++r) {
    cell.fusionPairsByRule[r] = r * 11 + 3;
  }
  cell.fusionUnattributedPairs = 5;
  cell.fusionKernels = {{"copy", 1234, {1, 2, 3, 4, 5, 6, 7}},
                        {"triad", 5555, {0, 0, 0, 0, 5555, 0, 0}}};
  cell.fusedKernels = {{"copy", 900}, {"triad", 1800}};
  cell.fusedCriticalPath = 44321;
  cell.hasFusedScaledCp = true;
  cell.fusedScaledCriticalPath = 88765;

  cell.cache.prefetchFillsFromMem = 9;

  cell.hasMemSystem = true;
  cell.memSystem.tlb = {1000, 900, 100, 60, 40, 1200};
  cell.memSystem.footprintPages = 31;
  cell.memSystem.pageSetDigest = 0xFEEDFACE12345678ull;
  cell.memSystem.demandFillBytes = 2048;
  cell.memSystem.prefetchFillBytes = 576;
  cell.memSystem.writebackBytes = 128;
  cell.memSystem.missCycles = 4100;
  cell.memSystem.mshrBoundCycles = 513;
  cell.memSystem.bandwidthBoundCycles = 172;
  cell.memKernels = {{"copy", 1000, 500, 3, 7, 0x1111111111111111ull},
                     {"triad", 2000, 750, 0, 8, 0x2222222222222222ull}};
  uarch::mem::ScalingPoint one;
  one.cores = 1;
  one.perCore = {{500, 40, 24, 16, 5000}};
  one.sharedL2Accesses = 40;
  one.sharedL2Hits = 24;
  one.sharedL2Misses = 16;
  one.sharedWritebacksToMem = 2;
  one.bytesFromMem = 1152;
  one.bandwidthBoundCycles = 72;
  one.mshrBoundCycles = 98;
  uarch::mem::ScalingPoint two;
  two.cores = 2;
  two.perCore = {{500, 44, 20, 24, 5600}, {500, 45, 19, 26, 5800}};
  two.sharedL2Accesses = 89;
  two.sharedL2Hits = 39;
  two.sharedL2Misses = 50;
  two.sharedWritebacksToMem = 5;
  two.bytesFromMem = 3520;
  two.bandwidthBoundCycles = 220;
  two.mshrBoundCycles = 150;
  cell.memScaling = {one, two};
  return cell;
}

void expectIdentical(const CellResult& a, const CellResult& b) {
  // Field-by-field via the canonical encoding: any drift shows up as a
  // digest mismatch, and the dumps make failures readable.
  EXPECT_EQ(encodeCell(a).dump(), encodeCell(b).dump());
  EXPECT_EQ(cellDigest(a), cellDigest(b));
}

TEST(CellCodec, RoundTripsEveryField) {
  const CellResult original = sampleCell();
  const CellResult decoded = decodeCell(encodeCell(original));
  expectIdentical(original, decoded);
  // Spot-check the decimal-hostile doubles really are bit-identical.
  EXPECT_EQ(decoded.windows[0].meanCp, 0.1 + 0.2);
  EXPECT_EQ(decoded.windows[0].meanIlp, 5e-324);
  EXPECT_EQ(decoded.deps.meanDistance, 3.3333333333333335);
}

TEST(CellCodec, RoundTripsFailedCellWithFaultText) {
  CellResult failed = sampleCell();
  failed.cell.ok = false;
  failed.cell.kind = "CrashFault";
  failed.cell.summary =
      "worker for cell 'STREAM/GCC 12.2 RISC-V' killed by SIGSEGV (signal "
      "11)";
  failed.faultText = "\n[cell 'STREAM/GCC 12.2 RISC-V' failed]\n=== FAULT "
                     "REPORT: CrashFault ===\n...\n\n";
  const CellResult decoded = decodeCell(encodeCell(failed));
  expectIdentical(failed, decoded);
  EXPECT_EQ(decoded.cell.kind, "CrashFault");
  EXPECT_EQ(decoded.faultText, failed.faultText);
}

// v3 codec: the fusion block must survive the round-trip exactly
// — including per-rule arrays — for both successful and failed cells, so a
// warm-store rerun of a fusion grid reproduces BENCH_fusion.json
// byte-for-byte.
TEST(CellCodec, RoundTripsFusionFields) {
  const CellResult original = sampleCell();
  const CellResult decoded = decodeCell(encodeCell(original));
  expectIdentical(original, decoded);
  EXPECT_TRUE(decoded.hasFusion);
  EXPECT_EQ(decoded.fusedInstructions, 123450000u);
  EXPECT_EQ(decoded.fusionPairs, 6789u);
  EXPECT_EQ(decoded.fusionPairsByRule, original.fusionPairsByRule);
  EXPECT_EQ(decoded.fusionUnattributedPairs, 5u);
  ASSERT_EQ(decoded.fusionKernels.size(), 2u);
  EXPECT_EQ(decoded.fusionKernels[1].name, "triad");
  EXPECT_EQ(decoded.fusionKernels[1].pairs, 5555u);
  EXPECT_EQ(decoded.fusionKernels[1].byRule,
            original.fusionKernels[1].byRule);
  ASSERT_EQ(decoded.fusedKernels.size(), 2u);
  EXPECT_EQ(decoded.fusedKernels[0].count, 900u);
  EXPECT_EQ(decoded.fusedCriticalPath, 44321u);
  EXPECT_TRUE(decoded.hasFusedScaledCp);
  EXPECT_EQ(decoded.fusedScaledCriticalPath, 88765u);
}

// v4 codec: the memory-system block — TLB totals, page-set
// digests, occupancy bounds, per-kernel translation stats, and the full
// shared-L2 scaling curve with per-core shares — must survive the
// round-trip exactly so a warm-store rerun reproduces BENCH_mem.json
// byte-for-byte.
TEST(CellCodec, RoundTripsMemSystemFields) {
  const CellResult original = sampleCell();
  const CellResult decoded = decodeCell(encodeCell(original));
  expectIdentical(original, decoded);
  EXPECT_TRUE(decoded.hasMemSystem);
  EXPECT_EQ(decoded.memSystem, original.memSystem);
  EXPECT_EQ(decoded.memSystem.tlb.walkCycles, 1200u);
  EXPECT_EQ(decoded.memSystem.pageSetDigest, 0xFEEDFACE12345678ull);
  EXPECT_EQ(decoded.memSystem.totalBytes(), 2048u + 576u + 128u);
  EXPECT_EQ(decoded.cache.prefetchFillsFromMem, 9u);
  ASSERT_EQ(decoded.memKernels.size(), 2u);
  EXPECT_EQ(decoded.memKernels[1].name, "triad");
  EXPECT_EQ(decoded.memKernels[1].pageSetDigest, 0x2222222222222222ull);
  ASSERT_EQ(decoded.memScaling.size(), 2u);
  EXPECT_EQ(decoded.memScaling[0], original.memScaling[0]);
  EXPECT_EQ(decoded.memScaling[1], original.memScaling[1]);
  ASSERT_EQ(decoded.memScaling[1].perCore.size(), 2u);
  EXPECT_EQ(decoded.memScaling[1].perCore[1].latencyCycles, 5800u);
}

TEST(CellCodec, MemSystemlessCellOmitsBlock) {
  CellResult cell = sampleCell();
  cell.hasMemSystem = false;
  const CellResult decoded = decodeCell(encodeCell(cell));
  EXPECT_FALSE(decoded.hasMemSystem);
  EXPECT_EQ(decoded.memSystem, uarch::mem::MemSummary{});
  EXPECT_TRUE(decoded.memKernels.empty());
  EXPECT_TRUE(decoded.memScaling.empty());
  EXPECT_NE(cellDigest(cell), cellDigest(sampleCell()));
}

TEST(CellCodec, RoundTripsFailedFusedCell) {
  // A fusion cell that faulted mid-grid: ok=false with fault text, fusion
  // block still attached. Both the flag and the payload must round-trip.
  CellResult failed = sampleCell();
  failed.cell.ok = false;
  failed.cell.kind = "TimeoutFault";
  failed.cell.summary = "worker for cell 'STREAM/GCC 12.2 RISC-V' timed out";
  failed.faultText = "=== FAULT REPORT: TimeoutFault ===\n...\n";
  const CellResult decoded = decodeCell(encodeCell(failed));
  expectIdentical(failed, decoded);
  EXPECT_FALSE(decoded.cell.ok);
  EXPECT_TRUE(decoded.hasFusion);
  EXPECT_EQ(decoded.fusionPairs, 6789u);
  EXPECT_EQ(decoded.faultText, failed.faultText);
}

TEST(CellCodec, FusionlessCellOmitsFusionBlock) {
  CellResult cell = sampleCell();
  cell.hasFusion = false;
  const CellResult decoded = decodeCell(encodeCell(cell));
  EXPECT_FALSE(decoded.hasFusion);
  EXPECT_EQ(decoded.fusionPairs, 0u);
  EXPECT_TRUE(decoded.fusionKernels.empty());
  // And the digest separates fused from fusionless cells.
  EXPECT_NE(cellDigest(cell), cellDigest(sampleCell()));
}

TEST(CellCodec, RoundTripsNaN) {
  CellResult cell = sampleCell();
  cell.windows[0].meanCp = std::numeric_limits<double>::quiet_NaN();
  const CellResult decoded = decodeCell(encodeCell(cell));
  EXPECT_TRUE(std::isnan(decoded.windows[0].meanCp));
}

TEST(CellCodec, RejectsUnknownVersion) {
  support::JsonValue doc = encodeCell(sampleCell());
  doc.set("v", support::JsonValue(std::uint64_t{999}));
  EXPECT_THROW((void)decodeCell(doc), ConfigError);
}

TEST(CellCodec, DigestIsSensitiveToEveryBit) {
  CellResult a = sampleCell();
  CellResult b = sampleCell();
  EXPECT_EQ(cellDigest(a), cellDigest(b));
  b.windows[0].meanCp = std::nextafter(b.windows[0].meanCp, 1.0);
  EXPECT_NE(cellDigest(a), cellDigest(b));
}

/// sampleCell() with every optional block switched off: the smallest
/// encoding, where only the unconditional fields are written.
CellResult blocklessCell() {
  CellResult cell = sampleCell();
  cell.hasScaledCp = false;
  cell.hasCache = false;
  cell.hasCacheAwareCp = false;
  cell.hasThroughput = false;
  cell.hasFusion = false;
  cell.hasFusedScaledCp = false;
  cell.hasMemSystem = false;
  return cell;
}

// The encoded bytes are what stores and perfbench/golden digests hold, so
// they are pinned: a change here is a codec version bump (kCodecV), not a
// refactor.
TEST(CellCodec, WireBytesArePinned) {
  CellResult failed = sampleCell();
  failed.cell.ok = false;
  failed.cell.kind = "CrashFault";
  failed.cell.summary = "worker for cell 'STREAM/GCC 12.2 RISC-V' killed by "
                        "SIGSEGV (signal 11)";
  failed.faultText = "=== FAULT REPORT: CrashFault ===\n\"quoted\"\t\\\n";

  EXPECT_EQ(kCodecV, 4u);
  EXPECT_EQ(digestHex(fnv1a64(encodeCell(sampleCell()).dump())),
            "e8119dbc1c5c0698");
  EXPECT_EQ(digestHex(fnv1a64(encodeCell(failed).dump())), "cf0a76ad40f95d5f");
  EXPECT_EQ(digestHex(fnv1a64(encodeCell(blocklessCell()).dump())),
            "c66d47816052ee1d");
}

TEST(CellCodec, RejectsWrongGroupAndRuleCounts) {
  support::JsonValue groups = encodeCell(sampleCell());
  support::JsonValue shortGroups = support::JsonValue::array();
  shortGroups.push(support::JsonValue(std::uint64_t{1}));
  groups.set("groups", shortGroups);
  EXPECT_THROW((void)decodeCell(groups), ConfigError);

  support::JsonValue rules = encodeCell(sampleCell());
  rules.set("fusionPairsByRule", shortGroups);
  EXPECT_THROW((void)decodeCell(rules), ConfigError);
}

/// Random CellResults for the round-trip property. Every optional block is
/// toggled and every vector gets a random length; fields gated by a block
/// that is off stay at their defaults, as the engine leaves them.
class RandomCell {
 public:
  explicit RandomCell(std::uint64_t seed) : rng_(seed) {}

  CellResult next() {
    CellResult cell;
    cell.key = CellKey{text(), below(8),
                       Config{coin() ? Arch::Rv64 : Arch::AArch64,
                              coin() ? kgen::CompilerEra::Gcc12
                                     : kgen::CompilerEra::Gcc9},
                       below(4)};
    cell.cell.name = text();
    cell.cell.ok = coin();
    if (!cell.cell.ok) {
      cell.cell.kind = text();
      cell.cell.summary = text();
    }
    if (coin()) cell.faultText = text();

    cell.instructions = word();
    cell.kernels.resize(below(4));
    for (auto& kernel : cell.kernels) kernel = {text(), word()};
    for (auto& group : cell.groups) group = word();
    cell.unattributed = word();
    cell.criticalPath = word();
    cell.hasScaledCp = coin();
    cell.scaledCriticalPath = word();
    cell.windows.resize(below(4));
    for (auto& window : cell.windows) {
      window = {static_cast<std::uint32_t>(word()), word(), real(), real(),
                real(), real()};
    }
    cell.deps = {word(), real(), real(), real(), real()};

    cell.hasCache = coin();
    if (cell.hasCache) {
      cell.cache = {word(), word(), word(), word(), word(), word(),
                    word(), word(), word(), word(), word()};
      cell.cacheFootprintLines = word();
      cell.cacheLineSetDigest = word();
      cell.cacheKernels.resize(below(4));
      for (auto& kernel : cell.cacheKernels) {
        kernel = {text(), word(), word(), word(),
                  word(), word(), word(), word()};
      }
    }
    cell.hasCacheAwareCp = coin();
    cell.cacheAwareCriticalPath = word();

    cell.hasThroughput = coin();
    if (cell.hasThroughput) {
      cell.throughputProgram = bound();
      cell.throughputKernels.resize(below(4));
      for (auto& kernel : cell.throughputKernels) kernel = bound();
    }

    cell.hasFusion = coin();
    if (cell.hasFusion) {
      cell.fusedInstructions = word();
      cell.fusionPairs = word();
      for (auto& count : cell.fusionPairsByRule) count = word();
      cell.fusionUnattributedPairs = word();
      cell.fusionKernels.resize(below(4));
      for (auto& kernel : cell.fusionKernels) {
        kernel.name = text();
        kernel.pairs = word();
        for (auto& count : kernel.byRule) count = word();
      }
      cell.fusedKernels.resize(below(4));
      for (auto& kernel : cell.fusedKernels) kernel = {text(), word()};
      cell.fusedCriticalPath = word();
      cell.hasFusedScaledCp = coin();
      cell.fusedScaledCriticalPath = word();
    }

    cell.hasMemSystem = coin();
    if (cell.hasMemSystem) {
      cell.memSystem.tlb = {word(), word(), word(), word(), word(), word()};
      cell.memSystem.footprintPages = word();
      cell.memSystem.pageSetDigest = word();
      cell.memSystem.demandFillBytes = word();
      cell.memSystem.prefetchFillBytes = word();
      cell.memSystem.writebackBytes = word();
      cell.memSystem.missCycles = word();
      cell.memSystem.mshrBoundCycles = word();
      cell.memSystem.bandwidthBoundCycles = word();
      cell.memKernels.resize(below(4));
      for (auto& kernel : cell.memKernels) {
        kernel = {text(), word(), word(), word(), word(), word()};
      }
      cell.memScaling.resize(below(4));
      for (auto& point : cell.memScaling) {
        point.cores = static_cast<std::uint32_t>(word());
        point.perCore.resize(below(4));
        for (auto& share : point.perCore) {
          share = {word(), word(), word(), word(), word()};
        }
        point.sharedL2Accesses = word();
        point.sharedL2Hits = word();
        point.sharedL2Misses = word();
        point.sharedWritebacksToMem = word();
        point.bytesFromMem = word();
        point.bandwidthBoundCycles = word();
        point.mshrBoundCycles = word();
      }
    }
    return cell;
  }

 private:
  bool coin() { return (rng_() & 1u) != 0; }
  std::size_t below(std::size_t n) { return rng_() % n; }
  /// Mostly small counts, sometimes full-width values.
  std::uint64_t word() { return coin() ? rng_() % 1000 : rng_(); }
  /// Any bit pattern: NaNs, infinities and subnormals included.
  double real() { return std::bit_cast<double>(rng_()); }
  /// Strings that need JSON escaping: quotes, backslashes, control bytes.
  std::string text() {
    static constexpr char kAlphabet[] = "abcXYZ09 /\"\\\n\t\x01\x1f{}[]:,";
    std::string out(below(12), ' ');
    for (char& c : out) c = kAlphabet[below(sizeof kAlphabet - 1)];
    return out;
  }
  ThroughputBoundAnalyzer::KernelBound bound() {
    ThroughputBoundAnalyzer::KernelBound out;
    out.name = text();
    out.instructions = word();
    out.portCycles.resize(below(7));
    for (auto& cycles : out.portCycles) cycles = word();
    out.portBound = word();
    out.bindingPort = text();
    out.issueBound = word();
    out.cpBound = word();
    return out;
  }

  std::mt19937_64 rng_;
};

TEST(CellCodec, RandomCellsRoundTripThroughText) {
  RandomCell random(20260417);
  for (int i = 0; i < 500; ++i) {
    const CellResult original = random.next();
    const std::string text = encodeCell(original).dump();
    // Through the text form, as the store and the pipe carry it.
    const CellResult decoded = decodeCell(support::JsonValue::parse(text));
    ASSERT_EQ(encodeCell(decoded).dump(), text) << "cell " << i;
    ASSERT_EQ(cellDigest(decoded), cellDigest(original)) << "cell " << i;

    // Direct checks that do not go through the encoder.
    EXPECT_EQ(decoded.cell.ok, original.cell.ok);
    EXPECT_EQ(decoded.cell.kind, original.cell.kind);
    EXPECT_EQ(decoded.faultText, original.faultText);
    EXPECT_EQ(decoded.key.workloadIndex, original.key.workloadIndex);
    EXPECT_EQ(decoded.key.config.arch, original.key.config.arch);
    EXPECT_EQ(decoded.groups, original.groups);
    EXPECT_EQ(decoded.hasScaledCp, original.hasScaledCp);
    EXPECT_EQ(decoded.hasCache, original.hasCache);
    EXPECT_EQ(decoded.cache, original.cache);
    EXPECT_EQ(decoded.hasCacheAwareCp, original.hasCacheAwareCp);
    EXPECT_EQ(decoded.hasThroughput, original.hasThroughput);
    EXPECT_EQ(decoded.throughputKernels.size(),
              original.throughputKernels.size());
    EXPECT_EQ(decoded.hasFusion, original.hasFusion);
    EXPECT_EQ(decoded.fusionPairsByRule, original.fusionPairsByRule);
    EXPECT_EQ(decoded.fusionKernels.size(), original.fusionKernels.size());
    EXPECT_EQ(decoded.hasFusedScaledCp, original.hasFusedScaledCp);
    EXPECT_EQ(decoded.hasMemSystem, original.hasMemSystem);
    EXPECT_EQ(decoded.memSystem, original.memSystem);
    EXPECT_EQ(decoded.memKernels, original.memKernels);
    EXPECT_EQ(decoded.memScaling, original.memScaling);
    ASSERT_EQ(decoded.windows.size(), original.windows.size());
    for (std::size_t w = 0; w < original.windows.size(); ++w) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(decoded.windows[w].meanIlp),
                std::bit_cast<std::uint64_t>(original.windows[w].meanIlp));
    }
  }
}

}  // namespace
}  // namespace riscmp::engine
