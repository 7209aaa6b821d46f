// Declarative experiment-grid specification (ISSUE 9, layer 1).
//
// Every report bench used to re-describe its grid imperatively: build the
// paper suite at some scale, pick configs, set an analyses mask, load core
// models, and wire four axis closures into EngineOptions. That description
// was duplicated across 10+ benches and — being closures — could neither
// be serialized to a daemon nor fingerprinted for a result store. GridSpec
// is that description as data:
//
//   workload filter × configs × analyses mask (+ GCC 12.2-only extras)
//   × window sizes × budget × scale × per-arch core-model axis
//
// with an exact JSON round-trip (the simd socket protocol's request body),
// a canonical fingerprint (the daemon's request-batching key), and one
// shared resolver that turns the spec into the suite/configs/EngineOptions
// triple the engine consumes. The resolver also derives one content key
// per cell — module bytes, arch, era, effective analyses, budget, window
// sizes, and the core-model file content all folded in — which is what the
// ResultStore addresses results by. Benches become thin renderers over
// GridSpec → GridResult and stop caring where the cells were computed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "support/json_lite.hpp"
#include "uarch/core_model.hpp"

namespace riscmp::engine {

inline constexpr std::uint64_t kGridSpecV = 2;  // v2: mem_cores axis

/// A complete, serializable description of one experiment grid. Execution
/// details that do not change any cell's numbers (worker count, isolation
/// mode, deadlines, store location) deliberately stay out — they live in
/// EngineOptions and may differ between the processes that share results.
struct GridSpec {
  /// Workload stretch factor (the benches' --scale); part of the module
  /// content, so it needs no separate slot in the cell fingerprints.
  double scale = 1.0;
  /// Suite filter by workload name; empty = the full paper suite.
  std::vector<std::string> workloads;
  /// Grid columns; empty = the paper's four configs.
  std::vector<Config> configs;
  /// AnalysisFlags mask attached to every cell.
  unsigned analyses = kAllAnalyses;
  /// Extra analyses for GCC 12.2 cells only (the paper runs Figure 2 and
  /// §6.2 on the newer binaries alone).
  unsigned gcc12Analyses = 0;
  /// Window sizes for kWindowedCP; empty = the paper's 4...2000 set.
  std::vector<std::uint32_t> windowSizes;
  /// Per-cell instruction budget (0 = unlimited).
  std::uint64_t budget = kDefaultInstructionBudget;
  /// Directory core-model YAML files load from; empty = the repository
  /// configs/ directory.
  std::string configDir;
  /// Core-model names (file stem under configDir) feeding the latency /
  /// cache / throughput / fusion axes per arch; empty = no model axes for
  /// cells of that arch.
  std::string modelA64;
  std::string modelRv64;
  /// Shared-L2 scaling points for kMemSystem cells (EngineOptions::
  /// memCores); part of the spec fingerprint when the analysis is on.
  std::vector<unsigned> memCores = {1, 2, 4};
  /// When set, a cell whose arch names a model that failed to load — or
  /// that lacks a section an enabled analysis needs (caches: for the cache
  /// analyses, fusion: for kFusion) — fails with a per-cell ConfigError
  /// instead of silently running without the axis.
  bool requireModels = false;
};

/// Exact JSON round-trip (scale travels as its IEEE-754 bit pattern, like
/// every double in cell_codec). gridSpecFromJson throws ConfigError on
/// version or shape mismatch.
support::JsonValue gridSpecToJson(const GridSpec& spec);
GridSpec gridSpecFromJson(const support::JsonValue& value);

/// The grid's axes materialized, without any core-model I/O — what a
/// renderer needs for table headers whether cells run locally or arrive
/// from a daemon. Throws ConfigError on invalid scale or an unknown
/// workload name.
struct GridShape {
  std::vector<workloads::WorkloadSpec> suite;
  std::vector<Config> configs;
};
GridShape resolveGridShape(const GridSpec& spec);

/// Core models backing the spec's axis closures; shared so the closures
/// stay valid however ResolvedGrid is copied or moved.
struct GridModels {
  std::optional<uarch::CoreModel> a64;
  std::optional<uarch::CoreModel> rv64;
  std::optional<ThroughputModel> a64Throughput;
  std::optional<ThroughputModel> rv64Throughput;
  std::string a64Error;  ///< load-failure text ("" when loaded or unnamed)
  std::string rv64Error;
  std::uint64_t a64Digest = 0;  ///< FNV-1a of the model file bytes
  std::uint64_t rv64Digest = 0;
};

/// A spec bound to engine inputs: the resolved suite/configs, EngineOptions
/// whose axis closures serve the loaded models, one ResultStore content key
/// per cell (dense grid order), and the whole-grid fingerprint the daemon
/// batches identical requests on.
struct ResolvedGrid {
  std::vector<workloads::WorkloadSpec> suite;
  std::vector<Config> configs;
  std::shared_ptr<const GridModels> models;
  EngineOptions options;
  std::vector<std::string> cellKeys;
  std::string fingerprint;
};

/// Resolve `spec` against `base` execution options (jobs, isolation,
/// deadlines, store wiring — everything the spec itself does not
/// govern). base.cellSetup is preserved and runs before the spec's own
/// requireModels check; base.analyses/budget/windowSizes and the four axis
/// closures are overwritten from the spec. Model-load failures are
/// recorded in `models` rather than thrown: with requireModels they become
/// per-cell ConfigErrors, otherwise the affected axes are simply absent,
/// exactly like the benches they replace.
ResolvedGrid resolveGridSpec(const GridSpec& spec, const EngineOptions& base);

/// Spelling helpers for the JSON encoding ("a64"/"rv64", "gcc9"/"gcc12");
/// parsers throw ConfigError on unknown tokens.
std::string archToken(Arch arch);
Arch archFromToken(const std::string& token);
std::string eraToken(kgen::CompilerEra era);
kgen::CompilerEra eraFromToken(const std::string& token);

}  // namespace riscmp::engine
