// Parallel single-pass experiment engine (ISSUE 2 tentpole).
//
// The paper computes all four of its metrics — path length, critical path,
// scaled critical path, windowed critical path — from the *same* dynamic
// trace; OSACA and Celio et al.'s fusion study use the same shape (one
// trace pass feeding many concurrent analyses). This engine makes that the
// repo's substrate: each workload × era × ISA cell is compiled at most once
// (CompileCache), simulated exactly once on a worker-thread pool
// (CellScheduler), and the retired-instruction stream fans out to every
// registered TraceObserver analysis in that one pass (the MultiAnalysis
// set). Benches become pure report generators over the returned
// CellResults.
//
// Threading contract (see core/machine.hpp and isa/trace.hpp): one Machine
// and one fresh observer set per cell, driven by one worker thread; the
// only shared mutable state is the compile cache (internally locked) and
// the engine's counters (atomics). Every cell runs inside its own
// verify::FaultBoundary capturing to a private buffer, so one faulting
// cell cannot take down its worker or interleave crash reports; outcomes
// are merged into the caller's boundary in deterministic cell order.
//
// Resilient execution layer (ISSUE 6): runGrid additionally supports
//  - per-cell wall-clock deadlines (a watchdog converts overruns into
//    typed TimeoutFaults — cooperative under thread isolation, preemptive
//    SIGKILL under process isolation),
//  - bounded seeded retry with exponential backoff for transient faults
//    (timeouts and worker crashes; in-taxonomy simulation faults are
//    deterministic and never retried),
//  - process-sandboxed workers (--isolate=process): each cell runs in a
//    forked subprocess speaking the cell_codec pipe protocol, so a
//    SIGSEGV/SIGKILL/OOM inside one cell becomes a CrashFault record while
//    the rest of the grid completes (process_worker.hpp).
// Completed cells are skipped through the result store alone
// (result_store.hpp): each ok cell is written atomically as it finishes,
// so rerunning a crashed grid with the same store recomputes exactly the
// cells that failed or never ran, and the stored results reproduce a
// byte-identical report.
// These apply to runGrid only; runJobs RawJob closures cannot be
// serialized across a process boundary or stored generically.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "analysis/critical_path.hpp"
#include "analysis/path_length.hpp"
#include "analysis/throughput_bound.hpp"
#include "analysis/windowed_cp.hpp"
#include "engine/compile_cache.hpp"
#include "engine/scheduler.hpp"
#include "engine/watchdog.hpp"
#include "isa/arch.hpp"
#include "kgen/compile.hpp"
#include "uarch/fusion/fusion.hpp"
#include "uarch/mem/cache_model.hpp"
#include "uarch/mem/mem_system.hpp"
#include "verify/boundary.hpp"
#include "workloads/workloads.hpp"

namespace riscmp::engine {

class ResultStore;

/// Default per-cell instruction budget: ~2 orders of magnitude above the
/// largest full-scale workload, small enough to stop a hang in seconds.
inline constexpr std::uint64_t kDefaultInstructionBudget = 1'000'000'000;

/// One ISA/compiler-era configuration (a table column in the paper).
struct Config {
  Arch arch;
  kgen::CompilerEra era;
};

/// The paper's four configurations, in its tables' column order.
std::vector<Config> paperConfigs();

std::string configName(const Config& config);

/// Analyses the engine can attach to a cell's single simulation pass.
enum AnalysisFlags : unsigned {
  kPathLength = 1u << 0,    ///< per-kernel and per-group dynamic counts
  kCriticalPath = 1u << 1,  ///< unscaled RAW-chain critical path (§4)
  kScaledCP = 1u << 2,      ///< latency-scaled critical path (§5)
  kWindowedCP = 1u << 3,    ///< sliding-window critical path (§6)
  kDepDistance = 1u << 4,   ///< producer->consumer distances (§6.2)
  kCacheModel = 1u << 5,    ///< L1/L2 hierarchy + per-kernel MPKI (ISSUE 5)
  kCacheAwareCP = 1u << 6,  ///< scaled CP with dynamic load latencies
  kThroughputBound = 1u << 7,  ///< per-kernel port/issue/CP bounds (ISSUE 7)
  kFusion = 1u << 8,  ///< macro-op fusion pass + fused-stream PL/CP (ISSUE 8)
  kMemSystem = 1u << 9,  ///< TLB/MSHR/bandwidth + shared-L2 (ISSUE 10)
  kAllAnalyses = (1u << 10) - 1,
};

/// The analyses that read a core model's `caches:` section.
inline constexpr unsigned kNeedsCacheConfig =
    kCacheModel | kCacheAwareCP | kMemSystem;

/// Identity of one experiment cell in a grid run.
struct CellKey {
  std::string workload;
  std::size_t workloadIndex = 0;
  Config config{};
  std::size_t configIndex = 0;
};

/// Dependency-distance summary (ext_dependency_distance's table columns).
struct DepSummary {
  std::uint64_t dependencies = 0;
  double meanDistance = 0.0;
  double within4 = 0.0;
  double within16 = 0.0;
  double within64 = 0.0;
};

/// Everything one simulation pass produced for one cell. Fields belonging
/// to analyses that were not enabled (or not runnable, e.g. scaled CP with
/// no latency table) stay at their defaults.
struct CellResult {
  CellKey key;
  verify::CellResult cell;  ///< ok flag + fault kind/summary
  std::string faultText;    ///< captured crash report ("" when ok)

  std::uint64_t instructions = 0;
  std::vector<PathLengthCounter::KernelCount> kernels;
  std::array<std::uint64_t, kInstGroupCount> groups{};
  std::uint64_t unattributed = 0;

  std::uint64_t criticalPath = 0;
  bool hasScaledCp = false;
  std::uint64_t scaledCriticalPath = 0;

  std::vector<WindowedCPAnalyzer::WindowResult> windows;
  DepSummary deps;

  bool hasCache = false;
  uarch::mem::HierarchyStats cache;
  std::uint64_t cacheFootprintLines = 0;
  std::uint64_t cacheLineSetDigest = 0;
  std::vector<uarch::mem::CacheModelAnalyzer::KernelStats> cacheKernels;
  bool hasCacheAwareCp = false;
  std::uint64_t cacheAwareCriticalPath = 0;

  bool hasThroughput = false;
  ThroughputBoundAnalyzer::KernelBound throughputProgram;
  std::vector<ThroughputBoundAnalyzer::KernelBound> throughputKernels;

  // ---- Macro-op fusion (ISSUE 8): the same pass's retired stream run
  // through a FusionPass into a second PathLengthCounter / CP pair, so the
  // fusion-on and fusion-off numbers come from one simulation. ------------
  bool hasFusion = false;
  std::uint64_t fusedInstructions = 0;  ///< macro-op dynamic count
  std::uint64_t fusionPairs = 0;        ///< pairs fused across all rules
  std::array<std::uint64_t, uarch::kFusionRuleCount> fusionPairsByRule{};
  std::uint64_t fusionUnattributedPairs = 0;
  /// Per-kernel fused-pair counts (program kernel order).
  std::vector<uarch::FusionPass::KernelFusion> fusionKernels;
  /// Fusion-adjusted per-kernel path lengths (macro-op stream).
  std::vector<PathLengthCounter::KernelCount> fusedKernels;
  std::uint64_t fusedCriticalPath = 0;  ///< unscaled CP over macro-ops
  bool hasFusedScaledCp = false;
  std::uint64_t fusedScaledCriticalPath = 0;

  // ---- Memory system (ISSUE 10): TLB + page sets, MSHR/bandwidth
  // occupancy bounds, and shared-L2 multi-core scaling points, all from
  // the same single simulation pass. ------------------------------------
  bool hasMemSystem = false;
  uarch::mem::MemSummary memSystem;
  std::vector<uarch::mem::MemKernelStats> memKernels;
  std::vector<uarch::mem::ScalingPoint> memScaling;

  [[nodiscard]] double ilp() const {
    return criticalPath == 0 ? 0.0
                             : static_cast<double>(instructions) /
                                   static_cast<double>(criticalPath);
  }
  [[nodiscard]] double scaledIlp() const {
    return scaledCriticalPath == 0
               ? 0.0
               : static_cast<double>(instructions) /
                     static_cast<double>(scaledCriticalPath);
  }
  /// Ideal runtime of `cp` cycles at the paper's 2 GHz clock.
  [[nodiscard]] static double runtimeSeconds(std::uint64_t cp,
                                             double clockHz = 2e9) {
    return static_cast<double>(cp) / clockHz;
  }
};

/// A grid run's results: workload-major, config-minor, dense.
struct GridResult {
  std::size_t workloadCount = 0;
  std::size_t configCount = 0;
  std::vector<CellResult> cells;

  [[nodiscard]] const CellResult& at(std::size_t workload,
                                     std::size_t config) const {
    return cells[workload * configCount + config];
  }

  /// True when any cell failed (fault, crash, timeout, or skipped by
  /// fail-fast) — the bench exit-code-3 signal.
  [[nodiscard]] bool anyFailed() const {
    for (const CellResult& cell : cells) {
      if (!cell.cell.ok) return true;
    }
    return false;
  }
};

/// Where cells execute (EngineOptions::isolate).
enum class IsolationMode : std::uint8_t {
  Thread,   ///< worker threads in this process (fast; crashes are fatal)
  Process,  ///< forked worker subprocesses (crash/OOM/hang containment)
};

struct EngineOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  unsigned jobs = 0;
  /// Per-cell instruction budget (0 = unlimited).
  std::uint64_t budget = kDefaultInstructionBudget;
  /// Analyses attached to every cell (AnalysisFlags mask).
  unsigned analyses = kAllAnalyses;
  /// Optional per-cell override of `analyses` (e.g. windowed CP only for
  /// the GCC 12.2 columns, as in the paper's Figure 2).
  std::function<unsigned(const CellKey&)> analysesFor;
  /// Window sizes for kWindowedCP; empty = the paper's 4...2000 set.
  std::vector<std::uint32_t> windowSizes;
  /// Latency table per arch for kScaledCP; null function or null return
  /// skips the scaled analysis for that cell (hasScaledCp stays false).
  std::function<const LatencyTable*(Arch)> latenciesFor;
  /// Cache geometry per arch for kCacheModel / kCacheAwareCP; null function
  /// or null return skips both cache analyses for that cell (hasCache and
  /// hasCacheAwareCp stay false). kCacheAwareCP additionally needs a
  /// latency table from `latenciesFor` for the non-load groups.
  std::function<const uarch::mem::CacheConfig*(Arch)> cacheConfigFor;
  /// Shared-L2 scaling points for kMemSystem (which also needs a cache
  /// config from `cacheConfigFor`); part of every store/grid fingerprint.
  std::vector<unsigned> memCores = {1, 2, 4};
  /// Throughput model (ports + issue width + latencies) per arch for
  /// kThroughputBound; null function or null return skips the analysis for
  /// that cell (hasThroughput stays false).
  std::function<const ThroughputModel*(Arch)> throughputModelFor;
  /// Fusion rule set per arch for kFusion; null function or null return
  /// skips the fusion pass for that cell (hasFusion stays false). When it
  /// runs, the cell's single simulation additionally feeds a
  /// FusionPass-wrapped PathLengthCounter + critical-path pair (plus a
  /// scaled CP when `latenciesFor` provides a table), yielding the
  /// fusion-adjusted numbers alongside the unfused ones.
  std::function<const uarch::FusionConfig*(Arch)> fusionFor;
  /// Runs inside the cell's fault boundary before compilation; throwing
  /// fails the cell exactly like a simulation fault (used by tab2 to turn
  /// a missing core model into a per-cell ConfigError).
  std::function<void(const CellKey&)> cellSetup;

  // ---- Resilient execution (ISSUE 6); runGrid only ----------------------
  /// Per-cell wall-clock deadline in seconds (0 = none). Thread isolation
  /// enforces it cooperatively inside the simulator loop; process
  /// isolation SIGKILLs the worker.
  double deadlineSeconds = 0.0;
  /// Extra attempts for cells whose failure is classified transient
  /// (TimeoutFault always; CrashFault under process isolation).
  unsigned retries = 0;
  /// Retry backoff base in ms; the delay doubles per attempt, plus
  /// deterministic jitter derived from `retrySeed` and the cell index.
  unsigned retryBackoffMs = 100;
  std::uint64_t retrySeed = 0;
  /// Where cells execute; Process dispatches each cell to a forked worker.
  IsolationMode isolate = IsolationMode::Thread;
  /// Stop scheduling new cells after the first failed cell; cells never
  /// started are recorded as skipped (ok=false, kind "skipped").
  bool failFast = false;

  // ---- Persistent result store (ISSUE 9); runGrid only ------------------
  /// Content-addressed cross-process cell cache (result_store.hpp). Cells
  /// whose content key is already stored are served without compiling or
  /// simulating; every ok cell computed this run is written back as soon
  /// as it finishes, which is what makes a crashed run resumable. Requires
  /// `storeKeyFor` — both are wired by resolveGridSpec (grid_spec.hpp),
  /// whose keys fingerprint everything a result depends on.
  std::shared_ptr<ResultStore> resultStore;
  /// Content key per cell; null disables the store even when set above.
  std::function<std::string(const CellKey&)> storeKeyFor;
};

struct EngineStats {
  std::uint64_t compiles = 0;     ///< kgen::compile invocations
  std::uint64_t cacheHits = 0;    ///< compilations served from the cache
  std::uint64_t simulations = 0;  ///< Machine::run invocations
  std::uint64_t storeHits = 0;    ///< cells served from the result store
  unsigned jobs = 0;              ///< resolved worker-thread count
};

/// One line for bench footers, e.g.
/// "engine: 20 compiles (+0 cached), 20 simulations, jobs=4"
/// (", store-hits=N" appended only when nonzero, so existing footer
/// expectations are unchanged for fresh runs).
std::string describe(const EngineStats& stats);

class ExperimentEngine {
 public:
  /// `sharedCache`, when non-null, replaces the engine's private compile
  /// cache — the daemon threads one cache through every grid it serves so
  /// repeated requests stop paying compile costs. The caller keeps
  /// ownership and must outlive the engine.
  explicit ExperimentEngine(EngineOptions options = {},
                            CompileCache* sharedCache = nullptr);

  /// Simulate every workload × config cell exactly once, in parallel, with
  /// all enabled analyses attached to the one pass. Cell order in the
  /// result (and therefore every downstream report) is workload-major and
  /// independent of the thread count.
  GridResult runGrid(const std::vector<workloads::WorkloadSpec>& suite,
                     const std::vector<Config>& configs);

  /// Escape hatch for benches with custom observers (OoO cores, ablation
  /// sweeps): a RawJob runs on a worker inside its own fault boundary with
  /// this engine's compile cache, budget, and counters available through
  /// the context. Jobs must confine writes to their own result slot.
  struct CellContext {
    /// Compilation of RawJob::module (null when the job has no module and
    /// compiles its own via engine.compile()).
    std::shared_ptr<const kgen::Compiled> compiled;
    ExperimentEngine& engine;
  };
  struct RawJob {
    std::string name;  ///< fault-boundary cell name
    const kgen::Module* module = nullptr;
    Config config{};
    std::function<void(CellContext&)> run;
  };
  struct RawOutcome {
    verify::CellResult cell;
    std::string faultText;
  };
  std::vector<RawOutcome> runJobs(const std::vector<RawJob>& jobs);

  /// Thread-safe memoized compile (counts toward stats().compiles).
  std::shared_ptr<const kgen::Compiled> compile(const kgen::Module& module,
                                                const Config& config);

  /// Run one Machine over `compiled` with `observers` attached, under this
  /// engine's instruction budget; returns the dynamic instruction count and
  /// counts toward stats().simulations. `deadlineFlag`, when non-null, is
  /// the watchdog's cancellation channel (MachineOptions::deadlineExpiredMs).
  std::uint64_t simulate(const kgen::Compiled& compiled,
                         const std::vector<TraceObserver*>& observers,
                         const std::atomic<std::uint32_t>* deadlineFlag =
                             nullptr);

  [[nodiscard]] EngineStats stats() const;
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] unsigned jobs() const { return scheduler_.jobs(); }

 private:
  void runCellAttempt(const std::vector<workloads::WorkloadSpec>& suite,
                      const std::vector<Config>& configs, std::size_t index,
                      CellResult& out,
                      const std::atomic<std::uint32_t>* deadlineFlag);
  void runGridThread(GridResult& grid,
                     const std::vector<workloads::WorkloadSpec>& suite,
                     const std::vector<Config>& configs,
                     const std::vector<std::string>& names,
                     const std::vector<char>& done, std::uint32_t deadlineMs);
  void runGridProcess(GridResult& grid,
                      const std::vector<workloads::WorkloadSpec>& suite,
                      const std::vector<Config>& configs,
                      const std::vector<std::string>& names,
                      const std::vector<char>& done,
                      std::uint32_t deadlineMs);

  EngineOptions options_;
  CellScheduler scheduler_;
  CompileCache ownCache_;
  CompileCache* cache_;  ///< &ownCache_ or the constructor's shared cache
  Watchdog watchdog_;
  std::atomic<std::uint64_t> simulations_{0};
  /// Worker-subprocess stats deltas, merged from pipe payloads so the
  /// "engine: N compiles..." footer is isolation-mode independent.
  std::atomic<std::uint64_t> childCompiles_{0};
  std::atomic<std::uint64_t> childHits_{0};
  std::atomic<std::uint64_t> storeHits_{0};
};

/// Replay captured fault reports to `out` in cell order and merge every
/// outcome into `boundary` (whose finish() then yields the exit code).
void mergeIntoBoundary(const GridResult& grid, verify::FaultBoundary& boundary,
                       std::ostream& out);
void mergeIntoBoundary(const std::vector<ExperimentEngine::RawOutcome>& jobs,
                       verify::FaultBoundary& boundary, std::ostream& out);

/// Table cell for one windowed result: mean ILP to 3 significant figures,
/// or "-" when no window of that size ever filled (tiny traces would
/// otherwise print the NaN that RunningStats::min/max return when empty).
std::string windowIlpCell(const WindowedCPAnalyzer::WindowResult& result);

}  // namespace riscmp::engine
