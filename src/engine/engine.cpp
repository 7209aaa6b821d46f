#include "engine/engine.hpp"

#include <chrono>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "analysis/dependency_chain.hpp"
#include "core/machine.hpp"
#include "engine/cell_codec.hpp"
#include "engine/process_worker.hpp"
#include "engine/result_store.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"
#include "support/table.hpp"
#include "uarch/mem/cache_aware_cp.hpp"

namespace riscmp::engine {

std::vector<Config> paperConfigs() {
  using kgen::CompilerEra;
  return {{Arch::AArch64, CompilerEra::Gcc9},
          {Arch::Rv64, CompilerEra::Gcc9},
          {Arch::AArch64, CompilerEra::Gcc12},
          {Arch::Rv64, CompilerEra::Gcc12}};
}

std::string configName(const Config& config) {
  return std::string(kgen::eraName(config.era)) + " " +
         std::string(archName(config.arch));
}

std::string describe(const EngineStats& stats) {
  std::ostringstream out;
  out << "engine: " << stats.compiles << " compiles (+" << stats.cacheHits
      << " cached), " << stats.simulations << " simulations, jobs="
      << stats.jobs;
  if (stats.storeHits != 0) out << ", store-hits=" << stats.storeHits;
  return out.str();
}

std::string windowIlpCell(const WindowedCPAnalyzer::WindowResult& result) {
  if (result.windows == 0) return "-";
  return sigFigs(result.meanIlp, 3);
}

ExperimentEngine::ExperimentEngine(EngineOptions options,
                                   CompileCache* sharedCache)
    : options_(std::move(options)),
      scheduler_(options_.jobs),
      cache_(sharedCache != nullptr ? sharedCache : &ownCache_) {}

std::shared_ptr<const kgen::Compiled> ExperimentEngine::compile(
    const kgen::Module& module, const Config& config) {
  return cache_->get(module, config.arch, config.era);
}

std::uint64_t ExperimentEngine::simulate(
    const kgen::Compiled& compiled,
    const std::vector<TraceObserver*>& observers,
    const std::atomic<std::uint32_t>* deadlineFlag) {
  MachineOptions machineOptions;
  machineOptions.maxInstructions = options_.budget;
  machineOptions.deadlineExpiredMs = deadlineFlag;
  Machine machine(compiled.program, machineOptions);
  for (TraceObserver* observer : observers) machine.addObserver(*observer);
  simulations_.fetch_add(1, std::memory_order_relaxed);
  return machine.run().instructions;
}

void ExperimentEngine::runCellAttempt(
    const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs, std::size_t index, CellResult& out,
    const std::atomic<std::uint32_t>* deadlineFlag) {
  const std::size_t w = index / configs.size();
  const std::size_t c = index % configs.size();
  const workloads::WorkloadSpec& spec = suite[w];

  out.key = CellKey{spec.name, w, configs[c], c};
  const unsigned analyses = options_.analysesFor
                                ? options_.analysesFor(out.key)
                                : options_.analyses;

  std::ostringstream capture;
  verify::FaultBoundary local(capture);
  local.run(spec.name + "/" + configName(configs[c]), [&] {
    if (options_.cellSetup) options_.cellSetup(out.key);

    const auto compiled = compile(spec.module, configs[c]);

    // The MultiAnalysis set: one observer instance per enabled analysis,
    // all fed by the single simulation pass below. CP, scaled CP and
    // dependency distances share one DependencyChainAnalyzer per stream.
    std::optional<PathLengthCounter> pathLength;
    std::optional<DependencyChainAnalyzer> chain;
    std::optional<WindowedCPAnalyzer> windowed;
    std::optional<uarch::mem::CacheModelAnalyzer> cacheModel;
    std::optional<uarch::mem::CacheAwareCpAnalyzer> cacheAwareCp;
    std::optional<uarch::mem::MemSystemAnalyzer> memSystem;
    std::optional<ThroughputBoundAnalyzer> throughputBound;
    std::optional<PathLengthCounter> fusedPathLength;
    std::optional<DependencyChainAnalyzer> fusedChain;
    std::optional<uarch::FusionPass> fusionPass;
    std::vector<TraceObserver*> observers;

    if (analyses & kPathLength) {
      observers.push_back(&pathLength.emplace(compiled->program));
    }
    const LatencyTable* latencies =
        (analyses & (kScaledCP | kCacheAwareCP | kFusion)) &&
                options_.latenciesFor
            ? options_.latenciesFor(configs[c].arch)
            : nullptr;
    const LatencyTable* scaledLatencies =
        (analyses & kScaledCP) ? latencies : nullptr;
    if ((analyses & (kCriticalPath | kDepDistance)) ||
        scaledLatencies != nullptr) {
      observers.push_back(
          &chain.emplace(scaledLatencies, (analyses & kDepDistance) != 0));
    }
    if (analyses & kWindowedCP) {
      observers.push_back(&windowed.emplace(
          options_.windowSizes.empty() ? WindowedCPAnalyzer::paperWindowSizes()
                                       : options_.windowSizes));
    }
    // Both cache analyses own a private MemoryHierarchy: observers are
    // independent by contract, and the same trace + geometry gives each
    // replica identical behaviour.
    const uarch::mem::CacheConfig* cacheConfig =
        (analyses & kNeedsCacheConfig) && options_.cacheConfigFor
            ? options_.cacheConfigFor(configs[c].arch)
            : nullptr;
    if ((analyses & kCacheModel) && cacheConfig != nullptr) {
      observers.push_back(
          &cacheModel.emplace(*cacheConfig, compiled->program));
    }
    if ((analyses & kMemSystem) && cacheConfig != nullptr) {
      observers.push_back(&memSystem.emplace(*cacheConfig, compiled->program,
                                             options_.memCores));
    }
    if ((analyses & kCacheAwareCP) && cacheConfig != nullptr &&
        latencies != nullptr) {
      observers.push_back(&cacheAwareCp.emplace(*latencies, *cacheConfig));
    }
    if ((analyses & kThroughputBound) && options_.throughputModelFor) {
      if (const ThroughputModel* model =
              options_.throughputModelFor(configs[c].arch)) {
        observers.push_back(
            &throughputBound.emplace(*model, compiled->program));
      }
    }

    // The fusion pass (ISSUE 8) is itself an observer of the one pass; its
    // downstream analyzers see the macro-op stream, so the cell produces
    // fusion-off (plain analyzers above) and fusion-on numbers together.
    if ((analyses & kFusion) && options_.fusionFor) {
      if (const uarch::FusionConfig* fusion =
              options_.fusionFor(configs[c].arch)) {
        std::vector<TraceObserver*> fused;
        fused.push_back(&fusedPathLength.emplace(compiled->program));
        fused.push_back(&fusedChain.emplace(latencies));
        observers.push_back(&fusionPass.emplace(*fusion, compiled->program,
                                                std::move(fused)));
      }
    }

    out.instructions = simulate(*compiled, observers, deadlineFlag);

    if (pathLength) {
      out.kernels = pathLength->kernels();
      for (std::size_t g = 0; g < kInstGroupCount; ++g) {
        out.groups[g] = pathLength->groupCount(static_cast<InstGroup>(g));
      }
      out.unattributed = pathLength->unattributed();
    }
    if (analyses & kCriticalPath) out.criticalPath = chain->criticalPath();
    if (scaledLatencies != nullptr) {
      out.hasScaledCp = true;
      out.scaledCriticalPath = chain->scaledCriticalPath();
    }
    if (windowed) out.windows = windowed->results();
    if (analyses & kDepDistance) {
      out.deps.dependencies = chain->dependencies();
      out.deps.meanDistance = chain->meanDistance();
      out.deps.within4 = chain->fractionWithin(4);
      out.deps.within16 = chain->fractionWithin(16);
      out.deps.within64 = chain->fractionWithin(64);
    }
    if (cacheModel) {
      out.hasCache = true;
      out.cache = cacheModel->totals();
      out.cacheFootprintLines = cacheModel->footprintLines();
      out.cacheLineSetDigest = cacheModel->lineSetDigest();
      out.cacheKernels = cacheModel->kernels();
    }
    if (cacheAwareCp) {
      out.hasCacheAwareCp = true;
      out.cacheAwareCriticalPath = cacheAwareCp->criticalPath();
    }
    if (memSystem) {
      out.hasMemSystem = true;
      out.memSystem = memSystem->summary();
      out.memKernels = memSystem->kernels();
      out.memScaling = memSystem->scaling();
    }
    if (throughputBound) {
      out.hasThroughput = true;
      out.throughputProgram = throughputBound->program();
      out.throughputKernels = throughputBound->kernels();
    }
    if (fusionPass) {
      out.hasFusion = true;
      out.fusedInstructions = fusionPass->outputInstructions();
      out.fusionPairs = fusionPass->pairs();
      out.fusionPairsByRule = fusionPass->pairsByRule();
      out.fusionUnattributedPairs = fusionPass->unattributedPairs();
      out.fusionKernels = fusionPass->kernels();
      if (fusedPathLength) out.fusedKernels = fusedPathLength->kernels();
      out.fusedCriticalPath = fusedChain->criticalPath();
      if (latencies != nullptr) {
        out.hasFusedScaledCp = true;
        out.fusedScaledCriticalPath = fusedChain->scaledCriticalPath();
      }
    }
  });
  out.cell = local.results().front();
  out.faultText = capture.str();
}

namespace {

std::uint32_t deadlineMillis(double seconds) {
  if (seconds <= 0.0) return 0;
  double ms = seconds * 1000.0;
  if (ms < 1.0) ms = 1.0;
  const double cap = 4294967295.0;
  if (ms > cap) ms = cap;
  return static_cast<std::uint32_t>(ms);
}

CellKey keyForIndex(const std::vector<workloads::WorkloadSpec>& suite,
                    const std::vector<Config>& configs, std::size_t index) {
  const std::size_t w = index / configs.size();
  const std::size_t c = index % configs.size();
  return CellKey{suite[w].name, w, configs[c], c};
}

/// Record a cell that --fail-fast prevented from ever starting. Not a
/// fault (nothing ran), so no crash report — just a failed status the
/// boundary summary and the ✗(skipped) report cell surface.
void markSkipped(CellResult& out,
                 const std::vector<workloads::WorkloadSpec>& suite,
                 const std::vector<Config>& configs, std::size_t index,
                 const std::string& name) {
  out = CellResult{};
  out.key = keyForIndex(suite, configs, index);
  out.cell.name = name;
  out.cell.ok = false;
  out.cell.kind = "skipped";
  out.cell.summary = "not run: --fail-fast stopped the grid after an "
                     "earlier cell failed";
}

}  // namespace

GridResult ExperimentEngine::runGrid(
    const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs) {
  GridResult grid;
  grid.workloadCount = suite.size();
  grid.configCount = configs.size();
  grid.cells.resize(suite.size() * configs.size());
  const std::size_t count = grid.cells.size();

  std::vector<std::string> names(count);
  for (std::size_t index = 0; index < count; ++index) {
    names[index] = suite[index / configs.size()].name + "/" +
                   configName(configs[index % configs.size()]);
  }

  // Result-store read-through, the engine's only way to skip a cell: any
  // cell whose content key is already stored is served without compiling
  // or simulating. Only ok cells are ever stored, so a rerun after a crash
  // recomputes exactly the cells that failed. The stored record came from
  // some grid whose cell position may differ, so its grid-relative
  // identity (key indices, boundary name) is rebound to this grid;
  // everything the simulation produced is position-independent.
  std::vector<char> done(count, 0);
  if (options_.resultStore && options_.storeKeyFor) {
    for (std::size_t index = 0; index < count; ++index) {
      const CellKey key = keyForIndex(suite, configs, index);
      std::optional<CellResult> stored =
          options_.resultStore->load(options_.storeKeyFor(key));
      if (!stored) continue;
      grid.cells[index] = std::move(*stored);
      grid.cells[index].key = key;
      grid.cells[index].cell.name = names[index];
      done[index] = 1;
      storeHits_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  const std::uint32_t deadlineMs = deadlineMillis(options_.deadlineSeconds);
  if (options_.isolate == IsolationMode::Process) {
    runGridProcess(grid, suite, configs, names, done, deadlineMs);
  } else {
    runGridThread(grid, suite, configs, names, done, deadlineMs);
  }
  return grid;
}

void ExperimentEngine::runGridThread(
    GridResult& grid, const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs, const std::vector<std::string>& names,
    const std::vector<char>& done, std::uint32_t deadlineMs) {
  std::atomic<bool> anyFailed{false};

  scheduler_.run(grid.cells.size(), [&](std::size_t index) {
    if (done[index] != 0) return;
    CellResult& out = grid.cells[index];
    if (options_.failFast && anyFailed.load(std::memory_order_acquire)) {
      markSkipped(out, suite, configs, index, names[index]);
      return;
    }

    unsigned attempt = 0;
    for (;;) {
      out = CellResult{};
      {
        // Token scope = attempt scope: disarmed before any backoff sleep.
        const Watchdog::Token token = watchdog_.arm(deadlineMs);
        runCellAttempt(suite, configs, index, out, token.flag());
      }
      if (out.cell.ok) break;
      // Only timeouts are transient under thread isolation: every
      // in-taxonomy fault is a deterministic property of the cell, and a
      // real crash would have taken this whole process down.
      const bool transient = out.cell.kind == "TimeoutFault";
      if (!transient || attempt >= options_.retries) break;
      ++attempt;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retryBackoffDelayMs(
              options_.retryBackoffMs, options_.retrySeed, index, attempt)));
    }

    if (!out.cell.ok) anyFailed.store(true, std::memory_order_release);
    // Write-through: only ok cells persist — failures are re-attempted by
    // whoever asks for the cell next.
    if (out.cell.ok && options_.resultStore && options_.storeKeyFor) {
      options_.resultStore->store(options_.storeKeyFor(out.key), out);
    }
  });
}

void ExperimentEngine::runGridProcess(
    GridResult& grid, const std::vector<workloads::WorkloadSpec>& suite,
    const std::vector<Config>& configs, const std::vector<std::string>& names,
    const std::vector<char>& done, std::uint32_t deadlineMs) {
  std::vector<std::size_t> pending;
  for (std::size_t index = 0; index < grid.cells.size(); ++index) {
    if (done[index] == 0) pending.push_back(index);
  }

  ProcessPoolOptions pool;
  pool.jobs = scheduler_.jobs();
  pool.deadlineMs = deadlineMs;
  pool.retries = options_.retries;
  pool.backoffBaseMs = options_.retryBackoffMs;
  pool.retrySeed = options_.retrySeed;
  pool.failFast = options_.failFast;

  // Runs in the forked child: execute the cell with the inherited engine
  // machinery and ship the full result — plus this worker's stats deltas,
  // so the parent's footer counts stay isolation-mode independent — as one
  // JSON document over the pipe.
  const auto childRun = [&](std::size_t task) -> std::string {
    const std::size_t index = pending[task];
    const std::uint64_t compilesBefore = cache_->compiles();
    const std::uint64_t hitsBefore = cache_->hits();
    const std::uint64_t simsBefore =
        simulations_.load(std::memory_order_relaxed);

    CellResult out;
    runCellAttempt(suite, configs, index, out, nullptr);

    support::JsonValue payload = support::JsonValue::object();
    payload.set("v", support::JsonValue(kCodecV));
    payload.set("result", encodeCell(out));
    payload.set("compiles",
                support::JsonValue(cache_->compiles() - compilesBefore));
    payload.set("hits", support::JsonValue(cache_->hits() - hitsBefore));
    payload.set("sims",
                support::JsonValue(
                    simulations_.load(std::memory_order_relaxed) -
                    simsBefore));
    return payload.dump() + "\n";
  };

  // Runs in the parent as each cell reaches its final outcome. Crash and
  // timeout outcomes are synthesized through a local FaultBoundary so their
  // captured reports format exactly like in-process failures.
  const auto onOutcome = [&](std::size_t task,
                             const WorkerOutcome& outcome) -> bool {
    const std::size_t index = pending[task];
    CellResult& out = grid.cells[index];

    bool decoded = false;
    if (outcome.status == WorkerOutcome::Status::Payload) {
      if (const std::optional<support::JsonValue> doc =
              support::JsonValue::tryParse(outcome.payload)) {
        try {
          if (doc->at("v").asUint() == kCodecV) {
            out = decodeCell(doc->at("result"));
            childCompiles_.fetch_add(doc->at("compiles").asUint(),
                                     std::memory_order_relaxed);
            childHits_.fetch_add(doc->at("hits").asUint(),
                                 std::memory_order_relaxed);
            simulations_.fetch_add(doc->at("sims").asUint(),
                                   std::memory_order_relaxed);
            decoded = true;
          }
        } catch (const Fault&) {
          decoded = false;  // torn payload: fall through to CrashFault
        }
      }
    }

    if (!decoded) {
      out = CellResult{};
      out.key = keyForIndex(suite, configs, index);
      std::ostringstream capture;
      verify::FaultBoundary local(capture);
      local.run(names[index], [&]() {
        if (outcome.status == WorkerOutcome::Status::TimedOut) {
          throw TimeoutFault(deadlineMs);
        }
        if (outcome.signo != 0) {
          throw CrashFault(outcome.signo, names[index]);
        }
        throw CrashFault::exited(outcome.exitCode, names[index]);
      });
      out.cell = local.results().front();
      out.faultText = capture.str();
    }

    if (out.cell.ok && options_.resultStore && options_.storeKeyFor) {
      options_.resultStore->store(options_.storeKeyFor(out.key), out);
    }
    return out.cell.ok;
  };

  const std::vector<std::size_t> skipped =
      runForkedCells(pending.size(), pool, childRun, onOutcome);
  for (const std::size_t task : skipped) {
    const std::size_t index = pending[task];
    markSkipped(grid.cells[index], suite, configs, index, names[index]);
  }
}

std::vector<ExperimentEngine::RawOutcome> ExperimentEngine::runJobs(
    const std::vector<RawJob>& jobs) {
  std::vector<RawOutcome> outcomes(jobs.size());

  scheduler_.run(jobs.size(), [&](std::size_t index) {
    const RawJob& job = jobs[index];
    RawOutcome& out = outcomes[index];

    std::ostringstream capture;
    verify::FaultBoundary local(capture);
    local.run(job.name, [&] {
      CellContext context{
          job.module != nullptr ? compile(*job.module, job.config) : nullptr,
          *this};
      job.run(context);
    });
    out.cell = local.results().front();
    out.faultText = capture.str();
  });
  return outcomes;
}

EngineStats ExperimentEngine::stats() const {
  EngineStats stats;
  stats.compiles =
      cache_->compiles() + childCompiles_.load(std::memory_order_relaxed);
  stats.cacheHits =
      cache_->hits() + childHits_.load(std::memory_order_relaxed);
  stats.simulations = simulations_.load(std::memory_order_relaxed);
  stats.storeHits = storeHits_.load(std::memory_order_relaxed);
  stats.jobs = scheduler_.jobs();
  return stats;
}

namespace {

void replay(const verify::CellResult& cell, const std::string& faultText,
            verify::FaultBoundary& boundary, std::ostream& out) {
  if (!faultText.empty()) out << faultText;
  boundary.record(cell);
}

}  // namespace

void mergeIntoBoundary(const GridResult& grid, verify::FaultBoundary& boundary,
                       std::ostream& out) {
  for (const CellResult& result : grid.cells) {
    replay(result.cell, result.faultText, boundary, out);
  }
}

void mergeIntoBoundary(const std::vector<ExperimentEngine::RawOutcome>& jobs,
                       verify::FaultBoundary& boundary, std::ostream& out) {
  for (const ExperimentEngine::RawOutcome& outcome : jobs) {
    replay(outcome.cell, outcome.faultText, boundary, out);
  }
}

}  // namespace riscmp::engine
