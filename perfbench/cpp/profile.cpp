// The traced run (--trace 1): one operation of every workload, re-run with
// spans around the calls into each layer, giving the per-layer metrics.
// It is the same profile whichever --workload is named; --seed picks the
// oracle kernels and the daemon request mix.
//
//  * Grids (paper_grid, ext_grid): an untraced runGrid, then every cell
//    again as a runJobs RawJob that compiles, builds the engine's observer
//    set for the cell with each analysis behind a timing wrapper, and runs
//    the Machine. Each re-executed cell must reproduce the untraced cell's
//    cellDigest bit for bit (fidelity), or the run fails. Bare Machine::run
//    with no observers is timed on the same programs afterwards.
//  * oracle_campaign: one campaign of kernels, each fuzzed, compiled and run
//    through runOracle with spans; the interpreter and Machine set-up are
//    then timed alone on the same kernels.
//  * daemon_mixed: a short daemon run for client latencies and store
//    counters, the same requests replayed through an in-process SimService
//    for handle times, and ResultStore / cell codec calls timed on the
//    fresh cells.
#include <unistd.h>

#include <array>
#include <filesystem>
#include <optional>

#include "analysis/dep_distance.hpp"
#include "common.hpp"
#include "core/machine.hpp"
#include "daemon.hpp"
#include "engine/cell_codec.hpp"
#include "engine/result_store.hpp"
#include "engine/service.hpp"
#include "kgen/interp.hpp"
#include "support/json_lite.hpp"
#include "uarch/mem/cache_aware_cp.hpp"
#include "verify/conformance/campaign.hpp"

namespace perfbench {

using namespace riscmp;

namespace {

constexpr int kSetupRepeats = 3;
constexpr std::uint64_t kDaemonRounds = 2;
constexpr std::size_t kOracleKernels = 200;

/// Analyses timed separately, in the order of the metric names below.
enum Layer : std::size_t {
  kPathLength,
  kCriticalPath,
  kScaledCp,
  kWindowedCp,
  kDepDistance,
  kThroughputBound,
  kCacheModel,
  kCacheAwareCp,
  kMemSystem,
  kFusion,
  kLayerCount,
};
constexpr std::array<const char*, kLayerCount> kLayerMetric = {
    "analysis.path_length_s",      "analysis.critical_path_s",
    "analysis.scaled_cp_s",        "analysis.windowed_cp_s",
    "analysis.dep_distance_s",     "analysis.throughput_bound_s",
    "uarch.cache_model_s",         "uarch.cache_aware_cp_s",
    "uarch.mem_system_s",          "uarch.fusion_s"};

/// Forwards every callback to one analysis and adds the time spent in it
/// (self time; a FusionPass's includes its fused-stream analyzers).
class TimedObserver final : public TraceObserver {
 public:
  TimedObserver(TraceObserver& inner, double& seconds)
      : inner_(inner), seconds_(seconds) {}
  void onRetire(const RetiredInst& inst) override {
    const Clock::time_point t0 = Clock::now();
    inner_.onRetire(inst);
    seconds_ += secondsSince(t0);
  }
  void onRetireBlock(std::span<const RetiredInst> block) override {
    const Clock::time_point t0 = Clock::now();
    inner_.onRetireBlock(block);
    seconds_ += secondsSince(t0);
  }
  void onProgramEnd() override {
    const Clock::time_point t0 = Clock::now();
    inner_.onProgramEnd();
    seconds_ += secondsSince(t0);
  }

 private:
  TraceObserver& inner_;
  double& seconds_;
};

/// One re-executed grid cell.
struct CellTrace {
  Clock::time_point start{};
  Clock::time_point end{};
  double compile = 0.0;
  double machineSetup = 0.0;
  std::array<double, kLayerCount> self{};
  std::shared_ptr<const kgen::Compiled> compiled;
  engine::CellResult result;
};

/// Re-run one cell the way ExperimentEngine::runCellAttempt does, with a
/// span around the compile, the Machine construction and each analysis.
void traceCell(const engine::EngineOptions& options,
               const workloads::WorkloadSpec& workload,
               const engine::CellKey& key, CellTrace& trace) {
  trace.start = Clock::now();
  engine::CellResult& out = trace.result;
  out.key = key;
  if (options.cellSetup) options.cellSetup(key);

  Clock::time_point t0 = Clock::now();
  trace.compiled = std::make_shared<const kgen::Compiled>(
      kgen::compile(workload.module, key.config.arch, key.config.era));
  trace.compile = secondsSince(t0);
  const Program& program = trace.compiled->program;
  const Arch arch = key.config.arch;
  const unsigned analyses =
      options.analysesFor ? options.analysesFor(key) : options.analyses;

  std::optional<PathLengthCounter> pathLength;
  std::optional<CriticalPathAnalyzer> criticalPath;
  std::optional<CriticalPathAnalyzer> scaledCp;
  std::optional<WindowedCPAnalyzer> windowed;
  std::optional<DependencyDistanceAnalyzer> depDistance;
  std::optional<uarch::mem::CacheModelAnalyzer> cacheModel;
  std::optional<uarch::mem::CacheAwareCpAnalyzer> cacheAwareCp;
  std::optional<uarch::mem::MemSystemAnalyzer> memSystem;
  std::optional<ThroughputBoundAnalyzer> throughputBound;
  std::optional<PathLengthCounter> fusedPathLength;
  std::optional<CriticalPathAnalyzer> fusedCp;
  std::optional<CriticalPathAnalyzer> fusedScaledCp;
  std::optional<uarch::FusionPass> fusionPass;
  std::vector<std::unique_ptr<TimedObserver>> timed;
  const auto attach = [&](TraceObserver& observer, Layer layer) {
    timed.push_back(
        std::make_unique<TimedObserver>(observer, trace.self[layer]));
  };

  const LatencyTable* latencies =
      options.latenciesFor ? options.latenciesFor(arch) : nullptr;
  if (analyses & engine::kPathLength) {
    attach(pathLength.emplace(program), kPathLength);
  }
  if (analyses & engine::kCriticalPath) {
    attach(criticalPath.emplace(), kCriticalPath);
  }
  if ((analyses & engine::kScaledCP) && latencies != nullptr) {
    attach(scaledCp.emplace(*latencies), kScaledCp);
  }
  if (analyses & engine::kWindowedCP) {
    attach(windowed.emplace(options.windowSizes.empty()
                                ? WindowedCPAnalyzer::paperWindowSizes()
                                : options.windowSizes),
           kWindowedCp);
  }
  if (analyses & engine::kDepDistance) {
    attach(depDistance.emplace(), kDepDistance);
  }
  const uarch::mem::CacheConfig* cacheConfig =
      (analyses & (engine::kCacheModel | engine::kCacheAwareCP |
                   engine::kMemSystem)) &&
              options.cacheConfigFor
          ? options.cacheConfigFor(arch)
          : nullptr;
  if ((analyses & engine::kCacheModel) && cacheConfig != nullptr) {
    attach(cacheModel.emplace(*cacheConfig, program), kCacheModel);
  }
  if ((analyses & engine::kMemSystem) && cacheConfig != nullptr) {
    attach(memSystem.emplace(*cacheConfig, program, options.memCores),
           kMemSystem);
  }
  if ((analyses & engine::kCacheAwareCP) && cacheConfig != nullptr &&
      latencies != nullptr) {
    attach(cacheAwareCp.emplace(*latencies, *cacheConfig), kCacheAwareCp);
  }
  if ((analyses & engine::kThroughputBound) && options.throughputModelFor) {
    if (const ThroughputModel* model = options.throughputModelFor(arch)) {
      attach(throughputBound.emplace(*model, program), kThroughputBound);
    }
  }
  if ((analyses & engine::kFusion) && options.fusionFor) {
    if (const uarch::FusionConfig* fusion = options.fusionFor(arch)) {
      std::vector<TraceObserver*> fused;
      fused.push_back(&fusedPathLength.emplace(program));
      fused.push_back(&fusedCp.emplace());
      if (latencies != nullptr) {
        fused.push_back(&fusedScaledCp.emplace(*latencies));
      }
      attach(fusionPass.emplace(*fusion, program, std::move(fused)),
             kFusion);
    }
  }

  MachineOptions machineOptions;
  machineOptions.maxInstructions = options.budget;
  t0 = Clock::now();
  Machine machine(program, machineOptions);
  trace.machineSetup = secondsSince(t0);
  for (const auto& observer : timed) machine.addObserver(*observer);
  out.instructions = machine.run().instructions;

  if (pathLength) {
    out.kernels = pathLength->kernels();
    for (std::size_t g = 0; g < kInstGroupCount; ++g) {
      out.groups[g] = pathLength->groupCount(static_cast<InstGroup>(g));
    }
    out.unattributed = pathLength->unattributed();
  }
  if (criticalPath) out.criticalPath = criticalPath->criticalPath();
  if (scaledCp) {
    out.hasScaledCp = true;
    out.scaledCriticalPath = scaledCp->criticalPath();
  }
  if (windowed) out.windows = windowed->results();
  if (depDistance) {
    out.deps.dependencies = depDistance->dependencies();
    out.deps.meanDistance = depDistance->meanDistance();
    out.deps.within4 = depDistance->fractionWithin(4);
    out.deps.within16 = depDistance->fractionWithin(16);
    out.deps.within64 = depDistance->fractionWithin(64);
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
    if (fusedCp) out.fusedCriticalPath = fusedCp->criticalPath();
    if (fusedScaledCp) {
      out.hasFusedScaledCp = true;
      out.fusedScaledCriticalPath = fusedScaledCp->criticalPath();
    }
  }
  trace.end = Clock::now();
}

/// Per-layer totals accumulated over every traced operation.
struct Totals {
  double build = 0.0;
  double resolve = 0.0;
  double compile = 0.0;
  std::uint64_t compiles = 0;
  double interp = 0.0;
  double fuzz = 0.0;
  double oracle = 0.0;
  double machineSetup = 0.0;
  double emulate = 0.0;
  std::uint64_t emulated = 0;
  std::array<double, kLayerCount> self{};
  double busy = 0.0;
  double straggler = 0.0;
  double queueWait = 0.0;
  double capacity = 0.0;  ///< workers x traced wall
  double untracedWall = 0.0;
  double tracedWall = 0.0;
  double unattributed = 0.0;
};

void profileGrid(const engine::GridSpec& spec, const std::string& goldenPath,
                 Totals& totals, Report& report) {
  const std::map<std::string, std::string> golden = loadGolden(goldenPath);
  engine::EngineOptions base;
  base.jobs = workerThreads();

  std::vector<double> builds;
  std::vector<double> resolves;
  engine::ResolvedGrid resolved;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Clock::time_point t0 = Clock::now();
    (void)workloads::paperSuite(spec.scale);
    builds.push_back(secondsSince(t0));
    t0 = Clock::now();
    resolved = engine::resolveGridSpec(spec, base);
    resolves.push_back(secondsSince(t0));
  }
  totals.build += median(builds);
  totals.resolve += median(resolves);

  // Untraced reference. It runs again after the traced pass and the
  // overhead compares against the mean of both, so neither side pays alone
  // for running first in a cold process.
  const auto runUntraced = [&resolved](double& seconds) {
    const Clock::time_point start = Clock::now();
    engine::ExperimentEngine eng(resolved.options);
    engine::GridResult grid = eng.runGrid(resolved.suite, resolved.configs);
    seconds += secondsSince(start);
    return grid;
  };
  double untraced = 0.0;
  const engine::GridResult reference = runUntraced(untraced);

  // Traced re-execution, one RawJob per cell.
  const std::size_t configCount = resolved.configs.size();
  std::vector<CellTrace> traces(reference.cells.size());
  std::vector<engine::ExperimentEngine::RawJob> jobs;
  for (std::size_t i = 0; i < traces.size(); ++i) {
    const std::size_t w = i / configCount;
    const std::size_t c = i % configCount;
    engine::ExperimentEngine::RawJob job;
    job.name = resolved.suite[w].name + "/" +
               engine::configName(resolved.configs[c]);
    job.run = [&, i, w, c](engine::ExperimentEngine::CellContext&) {
      traceCell(resolved.options, resolved.suite[w],
                engine::CellKey{resolved.suite[w].name, w,
                                resolved.configs[c], c},
                traces[i]);
    };
    jobs.push_back(std::move(job));
  }
  engine::ExperimentEngine tracedEngine(resolved.options);
  const Clock::time_point tracedStart = Clock::now();
  const std::vector<engine::ExperimentEngine::RawOutcome> outcomes =
      tracedEngine.runJobs(jobs);
  const double traced = secondsSince(tracedStart);
  (void)runUntraced(untraced);

  // Check each re-executed cell, then time bare emulation of its program
  // (no observers, one at a time).
  for (std::size_t i = 0; i < traces.size(); ++i) {
    CellTrace& trace = traces[i];
    trace.result.cell = outcomes[i].cell;
    trace.result.faultText = outcomes[i].faultText;
    const engine::CellResult& expected = reference.cells[i];
    const std::string name = outcomes[i].cell.name;
    report.attempted += 1;
    const std::string digest = engine::digestHex(engine::cellDigest(expected));
    if (!outcomes[i].cell.ok || !expected.cell.ok) {
      report.fail(name + ": cell failed: " + outcomes[i].cell.summary +
                  expected.cell.summary);
      continue;
    }
    if (engine::digestHex(engine::cellDigest(trace.result)) != digest) {
      report.fail(name + ": traced re-run differs from runGrid (fidelity)");
      continue;
    }
    const auto want = golden.find(name);
    if (want == golden.end() || want->second != digest) {
      report.fail(name + ": cellDigest differs from golden");
      continue;
    }

    MachineOptions machineOptions;
    machineOptions.maxInstructions = resolved.options.budget;
    Machine machine(trace.compiled->program, machineOptions);
    const Clock::time_point t0 = Clock::now();
    const std::uint64_t retired = machine.run().instructions;
    const double emulate = secondsSince(t0);
    if (retired != expected.instructions) {
      report.fail(name + ": bare emulation retired a different count");
    }
    totals.emulate += emulate;
    totals.emulated += retired;

    const double duration = secondsBetween(trace.start, trace.end);
    double covered = trace.compile + trace.machineSetup + emulate;
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      totals.self[l] += trace.self[l];
      covered += trace.self[l];
    }
    totals.compile += trace.compile;
    totals.compiles += 1;
    totals.machineSetup += trace.machineSetup;
    totals.busy += duration;
    totals.straggler = std::max(totals.straggler, duration);
    totals.queueWait += secondsBetween(tracedStart, trace.start);
    totals.unattributed += duration - covered;
  }
  totals.capacity += static_cast<double>(tracedEngine.jobs()) * traced;
  totals.untracedWall += untraced / 2.0;
  totals.tracedWall += traced;
}

void profileOracle(const Args& args, Totals& totals, Report& report) {
  // Untraced reference: one campaign, exactly as the workload sends it,
  // before and after the traced pass (see profileGrid).
  verify::conformance::CampaignOptions campaign;
  campaign.seed = args.seed;
  campaign.count = kOracleKernels;
  campaign.jobs = workerThreads();
  Clock::time_point t0 = Clock::now();
  const std::string expected =
      verify::conformance::runCampaign(campaign).digestText();
  totals.untracedWall += secondsSince(t0) / 2.0;

  // Traced: the same kernels, one RawJob each, with spans.
  struct KernelTrace {
    double fuzz = 0.0;
    double compile = 0.0;
    int compiles = 0;
    double oracle = 0.0;
    kgen::Module module;
    verify::conformance::KernelOutcome outcome;
    std::vector<std::shared_ptr<const kgen::Compiled>> compiled;
  };
  std::vector<KernelTrace> kernels(kOracleKernels);
  std::vector<engine::ExperimentEngine::RawJob> jobs;
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    engine::ExperimentEngine::RawJob job;
    job.name = "conformance/seed=" + std::to_string(args.seed + i);
    job.run = [&kernels, &args, i](engine::ExperimentEngine::CellContext&) {
      KernelTrace& kernel = kernels[i];
      Clock::time_point s = Clock::now();
      verify::conformance::KernelFuzzer fuzzer(args.seed + i);
      kernel.module = fuzzer.generate();
      kernel.fuzz = secondsSince(s);
      verify::conformance::OracleOptions options;
      options.compileFn =
          [&kernel](const kgen::Module& module,
                    const verify::conformance::OracleConfig& config) {
            const Clock::time_point c0 = Clock::now();
            auto compiled = std::make_shared<const kgen::Compiled>(
                kgen::compile(module, config.arch, config.era));
            kernel.compile += secondsSince(c0);
            kernel.compiles += 1;
            kernel.compiled.push_back(compiled);
            return compiled;
          };
      s = Clock::now();
      kernel.outcome.seed = args.seed + i;
      kernel.outcome.report =
          verify::conformance::runOracle(kernel.module, options);
      kernel.oracle = secondsSince(s) - kernel.compile;
    };
    jobs.push_back(std::move(job));
  }
  engine::EngineOptions engineOptions;
  engineOptions.jobs = workerThreads();
  t0 = Clock::now();
  engine::ExperimentEngine(engineOptions).runJobs(jobs);
  totals.tracedWall += secondsSince(t0);
  t0 = Clock::now();
  (void)verify::conformance::runCampaign(campaign);
  totals.untracedWall += secondsSince(t0) / 2.0;

  // Fidelity against the untraced campaign, then the probes run alone.
  verify::conformance::CampaignResult traced;
  for (const KernelTrace& kernel : kernels) {
    traced.outcomes.push_back(kernel.outcome);
  }
  report.attempted += 1;
  if (traced.digestText() != expected) {
    report.fail("traced oracle digests differ from runCampaign (fidelity)");
  }
  for (KernelTrace& kernel : kernels) {
    if (!kernel.outcome.report.ok()) {
      report.fail("seed=" + std::to_string(kernel.outcome.seed) + ": " +
                  kernel.outcome.report.summary());
    }
    totals.fuzz += kernel.fuzz;
    totals.compile += kernel.compile;
    totals.compiles += static_cast<std::uint64_t>(kernel.compiles);
    totals.oracle += kernel.oracle;

    Clock::time_point s = Clock::now();
    kgen::Interpreter interpreter(kernel.module);
    interpreter.run();
    totals.interp += secondsSince(s);
    for (const auto& compiled : kernel.compiled) {
      s = Clock::now();
      const Machine machine(compiled->program);
      totals.machineSetup += secondsSince(s);
    }
  }
}

/// Durations of repeated calls into one function.
struct CallTimes {
  std::vector<double> seconds;
  void add(Clock::time_point t0) { seconds.push_back(secondsSince(t0)); }
};

void profileDaemon(const Args& args, Report& report) {
  const std::string golden = args.root + "/perfbench/golden/daemon_primed.txt";
  std::vector<std::vector<Request>> rounds;
  for (std::uint64_t r = 0; r < kDaemonRounds; ++r) {
    rounds.push_back(buildRound(args.seed, r));
  }

  // Client view: latencies and the daemon's own store counters.
  std::vector<Outcome> seen;
  std::vector<std::string> primed;
  support::JsonValue stats;
  {
    Daemon daemon(args, "trace", daemonJobs());
    (void)daemon.waitReady();
    primed = primeDaemon(daemon, golden, report);
    for (const std::vector<Request>& round : rounds) {
      for (Outcome& outcome :
           runRound(daemon, round, primed, daemonClients())) {
        report.attempted += 1;
        if (!outcome.ok) report.fail(outcome.error);
        seen.push_back(std::move(outcome));
      }
    }
    stats = support::JsonValue::parse(daemon.request("{\"type\":\"stats\"}"));
    report.attempted += 1;
    if (const int code = daemon.shutdown(); code != 0) {
      report.fail("traced daemon exited with " + std::to_string(code));
    }
  }
  const double cells = static_cast<double>(stats.at("cells").asUint());
  report.add("result_store.hit_ratio",
             cells == 0.0 ? 0.0
                          : static_cast<double>(
                                stats.at("store_hits").asUint()) /
                                cells,
             "ratio");
  report.add("result_store.bytes_read",
             static_cast<double>(stats.at("store_bytes_read").asUint()),
             "B");
  report.add("result_store.bytes_written",
             static_cast<double>(stats.at("store_bytes_written").asUint()),
             "B");

  // Handle times: the same request sequence through an in-process service
  // with its own empty store, primed the same way.
  const std::string storeRoot =
      args.workDir + "/trace-store-" + std::to_string(getpid());
  std::filesystem::remove_all(storeRoot);
  std::vector<double> handle;
  std::vector<double> wait;
  {
    engine::ServiceOptions options;
    options.jobs = daemonJobs();
    options.storeRoot = storeRoot;
    engine::SimService service(options);
    for (const engine::GridSpec& spec : primedSpecs()) {
      (void)service.handleLine(gridRequest(spec));
    }
    std::size_t index = 0;
    for (const std::vector<Request>& round : rounds) {
      for (const Request& request : round) {
        const int sends = request.kind == Request::Kind::Fresh ? 2 : 1;
        for (int s = 0; s < sends; ++s, ++index) {
          const Clock::time_point t0 = Clock::now();
          const std::string reply = service.handleLine(request.line);
          const double seconds = secondsSince(t0);
          handle.push_back(seconds);
          if (index < seen.size() && seen[index].ok) {
            wait.push_back(seen[index].latency - seconds);
          }
          if (request.kind == Request::Kind::Hit &&
              replyCells(reply) != primed[request.primed]) {
            report.fail("in-process reply differs from the daemon's");
          }
        }
      }
    }
  }
  std::filesystem::remove_all(storeRoot);
  report.add("service.handle_ms", median(handle) * 1e3, "ms");
  report.add("service.wait_ms", median(wait) * 1e3, "ms");

  // Store and codec calls on the cells of the first fresh grids.
  CallTimes load;
  CallTimes store;
  CallTimes encode;
  CallTimes decode;
  {
    engine::ResultStore resultStore(storeRoot);
    engine::EngineOptions base;
    base.jobs = daemonJobs();
    for (std::uint64_t k = 0; k < 4; ++k) {
      const engine::ResolvedGrid resolved =
          engine::resolveGridSpec(freshSpec(k), base);
      engine::ExperimentEngine eng(resolved.options);
      const engine::GridResult grid =
          eng.runGrid(resolved.suite, resolved.configs);
      for (std::size_t i = 0; i < grid.cells.size(); ++i) {
        const engine::CellResult& cell = grid.cells[i];
        const std::string& key = resolved.cellKeys[i];
        Clock::time_point t0 = Clock::now();
        const std::string text = engine::encodeCell(cell).dump();
        encode.add(t0);
        t0 = Clock::now();
        const engine::CellResult back =
            engine::decodeCell(support::JsonValue::parse(text));
        decode.add(t0);
        t0 = Clock::now();
        const bool stored = resultStore.store(key, cell);
        store.add(t0);
        t0 = Clock::now();
        const std::optional<engine::CellResult> loaded =
            resultStore.load(key);
        load.add(t0);
        report.attempted += 1;
        if (!stored || !loaded ||
            engine::cellDigest(*loaded) != engine::cellDigest(cell) ||
            engine::cellDigest(back) != engine::cellDigest(cell)) {
          report.fail("store/codec round trip changed a fresh cell");
        }
      }
    }
  }
  std::filesystem::remove_all(storeRoot);
  report.add("result_store.load_ms", median(load.seconds) * 1e3, "ms");
  report.add("result_store.store_ms", median(store.seconds) * 1e3, "ms");
  report.add("cell_codec.encode_us", median(encode.seconds) * 1e6, "us");
  report.add("cell_codec.decode_us", median(decode.seconds) * 1e6, "us");
}

}  // namespace

Report runTracedProfile(const Args& args) {
  Report report;
  Totals totals;
  const std::string golden = args.root + "/perfbench/golden/";
  profileGrid(paperGridSpec(), golden + "paper_grid.txt", totals, report);
  profileGrid(extGridSpec(), golden + "ext_grid.txt", totals, report);
  const Totals grids = totals;
  profileOracle(args, totals, report);
  profileDaemon(args, report);

  report.add("workloads.build_s", totals.build, "s");
  report.add("grid_spec.resolve_s", totals.resolve, "s");
  report.add("kgen.compile_s", totals.compile, "s");
  report.add("kgen.compiles", static_cast<double>(totals.compiles), "count");
  report.add("kgen.interp_s", totals.interp, "s");
  report.add("conformance.fuzz_s", totals.fuzz, "s");
  report.add("conformance.oracle_s", totals.oracle, "s");
  report.add("core.machine_setup_s", totals.machineSetup, "s");
  report.add("core.emulate_s", totals.emulate, "s");
  report.add("core.minst_per_s",
             static_cast<double>(totals.emulated) / 1e6 / totals.emulate,
             "Minst/s");
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    report.add(kLayerMetric[l], totals.self[l], "s");
  }
  report.add("scheduler.busy_s", grids.busy, "s");
  report.add("scheduler.straggler_s", grids.straggler, "s");
  report.add("scheduler.queue_wait_s", grids.queueWait, "s");
  report.add("scheduler.efficiency", grids.busy / grids.capacity, "ratio");
  report.add("trace.overhead_s", totals.tracedWall - totals.untracedWall,
             "s");
  report.add("trace.unattributed_s", grids.unattributed, "s");
  return report;
}

}  // namespace perfbench
