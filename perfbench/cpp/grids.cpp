// paper_grid and ext_grid: one report grid per operation, resolved with
// resolveGridSpec and run by a fresh ExperimentEngine, so every grid pays
// its own compiles (a cold grid). Every cell's cellDigest must equal the
// golden digest committed beside this benchmark.
#include <unistd.h>

#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "common.hpp"
#include "engine/cell_codec.hpp"
#include "engine/engine.hpp"

namespace perfbench {

using namespace riscmp;

engine::GridSpec paperGridSpec() {
  // bench/paper_report's grid: PL + CP + scaled CP on all 20 cells,
  // windowed CP (7 paper sizes) and dependency distances on GCC 12.2.
  engine::GridSpec spec;
  spec.analyses =
      engine::kPathLength | engine::kCriticalPath | engine::kScaledCP;
  spec.gcc12Analyses = engine::kWindowedCP | engine::kDepDistance;
  spec.windowSizes = WindowedCPAnalyzer::paperWindowSizes();
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  return spec;
}

engine::GridSpec extGridSpec() {
  // The union of the E11-E14 analysis masks: everything but the windowed
  // CP and dependency distances. Half scale keeps five grids (100 cells,
  // ten beyond the 90th percentile) inside one run.
  engine::GridSpec spec;
  spec.scale = 0.5;
  spec.analyses =
      engine::kAllAnalyses & ~(engine::kWindowedCP | engine::kDepDistance);
  spec.modelA64 = "tx2";
  spec.modelRv64 = "riscv-tx2";
  spec.requireModels = true;
  return spec;
}

namespace {

/// Set-ups timed before the first grid and again after every grid, so that
/// their median spans the same host conditions as the grids.
constexpr int kSetupsBefore = 9;
constexpr int kSetupsBetween = 6;
/// 20 cells per grid: five grids put ten cells beyond the 90th percentile.
constexpr std::size_t kMinGrids = 5;

std::string cellName(const engine::CellResult& cell) {
  return cell.key.workload + "/" + engine::configName(cell.key.config);
}

/// When each cell started and on which worker, recorded through the
/// engine's cellSetup hook (it runs on the worker, before the compile).
struct CellStart {
  Clock::time_point at{};
  std::thread::id worker{};
};

/// When each worker thread of one grid exited, i.e. finished its last cell.
struct WorkerExits {
  std::mutex mutex;
  std::map<std::thread::id, Clock::time_point> at;
};

/// Stamps the worker's exit into `exits` from its thread_local destructor:
/// the scheduler starts fresh threads for every grid and joins them before
/// runGrid returns, so this is the end of the worker's last cell.
struct ExitStamp {
  WorkerExits* exits = nullptr;
  ~ExitStamp() {
    if (exits == nullptr) return;
    const Clock::time_point now = Clock::now();
    const std::lock_guard<std::mutex> lock(exits->mutex);
    exits->at[std::this_thread::get_id()] = now;
  }
};
thread_local ExitStamp tExitStamp;

/// Each cell's time to result: from the grid's submission to the end of
/// the cell, which is the next start on the same worker, or the worker's
/// exit for its last cell.
std::vector<double> timesToResult(const std::vector<CellStart>& starts,
                                  WorkerExits& exits,
                                  Clock::time_point submitted,
                                  Clock::time_point returned) {
  std::vector<double> times(starts.size());
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto exit = exits.at.find(starts[i].worker);
    Clock::time_point end = exit == exits.at.end() ? returned : exit->second;
    for (const CellStart& other : starts) {
      if (other.worker == starts[i].worker && other.at > starts[i].at &&
          other.at < end) {
        end = other.at;
      }
    }
    times[i] = secondsBetween(submitted, end);
  }
  return times;
}

}  // namespace

Report runGridWorkload(const Args& args, const engine::GridSpec& spec,
                       const std::string& goldenPath) {
  Report report;
  const std::map<std::string, std::string> golden = loadGolden(goldenPath);

  engine::EngineOptions base;
  base.jobs = workerThreads();
  const HostSpeed speed;

  // Set-up: suite build, spec resolve and model load, up to the first cell.
  std::vector<double> setups;
  engine::ResolvedGrid resolved;
  const auto setUp = [&](int times) {
    for (int i = 0; i < times; ++i) {
      const Clock::time_point t0 = Clock::now();
      resolved = engine::resolveGridSpec(spec, base);
      setups.push_back(secondsSince(t0));
    }
  };
  setUp(kSetupsBefore);
  const std::size_t cellCount =
      resolved.suite.size() * resolved.configs.size();

  std::vector<double> walls;
  std::vector<double> latencies;
  std::uint64_t instructions = 0;
  const Clock::time_point start = Clock::now();
  while (walls.size() < kMinGrids ||
         anotherFits(start, args.seconds, walls)) {
    std::vector<CellStart> starts(cellCount);
    WorkerExits exits;
    engine::EngineOptions options = resolved.options;
    const std::function<void(const engine::CellKey&)> inner =
        options.cellSetup;
    const std::size_t configCount = resolved.configs.size();
    options.cellSetup = [&starts, &exits, inner,
                         configCount](const engine::CellKey& key) {
      starts[key.workloadIndex * configCount + key.configIndex] = {
          Clock::now(), std::this_thread::get_id()};
      tExitStamp.exits = &exits;
      if (inner) inner(key);
    };

    engine::ExperimentEngine eng(options);
    const Clock::time_point t0 = Clock::now();
    const engine::GridResult grid = eng.runGrid(resolved.suite,
                                                resolved.configs);
    const Clock::time_point t1 = Clock::now();
    tExitStamp.exits = nullptr;  // cells ran inline on this thread (1 job)
    walls.push_back(secondsBetween(t0, t1));
    for (const double t : timesToResult(starts, exits, t0, t1)) {
      latencies.push_back(t);
    }

    report.attempted += grid.cells.size();
    for (const engine::CellResult& cell : grid.cells) {
      instructions += cell.instructions;
      const std::string name = cellName(cell);
      const auto expected = golden.find(name);
      if (!cell.cell.ok) {
        report.fail(name + ": " + cell.cell.kind + ": " + cell.cell.summary);
      } else if (expected == golden.end() ||
                 expected->second !=
                     engine::digestHex(engine::cellDigest(cell))) {
        report.fail(name + ": cellDigest differs from golden");
      }
    }
    if (golden.size() != grid.cells.size()) {
      report.fail("golden file lists " + std::to_string(golden.size()) +
                  " cells, grid has " + std::to_string(grid.cells.size()));
    }
    setUp(kSetupsBetween);
  }

  report.add("setup_s", median(setups), "s");
  report.add("wall_s", median(walls), "s");
  report.add("minst_per_s",
             static_cast<double>(instructions) / 1e6 / sum(walls), "Minst/s");
  report.add("peak_rss_mb", peakRssMb(getpid()), "MiB");
  report.add("req_p50_ms", percentile(latencies, 50) * 1e3, "ms");
  report.add("req_p90_ms", percentile(latencies, 90) * 1e3, "ms");
  report.add("cold_grid_s", median(walls), "s");
  report.add("req_per_s", static_cast<double>(latencies.size()) / sum(walls),
             "1/s");
  speed.correct(report);
  std::cerr << "perfbench: " << walls.size() << " grids, "
            << latencies.size() << " cells, jobs=" << base.jobs << "\n";
  return report;
}

int emitGridGolden(const engine::GridSpec& spec, const std::string& path) {
  engine::EngineOptions base;
  base.jobs = workerThreads();
  const engine::ResolvedGrid resolved = engine::resolveGridSpec(spec, base);
  engine::ExperimentEngine eng(resolved.options);
  const engine::GridResult grid = eng.runGrid(resolved.suite,
                                              resolved.configs);
  std::vector<std::pair<std::string, std::string>> rows;
  for (const engine::CellResult& cell : grid.cells) {
    if (!cell.cell.ok) {
      std::cerr << "perfbench: " << cellName(cell) << " failed: "
                << cell.cell.summary << "\n";
      return 1;
    }
    rows.emplace_back(cellName(cell),
                      engine::digestHex(engine::cellDigest(cell)));
  }
  writeGolden(path, rows);
  return 0;
}

}  // namespace perfbench
