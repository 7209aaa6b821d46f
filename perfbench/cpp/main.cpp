// perfbench: host-time benchmark of the riscmp simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --root <checkout> --simd <daemon binary> --work-dir <dir>
//   perfbench --workload <name> --emit-golden <file> ...
//
// Untraced runs (--trace 0) measure one workload and report the
// end-to-end metrics; the traced run (--trace 1) reports the per-layer
// metrics. The last line of standard output is the JSON result; progress
// and failure details go to standard error. README.md has the metric table.
#include <cmath>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload paper_grid|ext_grid|"
               "oracle_campaign|daemon_mixed --seed N --seconds S "
               "--trace 0|1 --root DIR --simd PATH --work-dir DIR "
               "[--emit-golden FILE]\n";
  return 2;
}

bool parseArgs(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") throw std::invalid_argument(value);
        args.trace = value == "1";
      } else if (flag == "--root") {
        args.root = value;
      } else if (flag == "--simd") {
        args.simd = value;
      } else if (flag == "--work-dir") {
        args.workDir = value;
      } else if (flag == "--emit-golden") {
        args.emitGolden = value;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      error = "invalid value for " + flag + ": " + value;
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parseArgs(argc, argv, args, error)) return usage(error);
  const bool grid =
      args.workload == "paper_grid" || args.workload == "ext_grid";
  if (!grid && args.workload != "oracle_campaign" &&
      args.workload != "daemon_mixed") {
    return usage("unknown workload '" + args.workload + "'");
  }
  if (args.simd.empty() || args.workDir.empty()) {
    return usage("--simd and --work-dir are required");
  }
  const std::string golden = args.root + "/perfbench/golden/";

  try {
    if (!args.emitGolden.empty()) {
      if (args.workload == "paper_grid") {
        return emitGridGolden(paperGridSpec(), args.emitGolden);
      }
      if (args.workload == "ext_grid") {
        return emitGridGolden(extGridSpec(), args.emitGolden);
      }
      if (args.workload == "daemon_mixed") return emitDaemonGolden(args);
      return usage("oracle_campaign checks the conformance golden file");
    }

    Report report;
    if (args.trace) {
      report = runTracedProfile(args);
    } else if (args.workload == "paper_grid") {
      report = runGridWorkload(args, paperGridSpec(),
                               golden + "paper_grid.txt");
    } else if (args.workload == "ext_grid") {
      report = runGridWorkload(args, extGridSpec(), golden + "ext_grid.txt");
    } else if (args.workload == "oracle_campaign") {
      report = runOracleWorkload(args);
    } else {
      report = runDaemonWorkload(args);
    }

    for (const auto& [name, metric] : report.metrics) {
      if (!std::isfinite(metric.first)) {
        std::cerr << "perfbench: metric " << name << " is not finite\n";
        return 1;
      }
    }
    for (const std::string& problem : report.problems) {
      std::cerr << "perfbench: FAILED " << problem << "\n";
    }
    std::cerr << "perfbench: " << report.failed << " of " << report.attempted
              << " operations failed (failed_ratio "
              << (report.attempted == 0
                      ? 1.0
                      : static_cast<double>(report.failed) /
                            static_cast<double>(report.attempted))
              << ")\n";
    if (report.attempted == 0) return 1;
    std::cout << report.json() << std::endl;
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: error: " << ex.what() << "\n";
    return 1;
  }
}
