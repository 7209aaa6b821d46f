// oracle_campaign: verify::conformance::runCampaign over seeded fuzz
// kernels. One request is one campaign call over kCampaign consecutive
// module seeds, the size of the committed conformance golden run; module
// seeds continue across the run from --seed, so every request is a new
// program set (module i replays as seed + i, the campaign's convention).
// Any finding fails its module; at seeds the committed golden file covers
// (2026-2225), every digest line must also match it.
#include <unistd.h>

#include <iostream>
#include <sstream>

#include "common.hpp"
#include "verify/conformance/campaign.hpp"

namespace perfbench {

using namespace riscmp;

namespace {

constexpr int kCampaign = 200;
/// Set-ups timed before the first campaign call; one more follows every
/// call, so that their median spans the same host conditions as the calls.
constexpr int kSetupsBefore = 15;
/// Ten requests beyond the 90th percentile need at least 100 requests.
constexpr std::size_t kMinRequests = 100;

/// Digest lines keyed by module seed ("seed=N config=... retired=...").
using DigestLines = std::map<std::uint64_t, std::string>;

DigestLines splitBySeed(const std::string& text) {
  DigestLines lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("seed=", 0) != 0) continue;
    lines[std::stoull(line.substr(5))] += line + "\n";
  }
  return lines;
}

}  // namespace

Report runOracleWorkload(const Args& args) {
  Report report;
  const std::string goldenPath =
      args.root + "/tests/verify/golden/conformance_digests.txt";

  const HostSpeed speed;

  // Set-up: index the golden digests and generate one campaign's kernels.
  std::vector<double> setups;
  DigestLines golden;
  const auto setUp = [&] {
    const Clock::time_point t0 = Clock::now();
    golden = splitBySeed(readFile(goldenPath));
    for (int m = 0; m < kCampaign; ++m) {
      verify::conformance::KernelFuzzer fuzzer(args.seed +
                                               static_cast<std::uint64_t>(m));
      (void)fuzzer.generate();
    }
    setups.push_back(secondsSince(t0));
  };
  for (int i = 0; i < kSetupsBefore; ++i) setUp();

  std::vector<double> latencies;
  std::uint64_t retired = 0;
  std::uint64_t nextSeed = args.seed;
  const Clock::time_point start = Clock::now();
  while (latencies.size() < kMinRequests ||
         anotherFits(start, args.seconds, latencies)) {
    verify::conformance::CampaignOptions options;
    options.seed = nextSeed;
    options.count = kCampaign;
    options.jobs = workerThreads();
    nextSeed += kCampaign;

    const Clock::time_point t0 = Clock::now();
    const verify::conformance::CampaignResult result =
        verify::conformance::runCampaign(options);
    latencies.push_back(secondsSince(t0));

    report.attempted += result.outcomes.size();
    const DigestLines lines = splitBySeed(result.digestText());
    for (const verify::conformance::KernelOutcome& outcome :
         result.outcomes) {
      for (const verify::conformance::RunDigest& run : outcome.report.runs) {
        retired += run.retired;
      }
      const std::string seed = "seed=" + std::to_string(outcome.seed);
      if (!outcome.report.ok()) {
        report.fail(seed + ": " + outcome.report.summary());
        continue;
      }
      const auto expected = golden.find(outcome.seed);
      const auto actual = lines.find(outcome.seed);
      if (expected != golden.end() &&
          (actual == lines.end() || actual->second != expected->second)) {
        report.fail(seed + ": digests differ from the conformance golden");
      }
    }
    setUp();
  }

  report.add("setup_s", median(setups), "s");
  report.add("wall_s", median(latencies), "s");
  report.add("minst_per_s",
             static_cast<double>(retired) / 1e6 / sum(latencies), "Minst/s");
  report.add("peak_rss_mb", peakRssMb(getpid()), "MiB");
  report.add("req_p50_ms", percentile(latencies, 50) * 1e3, "ms");
  report.add("req_p90_ms", percentile(latencies, 90) * 1e3, "ms");
  report.add("cold_grid_s", median(latencies), "s");
  report.add("req_per_s",
             static_cast<double>(latencies.size()) / sum(latencies), "1/s");
  speed.correct(report);
  std::cerr << "perfbench: " << latencies.size() << " campaigns, "
            << report.attempted << " kernels from seed " << args.seed
            << ", jobs=" << workerThreads() << "\n";
  return report;
}

}  // namespace perfbench
