// SimService tests (ISSUE 9): protocol dispatch (ping/stats/errors), grid
// execution with store-backed warm replies, request batching (identical
// specs in one batch run the engine once and get identical bytes), and a
// live Unix-socket round-trip through serveUnixSocket/requestOverSocket.
#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/grid_spec.hpp"
#include "engine/service.hpp"
#include "support/fault.hpp"
#include "support/json_lite.hpp"

namespace riscmp::engine {
namespace {

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag) {
    path = std::filesystem::temp_directory_path() /
           ("riscmp-svc-" + tag + "-" +
            std::to_string(::testing::UnitTest::GetInstance()
                               ->random_seed()));
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

std::string gridRequest() {
  GridSpec spec;
  spec.scale = 0.02;
  spec.workloads = {"STREAM"};
  spec.configs = {{Arch::Rv64, kgen::CompilerEra::Gcc12}};
  spec.analyses = kPathLength;
  support::JsonValue request = support::JsonValue::object();
  request.set("type", support::JsonValue("grid"));
  request.set("spec", gridSpecToJson(spec));
  return request.dump();
}

TEST(SimService, PingStatsAndErrors) {
  SimService service({});
  const support::JsonValue pong =
      support::JsonValue::parse(service.handleLine("{\"type\":\"ping\"}"));
  EXPECT_EQ(pong.at("type").asString(), "pong");
  EXPECT_EQ(pong.at("v").asUint(), kGridSpecV);

  const support::JsonValue err =
      support::JsonValue::parse(service.handleLine("not json"));
  EXPECT_EQ(err.at("type").asString(), "error");

  const support::JsonValue unknown = support::JsonValue::parse(
      service.handleLine("{\"type\":\"frobnicate\"}"));
  EXPECT_EQ(unknown.at("type").asString(), "error");

  const support::JsonValue stats =
      support::JsonValue::parse(service.handleLine("{\"type\":\"stats\"}"));
  EXPECT_EQ(stats.at("type").asString(), "stats");
  EXPECT_EQ(stats.at("requests").asUint(), 4u);
  EXPECT_EQ(stats.at("errors").asUint(), 2u);
  // Storeless daemon: the ResultStore counters exist and read zero.
  EXPECT_EQ(stats.at("store_misses").asUint(), 0u);
  EXPECT_EQ(stats.at("store_writes").asUint(), 0u);
  EXPECT_EQ(stats.at("store_corrupt").asUint(), 0u);
  EXPECT_EQ(stats.at("store_bytes_read").asUint(), 0u);
  EXPECT_EQ(stats.at("store_bytes_written").asUint(), 0u);
}

TEST(SimService, GridRunsAndWarmRepliesComeFromStore) {
  TempDir dir("store");
  ServiceOptions options;
  options.jobs = 1;
  options.storeRoot = (dir.path / "store").string();
  SimService service(options);

  const support::JsonValue cold =
      support::JsonValue::parse(service.handleLine(gridRequest()));
  ASSERT_EQ(cold.at("type").asString(), "grid");
  EXPECT_EQ(cold.at("workloads").asUint(), 1u);
  EXPECT_EQ(cold.at("configs").asUint(), 1u);
  EXPECT_EQ(cold.at("cells").items().size(), 1u);
  EXPECT_EQ(cold.at("stats").at("simulations").asUint(), 1u);
  EXPECT_EQ(cold.at("stats").at("store_hits").asUint(), 0u);

  const support::JsonValue warm =
      support::JsonValue::parse(service.handleLine(gridRequest()));
  EXPECT_EQ(warm.at("stats").at("simulations").asUint(), 0u);
  EXPECT_EQ(warm.at("stats").at("store_hits").asUint(), 1u);
  // The payload (everything but the per-request stats) is byte-identical.
  EXPECT_EQ(cold.at("cells").dump(), warm.at("cells").dump());
  EXPECT_EQ(cold.at("fingerprint").asString(),
            warm.at("fingerprint").asString());

  EXPECT_EQ(service.totals().grids, 2u);
  EXPECT_EQ(service.totals().simulations, 1u);
  EXPECT_EQ(service.totals().storeHits, 1u);

  // The stats reply surfaces the store's own lifetime counters (ISSUE 10
  // satellite): the cold run missed once and wrote its cell, the warm run
  // read those bytes back.
  const support::JsonValue stats =
      support::JsonValue::parse(service.handleLine("{\"type\":\"stats\"}"));
  EXPECT_EQ(stats.at("store_misses").asUint(), 1u);
  EXPECT_EQ(stats.at("store_writes").asUint(), 1u);
  EXPECT_EQ(stats.at("store_corrupt").asUint(), 0u);
  EXPECT_GT(stats.at("store_bytes_written").asUint(), 0u);
  EXPECT_GT(stats.at("store_bytes_read").asUint(), 0u);
  EXPECT_EQ(stats.at("store_hits").asUint(), 1u);
}

TEST(SimService, BadWindowsGetAnErrorReplyAndTheDaemonStaysUp) {
  SimService service({});
  support::JsonValue request = support::JsonValue::parse(gridRequest());
  for (const std::uint64_t bad :
       {std::uint64_t{0}, (std::uint64_t{1} << 32) + 4,
        std::uint64_t{100000000}}) {
    support::JsonValue spec = request.at("spec");
    support::JsonValue windows = support::JsonValue::array();
    windows.push(support::JsonValue(bad));
    spec.set("windows", std::move(windows));
    request.set("spec", std::move(spec));
    const support::JsonValue reply =
        support::JsonValue::parse(service.handleLine(request.dump()));
    EXPECT_EQ(reply.at("type").asString(), "error") << bad;
    EXPECT_NE(reply.at("message").asString().find("windows"),
              std::string::npos)
        << reply.dump();
  }
  const support::JsonValue pong =
      support::JsonValue::parse(service.handleLine("{\"type\":\"ping\"}"));
  EXPECT_EQ(pong.at("type").asString(), "pong");
  const support::JsonValue grid =
      support::JsonValue::parse(service.handleLine(gridRequest()));
  EXPECT_EQ(grid.at("type").asString(), "grid");
}

TEST(SimService, IdenticalRequestsInOneBatchRunOnce) {
  SimService service({});
  const std::vector<std::string> batch = {gridRequest(), gridRequest()};
  const std::vector<std::string> responses = service.handleBatch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0], responses[1]);  // same grid -> same bytes
  const support::JsonValue doc = support::JsonValue::parse(responses[0]);
  ASSERT_EQ(doc.at("type").asString(), "grid");
  EXPECT_EQ(doc.at("stats").at("batched").asUint(), 1u);
  // One engine run for the pair, even without a result store.
  EXPECT_EQ(service.totals().simulations, 1u);
  EXPECT_EQ(service.totals().batched, 1u);
  EXPECT_EQ(service.totals().cells, 2u);
}

TEST(SimService, BrokenSpecInBatchDoesNotPoisonOthers) {
  SimService service({});
  const std::vector<std::string> batch = {
      "{\"type\":\"grid\",\"spec\":{\"v\":99}}", gridRequest()};
  const std::vector<std::string> responses = service.handleBatch(batch);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(support::JsonValue::parse(responses[0]).at("type").asString(),
            "error");
  EXPECT_EQ(support::JsonValue::parse(responses[1]).at("type").asString(),
            "grid");
}

TEST(SimService, SocketRoundTripAndShutdownDrain) {
  TempDir dir("sock");
  const std::string socketPath = (dir.path / "d.sock").string();
  SimService service({});
  volatile std::sig_atomic_t stop = 0;
  std::ostringstream log;
  std::thread server([&] { serveUnixSocket(service, socketPath, &stop, log); });

  // Wait for the listener (the daemon logs after bind+listen).
  for (int i = 0; i < 200 && !std::filesystem::exists(socketPath); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  const support::JsonValue pong = support::JsonValue::parse(
      requestOverSocket(socketPath, "{\"type\":\"ping\"}"));
  EXPECT_EQ(pong.at("type").asString(), "pong");

  const support::JsonValue grid = support::JsonValue::parse(
      requestOverSocket(socketPath, gridRequest()));
  EXPECT_EQ(grid.at("type").asString(), "grid");

  const support::JsonValue ack = support::JsonValue::parse(
      requestOverSocket(socketPath, "{\"type\":\"shutdown\"}"));
  EXPECT_EQ(ack.at("type").asString(), "shutdown");
  server.join();
  EXPECT_FALSE(std::filesystem::exists(socketPath));  // unlinked on drain
  EXPECT_THROW(requestOverSocket(socketPath, "{\"type\":\"ping\"}"),
               ConfigError);
}

}  // namespace
}  // namespace riscmp::engine
