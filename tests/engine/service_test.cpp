// SimService tests (ISSUE 9): protocol dispatch (ping/stats/errors), grid
// execution with store-backed warm replies, a broken spec that leaves later
// requests unharmed, a live Unix-socket round-trip through
// serveUnixSocket/requestOverSocket, and wall-clock-bounded socket cases
// that once wedged or killed the daemon: a client that hangs up before its
// answer, one that trickles bytes, one that closes while its grid runs, and
// an over-long request line.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

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

std::string gridRequest(double scale = 0.02) {
  GridSpec spec;
  spec.scale = scale;
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

TEST(SimService, BrokenSpecDoesNotPoisonLaterRequests) {
  SimService service({});
  const support::JsonValue broken = support::JsonValue::parse(
      service.handleLine("{\"type\":\"grid\",\"spec\":{\"v\":99}}"));
  EXPECT_EQ(broken.at("type").asString(), "error");
  const support::JsonValue grid =
      support::JsonValue::parse(service.handleLine(gridRequest()));
  EXPECT_EQ(grid.at("type").asString(), "grid");
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

using Clock = std::chrono::steady_clock;

/// A blocking client socket whose sends and receives give up after 5 s, so
/// a wedged daemon fails a test instead of hanging it. -1 if unconnected.
int connectClient(const std::string& socketPath) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socketPath.c_str(), socketPath.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool sendAll(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Everything up to the first newline; empty on timeout or early EOF.
std::string readLine(int fd) {
  std::string line;
  char c = 0;
  while (::recv(fd, &c, 1, 0) == 1) {
    if (c == '\n') return line;
    line.push_back(c);
  }
  return {};
}

/// One request on a fresh connection; the reply, or empty after 5 s.
std::string timedRequest(const std::string& socketPath,
                         const std::string& line) {
  const int fd = connectClient(socketPath);
  if (fd < 0) return {};
  const std::string reply = sendAll(fd, line + "\n") ? readLine(fd) : "";
  ::close(fd);
  return reply;
}

void expectPongWithin(const std::string& socketPath, double seconds) {
  const Clock::time_point start = Clock::now();
  const std::string reply = timedRequest(socketPath, "{\"type\":\"ping\"}");
  const std::chrono::duration<double> took = Clock::now() - start;
  EXPECT_NE(reply.find("\"type\":\"pong\""), std::string::npos)
      << "reply: '" << reply << "'";
  EXPECT_LT(took.count(), seconds);
}

/// A daemon serving a private socket from a background thread, shut down
/// over the socket on destruction. A daemon that no longer answers leaves
/// the join hanging until ctest's TIMEOUT fails the test.
class LiveDaemon {
 public:
  explicit LiveDaemon(const std::string& tag, ServiceOptions options = {})
      : dir_(tag),
        socket_((dir_.path / "d.sock").string()),
        service_(std::move(options)),
        server_([this] { serveUnixSocket(service_, socket_, nullptr, log_); }) {
    for (int i = 0; i < 200 && !std::filesystem::exists(socket_); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ~LiveDaemon() {
    (void)timedRequest(socket_, "{\"type\":\"shutdown\"}");
    server_.join();
  }
  LiveDaemon(const LiveDaemon&) = delete;
  LiveDaemon& operator=(const LiveDaemon&) = delete;

  [[nodiscard]] const std::string& socket() const { return socket_; }

 private:
  TempDir dir_;
  std::string socket_;
  SimService service_;
  std::ostringstream log_;
  std::thread server_;
};

TEST(SimServiceSocket, HangUpBeforeAnswerDoesNotWedge) {
  LiveDaemon daemon("hangup");
  const int fd = connectClient(daemon.socket());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(sendAll(fd, "{\"type\":\"ping\"}\n"));
  ::close(fd);
  expectPongWithin(daemon.socket(), 1.0);
}

TEST(SimServiceSocket, TricklingClientDoesNotDelayOthers) {
  LiveDaemon daemon("trickle");
  const int slow = connectClient(daemon.socket());
  ASSERT_GE(slow, 0);
  std::atomic<bool> done{false};
  std::thread trickler([&] {
    while (!done && sendAll(slow, " ")) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  expectPongWithin(daemon.socket(), 1.0);
  done = true;
  trickler.join();
  ::close(slow);
}

TEST(SimServiceSocket, ClientClosingMidGridDoesNotKillTheDaemon) {
  ServiceOptions options;
  options.jobs = 1;
  LiveDaemon daemon("midgrid", options);
  const int fd = connectClient(daemon.socket());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(sendAll(fd, gridRequest(0.4) + "\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ::close(fd);
  expectPongWithin(daemon.socket(), 2.0);
}

TEST(SimServiceSocket, OversizedLineGetsAnErrorAndOthersAreServed) {
  LiveDaemon daemon("oversize");
  std::string reply;
  std::thread flooder([&] {
    const int fd = connectClient(daemon.socket());
    if (fd < 0) return;
    // The daemon gives up reading at kMaxRequestBytes, so the tail of the
    // flood may be refused; its reply is queued either way.
    (void)sendAll(fd, std::string(2 * kMaxRequestBytes, 'x'));
    reply = readLine(fd);
    ::close(fd);
  });
  expectPongWithin(daemon.socket(), 1.0);
  flooder.join();
  const support::JsonValue error = support::JsonValue::parse(
      reply.empty() ? std::string("{}") : reply);
  ASSERT_TRUE(error.has("type")) << "no reply to the oversized line";
  EXPECT_EQ(error.at("type").asString(), "error");
  const support::JsonValue stats = support::JsonValue::parse(
      timedRequest(daemon.socket(), "{\"type\":\"stats\"}"));
  EXPECT_EQ(stats.at("errors").asUint(), 1u);
}

}  // namespace
}  // namespace riscmp::engine
