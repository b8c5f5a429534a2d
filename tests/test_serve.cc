/** @file Integration tests for the live serving front-end
 * (src/serve/): an in-process daemon driven by the load client over
 * TCP loopback, graceful shutdown with a restorable checkpoint, ack
 * timing, and protocol-error handling at the socket edge. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "core/twig_manager.hh"
#include "harness/engine.hh"
#include "harness/registry.hh"
#include "harness/scenario.hh"
#include "rl/checkpoint.hh"
#include "serve/daemon.hh"
#include "serve/load_client.hh"
#include "serve/protocol.hh"

using namespace twig;

namespace {

/** A small cluster scenario (2 Twig nodes, one service) so fleet
 * construction stays cheap in unit tests. */
harness::ScenarioSpec
smallSpec()
{
    harness::ScenarioSpec spec;
    spec.name = "serve-test";
    spec.topology = "cluster";
    harness::ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.pattern = "fixed";
    svc.fraction = 0.3;
    spec.services.push_back(svc);
    spec.manager = "twig";
    spec.steps = 120;
    spec.seed = 7;
    spec.nodes = 2;
    spec.policy = "p2c-latency";
    return spec;
}

/** A blocking TCP socket connected to the daemon on @p port. */
int
connectLoopback(std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return fd;
}

} // namespace

TEST(Serve, LoopbackRoundTripAndGracefulShutdown)
{
    const std::string ckpt_path =
        ::testing::TempDir() + "serve_daemon_test.ckpt";
    serve::DaemonOptions dopt;
    dopt.port = 0; // ephemeral
    dopt.intervalMs = 5.0;
    dopt.finalCheckpoint = ckpt_path;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();
    ASSERT_GT(daemon.port(), 0);
    ASSERT_EQ(daemon.numServices(), 1u);
    ASSERT_EQ(daemon.maxRps().size(), 1u);
    EXPECT_GT(daemon.maxRps()[0], 0.0);

    serve::LoadClientOptions copt;
    copt.port = daemon.port();
    copt.connections = 2;
    copt.rps = 20000.0;
    copt.durationS = 0.4;
    copt.statsIntervalS = 0.05;
    const auto report = serve::runLoadClient(copt);
    for (const auto &err : report.errors)
        ADD_FAILURE() << err;
    ASSERT_EQ(report.failedConnections, 0u);
    EXPECT_EQ(report.numServices, 1u);
    EXPECT_GT(report.sent, 0u);
    // Every offered request must be acknowledged (open loop, but the
    // Bye handshake drains the ack stream before closing).
    EXPECT_EQ(report.acked, report.sent);
    EXPECT_EQ(report.ackFrames, report.batchFrames);
    // Connection 0 polled the daemon's stats.
    EXPECT_TRUE(report.haveServerStats);
    EXPECT_EQ(report.serverStats.p99Ms.size(), 1u);

    daemon.requestShutdown();
    const auto summary = daemon.join();
    EXPECT_TRUE(daemon.finished());
    // Everything the client offered arrived in the arrival windows.
    EXPECT_EQ(summary.acceptedRequests, report.sent);
    EXPECT_GT(summary.intervals, 0u);
    EXPECT_EQ(summary.listener.accepted, 2u);
    EXPECT_EQ(summary.listener.protocolErrors, 0u);
    ASSERT_EQ(summary.metrics.services.size(), 1u);
    EXPECT_EQ(summary.metrics.services[0].name, "masstree");
    EXPECT_GT(summary.metrics.meanPowerW, 0.0);
    ASSERT_EQ(summary.observedRps.size(), 1u);
    EXPECT_GT(summary.observedRps[0], 0.0);

    // The shutdown checkpoint is the one checkpoint format: it restores
    // into a manager built like node 0, which then encodes the file's
    // bytes exactly.
    const rl::Checkpoint ckpt = rl::Checkpoint::read(ckpt_path);
    EXPECT_EQ(summary.checkpointBytes, ckpt.bytes().size());
    auto setup = harness::buildFleet(
        smallSpec(), harness::ManagerRegistry::builtin(), 1);
    auto &node0 =
        dynamic_cast<core::TwigManager &>(setup.fleet->node(0).manager());
    node0.loadCheckpoint(ckpt_path);
    EXPECT_EQ(node0.checkpoint().bytes(), ckpt.bytes());
    std::remove(ckpt_path.c_str());
}

TEST(Serve, AcksAreTimedWhenTheyArriveNotAtTheNextTick)
{
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();

    serve::LoadClientOptions copt;
    copt.port = daemon.port();
    copt.connections = 2;
    copt.rps = 20000.0;
    copt.durationS = 0.5;
    copt.batchMs = 20.0;
    copt.statsIntervalS = 0.0;
    const auto report = serve::runLoadClient(copt);
    daemon.requestShutdown();
    daemon.join();
    for (const auto &err : report.errors)
        ADD_FAILURE() << err;
    ASSERT_EQ(report.failedConnections, 0u);
    ASSERT_GT(report.ackFrames, 0u);
    // A loopback round trip, not the 20 ms batch tick an ack waits for
    // when it is only read at the next send.
    EXPECT_LT(report.rttP50Us, 5000.0);
}

TEST(Serve, GarbageBytesDisconnectWithoutHarm)
{
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();

    const int fd = connectLoopback(daemon.port());
    const char garbage[] = "not a twig frame at all................";
    ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
              static_cast<ssize_t>(sizeof(garbage)));
    // The daemon must drop the connection: recv sees EOF (or a
    // reset), never a hang.
    char buf[64];
    ssize_t n;
    do {
        n = ::recv(fd, buf, sizeof(buf), 0);
    } while (n > 0);
    EXPECT_LE(n, 0);
    ::close(fd);

    daemon.requestShutdown();
    const auto summary = daemon.join();
    EXPECT_EQ(summary.listener.protocolErrors, 1u);
    EXPECT_EQ(summary.acceptedRequests, 0u);
}

TEST(Serve, DurationTriggersShutdownByItself)
{
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    dopt.durationS = 0.1;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();
    const auto summary = daemon.join(); // returns without an explicit
                                        // requestShutdown
    EXPECT_TRUE(daemon.finished());
    EXPECT_GE(summary.intervals, 10u);
    EXPECT_EQ(summary.checkpointBytes, 0u); // no path configured
}

TEST(Serve, ObservedRateCoversTheOverrunWindow)
{
    // 0.25 ms pacing: every step of the 4-node learning fleet
    // overruns (a step takes about 1 ms on a 2020s x86-64 core), so
    // each counter window spans a slow step, not one nominal interval.
    const auto spec = harness::ScenarioSpec::fromFile(
        std::string(TWIG_SOURCE_DIR) + "/scenarios/serve.json");
    serve::DaemonOptions dopt;
    dopt.intervalMs = 0.25;
    dopt.windowIntervals = 1u << 16; // the summary spans the whole run
    serve::Daemon daemon(spec, dopt);
    daemon.start();

    serve::LoadClientOptions copt;
    copt.port = daemon.port();
    copt.connections = 2;
    copt.rps = 20000.0;
    copt.durationS = 1.5;
    copt.statsIntervalS = 0.0;
    const auto report = serve::runLoadClient(copt);
    for (const auto &err : report.errors)
        ADD_FAILURE() << err;
    ASSERT_EQ(report.failedConnections, 0u);
    daemon.requestShutdown();
    const auto summary = daemon.join();

    ASSERT_EQ(summary.acceptedRequests, report.sent);
    // Overruns happened: far fewer steps than nominal intervals, and
    // the pacer counted them.
    EXPECT_LT(static_cast<double>(summary.intervals),
              0.8 * summary.wallSeconds * 1e3 / dopt.intervalMs);
    EXPECT_GE(summary.overruns, 1u);
    EXPECT_LE(summary.overruns, summary.intervals);
    // The accepted rate over the time the client was sending; the
    // daemon's own wall time also holds its last step after the client
    // stopped, up to a whole slow step in an instrumented build.
    const double accepted_rps =
        static_cast<double>(summary.acceptedRequests) / report.wallSeconds;
    ASSERT_EQ(summary.observedRps.size(), 2u);
    const double observed =
        summary.observedRps[0] + summary.observedRps[1];
    EXPECT_NEAR(observed / accepted_rps, 1.0, 0.05)
        << "window-mean observed " << observed << " req/s, accepted "
        << accepted_rps << " req/s; " << summary.intervals
        << " intervals in " << summary.wallSeconds << " s";
}

TEST(Serve, RejectsSingleTopologyScenarios)
{
    auto spec = smallSpec();
    spec.topology = "single";
    serve::DaemonOptions dopt;
    EXPECT_THROW(serve::Daemon(spec, dopt), common::FatalError);
}

TEST(Serve, LiveLoadClampsToCapacity)
{
    // One Batch far above capacity: the interval that absorbs it
    // offers the fleet exactly its capacity, not the wire rate.
    serve::DaemonOptions dopt;
    dopt.intervalMs = 20.0;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();
    const double capacity = daemon.maxRps()[0];
    ASSERT_GT(capacity, 0.0);

    const int fd = connectLoopback(daemon.port());
    std::string wire;
    serve::BatchMsg batch;
    batch.count = std::numeric_limits<std::uint32_t>::max();
    serve::encodeBatch(wire, batch);
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));

    // Poll the stats until the interval with the batch shows up.
    serve::FrameParser parser;
    std::vector<double> offered;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (offered.empty() || offered[0] == 0.0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "no interval saw the batch";
        wire.clear();
        serve::encodeStatsReq(wire);
        ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
                  static_cast<ssize_t>(wire.size()));
        serve::FrameView frame;
        bool have_stats = false;
        while (!have_stats) {
            const auto status = parser.next(frame);
            ASSERT_NE(status, serve::FrameParser::Status::Error);
            if (status == serve::FrameParser::Status::NeedMore) {
                char buf[512];
                const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
                ASSERT_GT(n, 0);
                parser.append(buf, static_cast<std::size_t>(n));
            } else if (frame.type == serve::FrameType::Stats) {
                serve::StatsMsg stats;
                ASSERT_TRUE(serve::decodeStats(frame, stats));
                offered = stats.offeredRps;
                have_stats = true;
            }
        }
        ASSERT_EQ(offered.size(), 1u);
    }
    EXPECT_EQ(offered[0], capacity);
    ::close(fd);
    daemon.requestShutdown();
    const auto summary = daemon.join();
    EXPECT_EQ(summary.acceptedRequests, batch.count);
}
