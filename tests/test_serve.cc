/** @file Integration tests for the live serving front-end
 * (src/serve/): an in-process daemon driven by the load client over
 * TCP loopback, graceful shutdown with a verifiable checkpoint frame,
 * and protocol-error handling at the socket edge. */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"
#include "harness/scenario.hh"
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

    // The shutdown checkpoint is a valid checksummed frame holding a
    // non-empty BDQ payload.
    EXPECT_GT(summary.checkpointBytes, 0u);
    std::string payload;
    std::string error;
    ASSERT_TRUE(serve::readCheckpointFile(ckpt_path, payload, error))
        << error;
    EXPECT_GT(payload.size(), 0u);
    std::remove(ckpt_path.c_str());
}

TEST(Serve, GarbageBytesDisconnectWithoutHarm)
{
    serve::DaemonOptions dopt;
    dopt.intervalMs = 5.0;
    serve::Daemon daemon(smallSpec(), dopt);
    daemon.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(daemon.port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
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
    // 1 ms pacing: every step of the 4-node learning fleet overruns,
    // so each counter window spans a slow step, not one nominal
    // interval.
    const auto spec = harness::ScenarioSpec::fromFile(
        std::string(TWIG_SOURCE_DIR) + "/scenarios/serve.json");
    serve::DaemonOptions dopt;
    dopt.intervalMs = 1.0;
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
    // Overruns happened: far fewer steps than 1 ms intervals, and the
    // pacer counted them.
    EXPECT_LT(static_cast<double>(summary.intervals),
              0.8 * summary.wallSeconds * 1e3);
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
    serve::LiveLoad load(100.0);
    EXPECT_DOUBLE_EQ(load.rps(0), 0.0);
    EXPECT_DOUBLE_EQ(load.set(40.0), 40.0);
    EXPECT_DOUBLE_EQ(load.rps(123), 40.0);
    EXPECT_DOUBLE_EQ(load.set(250.0), 100.0);
    EXPECT_DOUBLE_EQ(load.rps(0), 100.0);
    EXPECT_DOUBLE_EQ(load.observedRps(), 250.0);
    serve::LiveLoad unclamped(0.0);
    EXPECT_DOUBLE_EQ(unclamped.set(1e9), 1e9);
}
