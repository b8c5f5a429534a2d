/**
 * @file
 * twig_serve — the live serving front-end daemon.
 *
 * Loads a cluster-topology scenario, builds the exact fleet the batch
 * engine would run (harness::buildFleet) with serve::LiveLoad as the
 * load source, binds a TCP listener and serves the framed protocol in
 * src/serve/protocol.hh: clients stream Batch frames carrying request
 * counts; every wall-clock control interval the daemon converts the
 * arrival window into per-service RPS and steps the fleet one control
 * interval, so the per-node BDQ policies run online against measured
 * load. SIGINT/SIGTERM (or --duration-s elapsing) shuts down
 * gracefully: in-flight connections drain, the final BDQ state is
 * written as a checksummed Checkpoint frame, and the exit code is 0.
 *
 * Examples:
 *   twig_serve --scenario scenarios/serve.json
 *   twig_serve --scenario scenarios/serve.json --port 7411 \
 *       --interval-ms 50 --final-checkpoint serve.ckpt
 *   twig_serve --scenario scenarios/serve.json --duration-s 10 --jobs 4
 */

#include <csignal>
#include <cstdio>
#include <ctime>
#include <string>

#include "common/error.hh"
#include "common/flags.hh"
#include "harness/scenario.hh"
#include "serve/daemon.hh"

using namespace twig;

namespace {

int
run(int argc, char **argv)
{
    std::string scenario;
    serve::DaemonOptions dopt;
    common::FlagParser parser;
    parser.addString("--scenario", &scenario,
                     "cluster scenario file (required)");
    parser.addString("--listen", &dopt.listen,
                     "bind address (default 127.0.0.1)");
    parser.addCount("--port", &dopt.port,
                    "TCP port; 0 binds an ephemeral one (default 0)");
    parser.addPositive("--interval-ms", &dopt.intervalMs,
                       "wall-clock control interval (default 50)");
    parser.addDouble("--duration-s", &dopt.durationS,
                     "stop after this much wall time; 0 runs until "
                     "SIGINT/SIGTERM (default 0)",
                     0.0);
    parser.addCount("--jobs", &dopt.jobs,
                    "node-stepping threads (default 1)", 1);
    parser.addCount("--window", &dopt.windowIntervals,
                    "summary window in intervals (default: the "
                    "scenario's)");
    parser.addString("--final-checkpoint", &dopt.finalCheckpoint,
                     "write node 0's BDQ as a checksummed Checkpoint "
                     "frame at shutdown");
    parser.parseOrExit(argc, argv, "--scenario FILE [options]");
    common::fatalIf(scenario.empty(), "need --scenario FILE (see --help)");

    // Block the shutdown signals before the daemon spawns threads so
    // every thread inherits the mask and delivery is ours to poll.
    sigset_t sigs;
    sigemptyset(&sigs);
    sigaddset(&sigs, SIGINT);
    sigaddset(&sigs, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

    serve::Daemon daemon(
        harness::ScenarioSpec::fromFile(scenario), dopt);
    daemon.start();
    std::printf("twig_serve: listening on %s:%u (%zu services, "
                "interval %.1f ms)\n",
                dopt.listen.c_str(), daemon.port(),
                daemon.numServices(), dopt.intervalMs);
    std::fflush(stdout);

    // Wait for a signal or a duration-triggered internal shutdown.
    const timespec tick{0, 100 * 1000 * 1000};
    while (!daemon.finished()) {
        const int sig = sigtimedwait(&sigs, nullptr, &tick);
        if (sig == SIGINT || sig == SIGTERM) {
            std::printf("twig_serve: caught %s, draining\n",
                        sig == SIGINT ? "SIGINT" : "SIGTERM");
            std::fflush(stdout);
            daemon.requestShutdown();
            break;
        }
    }

    const auto summary = daemon.join();
    std::printf("twig_serve: %zu intervals over %.2f s wall, %zu "
                "overran their pacing\n",
                summary.intervals, summary.wallSeconds, summary.overruns);
    std::printf("  accepted %llu requests (%.0f req/s) over %llu "
                "frames from %llu connections\n",
                static_cast<unsigned long long>(
                    summary.acceptedRequests),
                summary.acceptedRps,
                static_cast<unsigned long long>(
                    summary.listener.framesIn),
                static_cast<unsigned long long>(
                    summary.listener.accepted));
    const auto &m = summary.metrics;
    for (std::size_t s = 0; s < m.services.size(); ++s) {
        std::printf("  %-11s observed %8.0f rps  p99 %7.2f ms  "
                    "QoS %5.1f%%\n",
                    m.services[s].name.c_str(),
                    s < summary.observedRps.size()
                        ? summary.observedRps[s]
                        : 0.0,
                    m.services[s].meanP99Ms,
                    m.services[s].qosGuaranteePct);
    }
    std::printf("  fleet mean power %.1f W over the last %zu "
                "intervals\n",
                m.meanPowerW, m.windowSteps);
    if (summary.checkpointBytes != 0) {
        std::printf("  final checkpoint frame: %s (%zu bytes)\n",
                    dopt.finalCheckpoint.c_str(),
                    summary.checkpointBytes);
    }
    std::printf("twig_serve: clean shutdown\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Invalid input (a bad scenario or option value) is a usage error;
    // a PanicError is a library bug and stays fatal.
    try {
        return run(argc, argv);
    } catch (const common::FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
}
