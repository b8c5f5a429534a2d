/**
 * @file
 * twig_loadgen — multi-connection load generator for twig_serve.
 *
 * Opens N TCP connections to a running daemon and drives an open-loop
 * arrival process over them (serve::runLoadClient): each connection
 * thread batches its share of --rps into Batch frames every
 * --batch-ms, never waiting for acks, and measures ack round-trip
 * latency into client-side histograms. Prints offered/acked
 * throughput, RTT p50/p99 and the daemon's own view from its Stats
 * frames.
 *
 * Examples:
 *   twig_loadgen --port 7411 --rps 1000000 --connections 8 \
 *       --duration-s 5
 *   twig_loadgen --host 10.0.0.2 --port 7411 --rps 50000
 */

#include <cstdio>
#include <string>

#include "common/flags.hh"
#include "serve/load_client.hh"

using namespace twig;

int
main(int argc, char **argv)
{
    serve::LoadClientOptions opt;
    common::FlagParser parser;
    parser.addString("--host", &opt.host,
                     "daemon address (default 127.0.0.1)");
    parser.addCount("--port", &opt.port, "daemon TCP port (required)", 1);
    parser.addCount("--connections", &opt.connections,
                    "concurrent connections (default 8)", 1);
    parser.addPositive("--rps", &opt.rps,
                       "total offered request rate (default 100000)");
    parser.addPositive("--duration-s", &opt.durationS,
                       "run length (default 1)");
    parser.addPositive("--batch-ms", &opt.batchMs,
                       "open-loop batch tick (default 1)");
    parser.parseOrExit(argc, argv, "--port PORT [options]");
    if (opt.port == 0) {
        std::fprintf(stderr, "%s: need --port (see --help)\n", argv[0]);
        return 2;
    }

    const auto report = serve::runLoadClient(opt);
    for (const auto &err : report.errors)
        std::fprintf(stderr, "%s: %s\n", argv[0], err.c_str());

    std::printf("twig_loadgen: %zu connections to %s:%u for %.2f s\n",
                opt.connections, opt.host.c_str(), unsigned{opt.port},
                report.wallSeconds);
    std::printf("  offered %llu requests (%.0f req/s) in %llu batch "
                "frames\n",
                static_cast<unsigned long long>(report.sent),
                report.offeredRps,
                static_cast<unsigned long long>(report.batchFrames));
    std::printf("  acked   %llu requests (%.0f req/s) in %llu ack "
                "frames\n",
                static_cast<unsigned long long>(report.acked),
                report.ackedRps,
                static_cast<unsigned long long>(report.ackFrames));
    std::printf("  ack rtt p50 %.0f us, p99 %.0f us\n", report.rttP50Us,
                report.rttP99Us);
    if (report.haveServerStats) {
        const auto &s = report.serverStats;
        std::printf("  server @ step %llu: power %.1f W\n",
                    static_cast<unsigned long long>(s.step), s.powerW);
        for (std::size_t i = 0; i < s.p99Ms.size(); ++i) {
            std::printf("    service %zu: offered %8.0f rps  "
                        "p99 %7.2f ms\n",
                        i, s.offeredRps[i], s.p99Ms[i]);
        }
    }
    return report.failedConnections == 0 ? 0 : 1;
}
