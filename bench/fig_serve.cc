/**
 * @file
 * Served vs simulated: the same scenario through the batch engine and
 * through the live twig_serve front-end.
 *
 * Three phases over scenarios/serve.json:
 *
 *   simulated  harness::Engine runs the scenario's declarative loads
 *              (the deterministic batch path every other bench uses)
 *   served     an in-process serve::Daemon builds the identical fleet
 *              with LiveLoad sources, a serve::LoadClient drives half
 *              of fleet capacity over TCP loopback, and the online
 *              per-interval BDQ control produces the served-mode tail
 *   wire       a short saturation burst (default 8 connections at
 *              2M req/s offered) measuring what the framed protocol
 *              itself sustains on loopback, independent of the fleet
 *
 * Emits a table plus BENCH_serve.json (--out PATH) recording both
 * arms' p99/QoS/power and the wire-level throughput, so a regression
 * in either the serving edge or the control loop shows up as a diff.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/registry.hh"
#include "harness/scenario.hh"
#include "serve/daemon.hh"
#include "serve/load_client.hh"

using namespace twig;

namespace {

struct ServiceRow
{
    std::string name;
    double p99Ms = 0.0;
    double qosPct = 0.0;
};

struct ArmResult
{
    std::vector<ServiceRow> services;
    double meanPowerW = 0.0;
};

ArmResult
runSimulated(const harness::ScenarioSpec &spec, std::size_t jobs)
{
    harness::EngineOptions opts;
    opts.jobs = jobs;
    const harness::Engine engine(opts);
    const auto result = engine.run(spec);
    ArmResult arm;
    const auto &m = result.fleet.metrics;
    for (std::size_t s = 0; s < m.serviceNames.size(); ++s)
        arm.services.push_back({m.serviceNames[s], m.windowP99Ms[s],
                                m.qosGuaranteePct[s]});
    arm.meanPowerW = m.meanPowerW;
    return arm;
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    std::string out_path = "BENCH_serve.json";
    std::string scenario_path =
        std::string(TWIG_SOURCE_DIR) + "/scenarios/serve.json";
    std::string listen = "127.0.0.1";
    std::uint16_t port = 0;
    double served_s = 2.0;
    std::size_t connections = 8;
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    bench::addJobsFlag(flags, &jobs);
    flags.addString("--out", &out_path,
                    "JSON report path (default BENCH_serve.json)");
    flags.addString("--scenario", &scenario_path,
                    "cluster scenario to serve (default "
                    "scenarios/serve.json)");
    flags.addString("--listen", &listen,
                    "bind address (default 127.0.0.1)");
    flags.addCount("--port", &port,
                   "TCP port; 0 binds an ephemeral one (default 0)");
    flags.addPositive("--duration-s", &served_s,
                      "served-arm wall time, doubled by --full "
                      "(default 2)");
    flags.addCount("--connections", &connections,
                   "load-generator connections (default 8)", 1);
    flags.parseOrExit(argc, argv);

    auto spec = harness::ScenarioSpec::fromFile(scenario_path);
    spec.seed = seed;

    bench::banner("serve: simulated arm (" + spec.name + ")");
    const auto simulated = runSimulated(spec, jobs);
    for (const auto &row : simulated.services)
        std::printf("  %-11s p99 %7.2f ms  QoS %5.1f%%\n",
                    row.name.c_str(), row.p99Ms, row.qosPct);
    std::printf("  mean power %.1f W\n", simulated.meanPowerW);

    // --- served arm --------------------------------------------------
    bench::banner("serve: served arm (live loopback)");
    const double interval_ms = 10.0;
    const double duration_s = full ? 2.0 * served_s : served_s;
    serve::DaemonOptions dopt;
    dopt.listen = listen;
    dopt.port = port;
    dopt.intervalMs = interval_ms;
    dopt.jobs = jobs;
    // Summarise over the loaded span only (skip the ramp tail after
    // the client stops).
    dopt.windowIntervals = static_cast<std::size_t>(
        0.75 * duration_s / (interval_ms * 1e-3));

    ArmResult served;
    double served_client_rps = 0.0;
    double served_accepted_rps = 0.0;
    std::size_t served_intervals = 0;
    std::size_t served_overruns = 0;
    {
        serve::Daemon daemon(spec, dopt);
        daemon.start();
        double capacity = 0.0;
        for (double rps : daemon.maxRps())
            capacity += rps;

        serve::LoadClientOptions copt;
        copt.host = listen;
        copt.port = daemon.port();
        copt.connections = connections;
        copt.rps = 0.5 * capacity; // the sim arm's mean fraction
        copt.durationS = duration_s;
        const auto report = serve::runLoadClient(copt);
        daemon.requestShutdown();
        const auto summary = daemon.join();

        if (report.failedConnections != 0) {
            for (const auto &err : report.errors)
                std::fprintf(stderr, "fig_serve: %s\n", err.c_str());
            return 1;
        }
        served_client_rps = report.offeredRps;
        served_accepted_rps = summary.acceptedRps;
        served_intervals = summary.intervals;
        served_overruns = summary.overruns;
        for (const auto &svc : summary.metrics.services)
            served.services.push_back(
                {svc.name, svc.meanP99Ms, svc.qosGuaranteePct});
        served.meanPowerW = summary.metrics.meanPowerW;
        std::printf("  client offered %.0f req/s over %zu connections "
                    "(ack rtt p99 %.0f us)\n",
                    report.offeredRps, connections,
                    report.rttP99Us);
        for (const auto &row : served.services)
            std::printf("  %-11s p99 %7.2f ms  QoS %5.1f%%\n",
                        row.name.c_str(), row.p99Ms, row.qosPct);
        std::printf("  mean power %.1f W over %zu live intervals "
                    "(%zu overran their pacing)\n",
                    served.meanPowerW, served_intervals, served_overruns);
    }

    // --- wire throughput ---------------------------------------------
    bench::banner("serve: wire throughput (saturation burst)");
    double wire_offered_rps = 0.0;
    double wire_acked_rps = 0.0;
    double wire_rtt_p99_us = 0.0;
    {
        serve::DaemonOptions wopt;
        wopt.listen = listen;
        wopt.port = port;
        wopt.intervalMs = 50.0;
        serve::Daemon daemon(spec, wopt);
        daemon.start();

        serve::LoadClientOptions copt;
        copt.host = listen;
        copt.port = daemon.port();
        copt.connections = connections;
        copt.rps = 2000000.0;
        copt.durationS = full ? 3.0 : 1.5;
        const auto report = serve::runLoadClient(copt);
        daemon.requestShutdown();
        daemon.join();

        if (report.failedConnections != 0) {
            for (const auto &err : report.errors)
                std::fprintf(stderr, "fig_serve: %s\n", err.c_str());
            return 1;
        }
        wire_offered_rps = report.offeredRps;
        wire_acked_rps = report.ackedRps;
        wire_rtt_p99_us = report.rttP99Us;
        std::printf("  offered %.0f req/s, acked %.0f req/s "
                    "(%zu connections, ack rtt p99 %.0f us)\n",
                    wire_offered_rps, wire_acked_rps, connections,
                    wire_rtt_p99_us);
    }

    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"scenario\": \"%s\",\n", spec.name.c_str());
    auto write_arm = [f](const char *key, const ArmResult &arm,
                         const char *tail) {
        std::fprintf(f, "  \"%s\": {\n    \"services\": [\n", key);
        for (std::size_t s = 0; s < arm.services.size(); ++s) {
            const auto &row = arm.services[s];
            std::fprintf(f,
                         "      {\"name\": \"%s\", \"p99_ms\": %.4f, "
                         "\"qos_pct\": %.2f}%s\n",
                         row.name.c_str(), row.p99Ms, row.qosPct,
                         s + 1 < arm.services.size() ? "," : "");
        }
        std::fprintf(f,
                     "    ],\n    \"mean_power_w\": %.2f%s\n  },\n",
                     arm.meanPowerW, tail);
    };
    write_arm("simulated", simulated, "");
    char served_tail[192];
    std::snprintf(served_tail, sizeof(served_tail),
                  ",\n    \"client_offered_rps\": %.0f,\n"
                  "    \"accepted_rps\": %.0f,\n"
                  "    \"intervals\": %zu,\n"
                  "    \"overruns\": %zu",
                  served_client_rps, served_accepted_rps,
                  served_intervals, served_overruns);
    write_arm("served", served, served_tail);
    std::fprintf(f,
                 "  \"wire\": {\"offered_rps\": %.0f, "
                 "\"acked_rps\": %.0f, \"connections\": %zu, "
                 "\"rtt_p99_us\": %.0f}\n}\n",
                 wire_offered_rps, wire_acked_rps, connections,
                 wire_rtt_p99_us);
    std::fclose(f);
    std::printf("\nwrote %s\n", out_path.c_str());
    return 0;
}
