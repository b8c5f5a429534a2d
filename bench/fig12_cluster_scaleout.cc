/**
 * @file
 * Cluster scale-out experiment (src/cluster): fleet tail latency and
 * total power vs replica count under a diurnal load trace, for the
 * three routing policies. Every fleet (and each donor-training run)
 * is one cluster-topology ScenarioSpec executed by the scenario
 * engine.
 *
 * The fleet is deliberately heterogeneous — even nodes are full
 * 18-core sockets, odd nodes are cut-down 6-core parts — so the
 * routing policy matters: a static equal split overloads the small
 * nodes while the capacity/latency-aware policies keep every replica
 * inside its sustainable envelope. Every node runs its own Twig-C
 * manager warm-started from a donor checkpoint trained on the same
 * machine shape (one donor per shape; BDQ architecture depends on the
 * core count), in exploit-only mode.
 *
 * A second experiment measures the warm-start benefit directly: a
 * cold (learning-from-scratch) fleet vs a warm-started fleet, both
 * under the latency-aware router, compared on the step at which fleet
 * QoS first holds for a sustained window.
 *
 * Expected shape: p2c-latency meets QoS at every scale at equal or
 * lower power than the static split (which burns extra power on the
 * overloaded small nodes without saving the tail); warm-started
 * replicas reach QoS in fewer steps than cold ones.
 *
 * Writes BENCH_cluster.json (or --out PATH).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "cluster/cluster_manager.hh"
#include "harness/engine.hh"
#include "harness/managers.hh"
#include "harness/registry.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

/** Diurnal range as fractions of the fleet's sustainable rate. The
 * high point is chosen so a capacity-proportional split keeps every
 * node inside its envelope while the static equal split pushes the
 * 12-core nodes ~1.25x past their share. */
constexpr double kLowFraction = 0.20;
constexpr double kHighFraction = 0.50;

/** Donor training range: a little wider than the fleet's, so the
 * fleet's peak is interior to (not at the edge of) the load levels
 * the checkpointed policy practised on, without spending training
 * time beyond the pair's sustainable envelope. */
constexpr double kDonorLowFraction = 0.20;
constexpr double kDonorHighFraction = 0.62;

/** Donor checkpoint path for one core count; "{cores}" is the
 * engine's per-node-shape placeholder. */
constexpr const char *kDonorPattern = "fig12_twig_donor_{cores}c.ckpt";

std::string
donorPath(std::size_t cores)
{
    return "fig12_twig_donor_" + std::to_string(cores) + "c.ckpt";
}

/**
 * Fleet-wide offered load entry for one service: the diurnal
 * day/night curve replayed from the fig01 trace shape when the repo
 * data file is around, a synthetic sinusoid otherwise. The engine
 * scales the per-service peak by maxScale (the colocated max) times
 * the fleet's aggregate capacity relative to one full-size node.
 */
harness::ServiceLoadSpec
fleetLoadSpec(const std::string &service, double coloc_fraction,
              double low, double high, std::size_t period)
{
    harness::ServiceLoadSpec spec;
    spec.service = service;
    spec.maxScale = coloc_fraction;
    spec.fraction = high;
    spec.lowFraction = low;
    spec.periodSteps = period;
    spec.pattern = "diurnal";
#ifdef TWIG_SOURCE_DIR
    const std::string trace =
        std::string(TWIG_SOURCE_DIR) + "/fig01_memcached_pdf.csv";
    if (std::ifstream(trace).good()) {
        spec.pattern = "trace";
        spec.tracePath = trace;
        spec.traceColumn = "pmc_density";
    }
#endif
    return spec;
}

struct FleetSetup
{
    std::vector<sim::ServiceProfile> services;
    double colocFraction = 0.5;
    std::size_t steps = 0;
    std::size_t window = 0;
    std::size_t horizon = 0;
    std::size_t jobs = 1;
    std::uint64_t seed = 42;
};

/** Scenario for one fleet of the sweep. Twig fleets always use the
 * fast preset over the horizon (spec.paper stays false), as the
 * original experiment did at any --full setting. */
harness::ScenarioSpec
fleetScenario(const FleetSetup &setup, std::size_t nodes,
              const std::string &policy, bool twig, bool warm)
{
    harness::ScenarioSpec spec;
    spec.name = "fig12-cluster";
    spec.topology = "cluster";
    for (const auto &svc : setup.services)
        spec.services.push_back(
            fleetLoadSpec(svc.name, setup.colocFraction, kLowFraction,
                          kHighFraction, setup.steps));
    spec.manager = twig ? "twig" : "static";
    spec.steps = setup.steps;
    spec.window = setup.window;
    spec.horizon = setup.horizon;
    spec.seed = setup.seed;
    spec.nodes = nodes;
    spec.hetero = true; // even: 18-core, odd: 6-core
    spec.policy = policy;
    if (warm)
        spec.checkpoint = kDonorPattern; // also flips to exploit-only
    return spec;
}

/** Train one donor Twig-C per machine shape and checkpoint it. */
void
trainDonors(const FleetSetup &setup, std::size_t donor_steps)
{
    for (std::size_t shape = 0; shape < 2; ++shape) {
        const std::size_t cores = shape == 0 ? 18 : 6;
        harness::ScenarioSpec spec;
        spec.name = "fig12-donor";
        spec.topology = "cluster";
        spec.machineCores = cores;
        for (const auto &svc : setup.services)
            spec.services.push_back(fleetLoadSpec(
                svc.name, setup.colocFraction, kDonorLowFraction,
                kDonorHighFraction, donor_steps));
        spec.manager = "twig";
        spec.steps = donor_steps;
        spec.window = donor_steps;
        spec.horizon = donor_steps;
        spec.seed = setup.seed ^ (0xd0 + shape);
        spec.nodes = 1;
        spec.policy = "static"; // single node: routing is irrelevant

        harness::EngineOptions opts;
        opts.saveCheckpoint = donorPath(cores);
        harness::Engine(opts).run(spec);
        std::printf("donor (%zu cores): trained %zu steps -> %s\n",
                    cores, donor_steps, donorPath(cores).c_str());
    }
}

/** First step from which fleet QoS holds for @p stable consecutive
 * intervals (run length when it never does). */
std::size_t
convergenceStep(const cluster::FleetRunResult &result,
                const std::vector<double> &qos_targets, std::size_t stable)
{
    std::size_t streak = 0;
    for (std::size_t t = 0; t < result.trace.size(); ++t) {
        bool ok = true;
        for (std::size_t s = 0; s < qos_targets.size(); ++s)
            ok = ok &&
                result.trace[t].fleetP99Ms[s] <= qos_targets[s];
        streak = ok ? streak + 1 : 0;
        if (streak == stable)
            return t + 1 - stable;
    }
    return result.trace.size();
}

/** One fleet configuration of the sweep: routing policy + per-node
 * manager kind. */
struct FleetKind
{
    const char *label;
    const char *policy;
    bool twig; ///< warm-started Twig-C nodes; else StaticManager nodes
};

struct PolicyRow
{
    std::string policy;
    std::string manager;
    std::size_t nodes = 0;
    std::vector<double> p99Ms;
    double qosPct = 0.0;
    double powerW = 0.0;
    double energyJ = 0.0;
    std::size_t served = 0;
    std::size_t dropped = 0;

    /** Drops as a share of offered requests. An overloaded replica
     * sheds load, which flatters its raw wattage — power must be read
     * against the work actually served. */
    double
    dropPct() const
    {
        const auto offered = static_cast<double>(served + dropped);
        return offered > 0.0
            ? 100.0 * static_cast<double>(dropped) / offered
            : 0.0;
    }

    /** Energy per million served requests, J. */
    double
    energyPerMServed() const
    {
        return served > 0
            ? energyJ * 1e6 / static_cast<double>(served)
            : 0.0;
    }
};

/** Run @p spec's fleet on @p jobs threads, summing the powered
 * nodes' served and dropped requests over its trailing window into
 * @p row while each interval is current. */
cluster::FleetRunResult
runCountingServed(const harness::ScenarioSpec &spec, std::size_t jobs,
                  PolicyRow &row)
{
    auto fs = harness::buildFleet(
        spec, harness::ManagerRegistry::builtin(), jobs);
    cluster::ClusterManager &fleet = *fs.fleet;
    const std::size_t start = spec.steps - spec.resolvedWindow();
    return fleet.run(
        spec.steps, spec.resolvedWindow(),
        [&](std::size_t t, const cluster::FleetIntervalStats &f) {
            if (t < start)
                return;
            for (std::size_t n = 0; n < fleet.numNodes(); ++n) {
                if (f.nodeUp[n] == 0)
                    continue;
                for (const auto &svc : fleet.node(n).lastStats().services) {
                    row.served += svc.completed;
                    row.dropped += svc.dropped;
                }
            }
        });
}

// --- Two-level scale-out: domains + batched inference ----------------

/** One executed fleet of the scale-out experiment. */
struct FleetRun
{
    cluster::FleetRunResult result;
    cluster::FleetPhaseProfile profile;
    std::size_t batchedNodes = 0;
    double wallMs = 0.0;
};

/** Build the spec's fleet and run it to completion on @p jobs threads,
 * with cohort batching on or off. */
FleetRun
runScaleFleet(const harness::ScenarioSpec &spec,
              const harness::ManagerRegistry &registry, std::size_t jobs,
              bool batched)
{
    FleetRun run;
    auto fs = harness::buildFleet(spec, registry, jobs);
    fs.fleet->setBatchedInference(batched);
    fs.fleet->resetPhaseProfile();
    const auto t0 = std::chrono::steady_clock::now();
    run.result = fs.fleet->run(spec.steps, spec.resolvedWindow());
    const auto t1 = std::chrono::steady_clock::now();
    run.wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    run.profile = fs.fleet->phaseProfile();
    run.batchedNodes = fs.fleet->batchedNodeCount();
    return run;
}

/** Exact per-step equality of the fleet outcome metrics: every
 * service's fleet p99 and the fleet power, all steps, bitwise. */
bool
identicalTraces(const cluster::FleetRunResult &a,
                const cluster::FleetRunResult &b)
{
    if (a.trace.size() != b.trace.size())
        return false;
    for (std::size_t t = 0; t < a.trace.size(); ++t) {
        if (a.trace[t].fleetP99Ms != b.trace[t].fleetP99Ms)
            return false;
        if (a.trace[t].totalPowerW != b.trace[t].totalPowerW)
            return false;
        if (a.trace[t].shedRps != b.trace[t].shedRps)
            return false;
    }
    return true;
}

/** One row of the scale-out table. Cycle figures are per interval. */
struct ScaleRow
{
    std::size_t nodes = 0;
    std::size_t domains = 0;
    std::size_t steps = 0;
    std::size_t jobs = 0;
    std::size_t batchedNodes = 0;
    double wallMsPerStep = 0.0;
    double routeCyc = 0.0;
    double stepCyc = 0.0;
    double gatherCyc = 0.0;
    double forwardCyc = 0.0; ///< batched cohort GEMMs
    double scatterCyc = 0.0;
    double mergeCyc = 0.0;
    double pernodeForwardCyc = 0.0; ///< same fleet, per-node decides
    bool bitidenticalJobs = false;
    bool batchedMatchesPernode = false;

    double
    speedup() const
    {
        const double batched = forwardCyc + gatherCyc + scatterCyc;
        return batched > 0.0 ? pernodeForwardCyc / batched : 0.0;
    }
};

double
perStep(std::uint64_t cycles, std::uint64_t steps)
{
    return steps > 0
        ? static_cast<double>(cycles) / static_cast<double>(steps)
        : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    std::size_t domains = 0; ///< 0 = per-scale default
    std::string out_path = "BENCH_cluster.json";
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    bench::addJobsFlag(flags, &jobs);
    flags.addString("--out", &out_path,
                    "JSON report path (default BENCH_cluster.json)");
    flags.addCount("--domains", &domains,
                   "routing domains of every scale-out row (default: "
                   "2/4/8 by scale)",
                   1);
    flags.parseOrExit(argc, argv);

    bench::banner("Cluster scale-out: fleet p99 + power vs replicas, "
                  "per routing policy (heterogeneous fleet)");

    const auto donor_schedule = harness::Schedule::pick(full, 700, 140);
    const auto fleet_schedule = harness::Schedule::pick(full, 240, 120);

    FleetSetup setup;
    setup.services = {services::byName("masstree"),
                      services::byName("img-dnn")};
    setup.colocFraction = harness::colocatedMaxFraction(
        setup.services[0], setup.services[1], seed ^ 0xc01, jobs);
    setup.steps = fleet_schedule.steps;
    setup.window = fleet_schedule.summaryWindow;
    setup.horizon = fleet_schedule.horizon;
    setup.jobs = jobs;
    setup.seed = seed;

    std::vector<double> qos_targets;
    for (const auto &svc : setup.services)
        qos_targets.push_back(svc.qosTargetMs);

    std::printf("pair: %s + %s, colocated max fraction %.2f\n",
                setup.services[0].name.c_str(),
                setup.services[1].name.c_str(), setup.colocFraction);

    trainDonors(setup, donor_schedule.steps);

    harness::EngineOptions engine_opts;
    engine_opts.jobs = setup.jobs;
    const harness::Engine engine(engine_opts);

    // --- Scale-out sweep: fleet kinds x node counts ------------------
    // The static fleet (equal split onto all-cores-max nodes) is the
    // no-intelligence baseline; the Twig fleets differ only in router.
    const std::vector<std::size_t> node_counts = {1, 2, 4, 8};
    const std::vector<FleetKind> kinds = {
        {"static", "static", false},
        {"static+twig", "static", true},
        {"wrr+twig", "wrr", true},
        {"p2c+twig", "p2c-latency", true},
    };

    std::printf("\n%-12s %5s | %9s %9s | %6s %8s %6s %10s\n", "fleet",
                "nodes", "p99[0]ms", "p99[1]ms", "QoS%", "power W",
                "drop%", "J/Mserved");
    std::vector<PolicyRow> rows;
    for (const auto &kind : kinds) {
        for (const std::size_t nodes : node_counts) {
            PolicyRow row;
            const auto result = runCountingServed(
                fleetScenario(setup, nodes, kind.policy, kind.twig,
                              /*warm=*/kind.twig),
                setup.jobs, row);
            row.policy = kind.policy;
            row.manager = kind.twig ? "twig-warm" : "static";
            row.nodes = nodes;
            row.p99Ms = result.metrics.windowP99Ms;
            row.qosPct = result.metrics.avgQosGuaranteePct();
            row.powerW = result.metrics.meanPowerW;
            row.energyJ = result.metrics.energyJoules;
            rows.push_back(row);
            std::printf("%-12s %5zu | %9.2f %9.2f | %5.1f%% %8.1f "
                        "%5.1f%% %10.0f\n",
                        kind.label, nodes, row.p99Ms[0],
                        row.p99Ms[1], row.qosPct, row.powerW,
                        row.dropPct(), row.energyPerMServed());
        }
    }

    // --- Warm-start vs cold convergence (largest fleet, p2c) ---------
    const std::size_t conv_nodes = node_counts.back();
    const std::size_t stable = 10;
    const auto cold = engine.run(
        fleetScenario(setup, conv_nodes, "p2c-latency", /*twig=*/true,
                      /*warm=*/false));
    const std::size_t cold_step =
        convergenceStep(cold.fleet, qos_targets, stable);

    const auto warm = engine.run(
        fleetScenario(setup, conv_nodes, "p2c-latency", /*twig=*/true,
                      /*warm=*/true));
    const std::size_t warm_step =
        convergenceStep(warm.fleet, qos_targets, stable);

    std::printf("\nwarm-start (%zu nodes, p2c-latency, %zu-step stable "
                "window):\n  cold converges at step %zu, warm at step "
                "%zu\n",
                conv_nodes, stable, cold_step, warm_step);
    std::printf("\npaper shape: the latency-aware router with "
                "warm-started Twig nodes meets QoS\nat every scale at "
                "lower power than the static fleet; the same Twig "
                "nodes behind\na static equal split fail QoS on the "
                "overloaded small replicas; warm-started\nreplicas "
                "converge sooner than cold ones.\n");

    // --- Two-level scale-out: domains + batched inference ------------
    // Warm exploit-only Twig fleets behind the p2c-latency policy at
    // 8 / 64 / 512 replicas. Each scale runs three ways: batched
    // cohort inference on 8 threads (the production path, timed),
    // per-node decides (same fleet; the inference baseline) and the
    // batched path again on 1 thread (the --jobs bit-identity check).
    bench::banner("Two-level scale-out: routing domains + batched "
                  "cohort inference");

    struct ScalePoint
    {
        std::size_t nodes;
        std::size_t domains;
        std::size_t steps;
    };
    const std::vector<ScalePoint> scale_points = full
        ? std::vector<ScalePoint>{{8, 2, 96}, {64, 4, 48}, {512, 8, 24}}
        : std::vector<ScalePoint>{{8, 2, 48}, {64, 4, 24}, {512, 8, 12}};
    const std::size_t scale_jobs = jobs > 1 ? jobs : 8;
    const auto &registry = harness::ManagerRegistry::builtin();

    std::printf("\n%5s %7s %5s | %9s %9s %9s %9s %9s %9s | %9s %7s | "
                "%5s\n",
                "nodes", "domains", "steps", "route", "step", "gather",
                "forward", "scatter", "merge", "fwd/node", "speedup",
                "jobs=");
    std::vector<ScaleRow> scale_rows;
    for (const auto &point : scale_points) {
        const std::size_t row_domains = domains != 0
            ? std::min(domains, point.nodes)
            : point.domains;
        auto spec = fleetScenario(setup, point.nodes, "p2c-latency",
                                  /*twig=*/true, /*warm=*/true);
        spec.domains = row_domains;
        spec.steps = point.steps;
        spec.window = std::max<std::size_t>(point.steps / 4, 1);
        spec.horizon = point.steps;

        const FleetRun batched =
            runScaleFleet(spec, registry, scale_jobs, /*batched=*/true);
        const FleetRun pernode =
            runScaleFleet(spec, registry, scale_jobs, /*batched=*/false);
        const FleetRun serial =
            runScaleFleet(spec, registry, /*jobs=*/1, /*batched=*/true);

        ScaleRow row;
        row.nodes = point.nodes;
        row.domains = row_domains;
        row.steps = point.steps;
        row.jobs = scale_jobs;
        row.batchedNodes = batched.batchedNodes;
        row.wallMsPerStep =
            batched.wallMs / static_cast<double>(point.steps);
        const auto &prof = batched.profile;
        row.routeCyc = perStep(prof.routeCycles, prof.steps);
        row.stepCyc = perStep(prof.stepCycles, prof.steps);
        row.gatherCyc = perStep(prof.gatherCycles, prof.steps);
        row.forwardCyc = perStep(prof.forwardCycles, prof.steps);
        row.scatterCyc = perStep(prof.scatterCycles, prof.steps);
        row.mergeCyc = perStep(prof.mergeCycles, prof.steps);
        row.pernodeForwardCyc =
            perStep(pernode.profile.forwardCycles, pernode.profile.steps);
        row.bitidenticalJobs =
            identicalTraces(batched.result, serial.result);
        row.batchedMatchesPernode =
            identicalTraces(batched.result, pernode.result);

        scale_rows.push_back(row);
        std::printf("%5zu %7zu %5zu | %9.0f %9.0f %9.0f %9.0f %9.0f "
                    "%9.0f | %9.0f %6.2fx | %5s\n",
                    row.nodes, row.domains, row.steps, row.routeCyc,
                    row.stepCyc, row.gatherCyc, row.forwardCyc,
                    row.scatterCyc, row.mergeCyc, row.pernodeForwardCyc,
                    row.speedup(),
                    row.bitidenticalJobs ? "ok" : "FAIL");
    }
    std::printf("\ncycles are per interval (rdtsc); 'forward' is the "
                "batched cohort GEMMs,\n'fwd/node' the same fleet "
                "deciding per node; %zu of %zu replicas decide\n"
                "through cohorts at the largest scale.\n",
                scale_rows.back().batchedNodes,
                scale_rows.back().nodes);

    // --- BENCH_cluster.json ------------------------------------------
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f, "{\n  \"services\": [");
    for (std::size_t s = 0; s < setup.services.size(); ++s)
        std::fprintf(f, "\"%s\"%s", setup.services[s].name.c_str(),
                     s + 1 < setup.services.size() ? ", " : "");
    std::fprintf(f, "],\n  \"qos_targets_ms\": [");
    for (std::size_t s = 0; s < qos_targets.size(); ++s)
        std::fprintf(f, "%.3f%s", qos_targets[s],
                     s + 1 < qos_targets.size() ? ", " : "");
    std::fprintf(f,
                 "],\n  \"coloc_fraction\": %.3f,\n"
                 "  \"steps\": %zu,\n  \"window\": %zu,\n"
                 "  \"runs\": [\n",
                 setup.colocFraction, setup.steps, setup.window);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const PolicyRow &r = rows[i];
        std::fprintf(f,
                     "    {\"policy\": \"%s\", \"manager\": \"%s\", "
                     "\"nodes\": %zu, "
                     "\"fleet_p99_ms\": [%.4f, %.4f], "
                     "\"qos_pct\": %.2f, \"mean_power_w\": %.2f, "
                     "\"energy_j\": %.1f, \"served\": %zu, "
                     "\"dropped\": %zu, \"drop_pct\": %.2f, "
                     "\"energy_per_mserved_j\": %.1f}%s\n",
                     r.policy.c_str(), r.manager.c_str(), r.nodes,
                     r.p99Ms[0], r.p99Ms[1],
                     r.qosPct, r.powerW, r.energyJ, r.served, r.dropped,
                     r.dropPct(), r.energyPerMServed(),
                     i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"warm_start\": {\"nodes\": %zu, "
                 "\"policy\": \"p2c-latency\", \"stable_window\": %zu, "
                 "\"cold_convergence_step\": %zu, "
                 "\"warm_convergence_step\": %zu},\n",
                 conv_nodes, stable, cold_step, warm_step);
    std::fprintf(f, "  \"scale_out\": [\n");
    for (std::size_t i = 0; i < scale_rows.size(); ++i) {
        const ScaleRow &r = scale_rows[i];
        std::fprintf(f,
                     "    {\"nodes\": %zu, \"domains\": %zu, "
                     "\"steps\": %zu, \"jobs\": %zu, "
                     "\"batched_nodes\": %zu, "
                     "\"wall_ms_per_step\": %.3f, "
                     "\"route_cycles\": %.0f, \"step_cycles\": %.0f, "
                     "\"gather_cycles\": %.0f, "
                     "\"forward_cycles_batched\": %.0f, "
                     "\"scatter_cycles\": %.0f, \"merge_cycles\": %.0f, "
                     "\"forward_cycles_pernode\": %.0f, "
                     "\"forward_speedup\": %.3f, "
                     "\"bitidentical_jobs\": %s, "
                     "\"batched_matches_pernode\": %s",
                     r.nodes, r.domains, r.steps, r.jobs,
                     r.batchedNodes, r.wallMsPerStep, r.routeCyc,
                     r.stepCyc, r.gatherCyc, r.forwardCyc, r.scatterCyc,
                     r.mergeCyc, r.pernodeForwardCyc, r.speedup(),
                     r.bitidenticalJobs ? "true" : "false",
                     r.batchedMatchesPernode ? "true" : "false");
        std::fprintf(f, "}%s\n",
                     i + 1 < scale_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
