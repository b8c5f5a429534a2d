/**
 * @file
 * Fault-resilience experiment (src/faults): QoS recovery time and
 * power overhead after a replica crash, for four fleet designs on the
 * same 4-node homogeneous cluster under a fixed Masstree load:
 *
 *   - twig-warm: donor-warm-started Twig-C nodes, p2c-latency
 *     routing; the crashed replica warm-restores from its last
 *     periodic in-memory BDQ checkpoint frame;
 *   - twig-cold: identical fleet (same seed, bit-identical up to the
 *     restart) but the replica comes back as a cold learner;
 *   - static: all-cores-max StaticManager nodes behind a static equal
 *     split — failover without any intelligence;
 *   - p2c-routing-only: StaticManager nodes behind the latency-aware
 *     router — routing intelligence but no RL managers.
 *
 * Every fleet runs one cluster ScenarioSpec whose fault schedule
 * crashes node 1 mid-run and restarts it later. Recovery is measured
 * on the crashed replica itself: the first post-restart step from
 * which its own Masstree p99 meets QoS (with completions actually
 * served) for a sustained window. Power overhead compares mean fleet
 * power just after the restart against the pre-crash baseline.
 *
 * Two further runs enforce the subsystem's safety properties and fail
 * the bench (non-zero exit) when violated:
 *   (a) warm recovery takes strictly fewer intervals than cold;
 *   (b) a corrupted checkpoint frame is detected on restore (checksum)
 *       and the replica falls back to a cold start instead of
 *       aborting or loading garbage weights;
 *   (c) the same fault scenario replayed at the same seed is
 *       bit-identical between --jobs 1 and --jobs 4 stepping — equal
 *       golden digests over the p99 and power traces, every node's
 *       interval stats and the full fault-event stream.
 *
 * Writes BENCH_faults.json (or --out PATH).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_spec.hh"
#include "harness/engine.hh"
#include "harness/managers.hh"
#include "harness/registry.hh"
#include "oracle/golden_hash.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

/** Fixed operating point as a fraction of the fleet's sustainable
 * Masstree rate: high enough that a replica loss matters, low enough
 * that three survivors can absorb it. */
constexpr double kLoadFraction = 0.55;

/** Donor training range (diurnal): must cover the outage operating
 * point — with one of four replicas down the survivors run at
 * 4/3 x 0.55 ~ 0.73 of their capacity, and an exploit-only policy
 * that never saw that load saturates instead of absorbing it. */
constexpr double kDonorLowFraction = 0.25;
constexpr double kDonorHighFraction = 0.78;

constexpr const char *kDonorPath = "fig_faults_twig_donor.ckpt";

/** Crash/restart timeline derived from the schedule length so the
 * compressed and --full runs share one shape. */
struct Timeline
{
    std::size_t steps = 0;
    std::size_t window = 0;
    std::size_t horizon = 0;
    std::size_t crashStep = 0;
    std::size_t restartStep = 0;
    std::size_t checkpointEvery = 0;

    static Timeline
    from(const harness::Schedule &schedule)
    {
        Timeline t;
        t.steps = schedule.steps;
        t.window = schedule.summaryWindow;
        t.horizon = schedule.horizon;
        t.crashStep = schedule.steps * 4 / 7;
        t.restartStep = t.crashStep + schedule.steps / 7;
        t.checkpointEvery = schedule.steps / 10;
        return t;
    }

    std::size_t restartAfter() const { return restartStep - crashStep; }
};

/** One fleet design of the comparison. */
struct FleetKind
{
    const char *label;
    const char *manager; ///< per-node manager ("twig" | "static")
    const char *policy;  ///< routing policy
    const char *recovery; ///< crashed replica's recovery mode
};

harness::ScenarioSpec
fleetScenario(const Timeline &tl, const FleetKind &kind,
              std::uint64_t seed)
{
    harness::ScenarioSpec spec;
    spec.name = "fig-faults";
    spec.topology = "cluster";
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    load.pattern = "fixed";
    load.fraction = kLoadFraction;
    spec.services.push_back(load);
    spec.manager = kind.manager;
    spec.steps = tl.steps;
    spec.window = tl.window;
    spec.horizon = tl.horizon;
    spec.seed = seed;
    spec.nodes = 4;
    spec.hetero = false;
    spec.policy = kind.policy;
    if (std::string(kind.manager) == "twig")
        spec.checkpoint = kDonorPath; // donor-converged, exploit-only

    faults::FaultAction crash;
    crash.kind = faults::FaultKind::NodeCrash;
    crash.atStep = tl.crashStep;
    crash.node = 1;
    crash.restartAfterSteps = tl.restartAfter();
    crash.recovery = kind.recovery;
    spec.faults.checkpointEverySteps = tl.checkpointEvery;
    spec.faults.actions.push_back(crash);
    return spec;
}

/** Train the donor Twig-C every twig fleet warm-starts from. */
void
trainDonor(const Timeline &tl, std::size_t donor_steps,
           std::uint64_t seed)
{
    harness::ScenarioSpec spec;
    spec.name = "fig-faults-donor";
    spec.topology = "cluster";
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    load.pattern = "diurnal";
    load.fraction = kDonorHighFraction;
    load.lowFraction = kDonorLowFraction;
    spec.services.push_back(load);
    spec.manager = "twig";
    spec.steps = donor_steps;
    spec.window = donor_steps;
    spec.horizon = donor_steps;
    spec.seed = seed ^ 0xd0;
    spec.nodes = 1;
    spec.policy = "static"; // single node: routing is irrelevant
    (void)tl;

    harness::EngineOptions opts;
    opts.saveCheckpoint = kDonorPath;
    harness::Engine(opts).run(spec);
    std::printf("donor: trained %zu steps -> %s\n", donor_steps,
                kDonorPath);
}

/** The crashed replica's Masstree telemetry for one interval (zero
 * while its slot is down). */
struct NodeSample
{
    std::size_t completed = 0;
    double p99Ms = 0.0;
};

/** A fleet run of @p spec on @p jobs stepping threads, with node
 * 1's Masstree completions and p99 recorded each interval and the
 * run's golden digest (oracle::hashFleetLifecycleRun: fleet p99 and
 * power, every node's interval stats, the fault-event stream). */
struct WatchedRun
{
    cluster::FleetRunResult result;
    std::vector<NodeSample> node1;
    std::uint64_t digest = 0;
};

WatchedRun
runWatched(const harness::ScenarioSpec &spec, std::size_t jobs)
{
    auto setup = harness::buildFleet(
        spec, harness::ManagerRegistry::builtin(), jobs);
    cluster::ClusterManager &fleet = *setup.fleet;
    oracle::FleetHasher hasher(fleet);
    WatchedRun run;
    run.result = fleet.run(
        spec.steps, spec.resolvedWindow(),
        [&](std::size_t, const cluster::FleetIntervalStats &fs) {
            hasher.add(fs);
            NodeSample sample;
            if (fs.nodeUp[1] != 0) {
                const auto &svc = fleet.node(1).lastStats().services[0];
                sample = {svc.completed, svc.p99Ms};
            }
            run.node1.push_back(sample);
        });
    run.digest = oracle::hashFleetLifecycleRun(hasher, run.result);
    return run;
}

/**
 * Recovery time of the crashed replica: intervals from the restart
 * until its own Masstree p99 meets QoS, with completions actually
 * served, for @p stable consecutive intervals (a starved or silent
 * replica is not "recovered"). Returns the post-restart run length
 * when it never stabilises — a lower bound, flagged by @p recovered.
 */
std::size_t
nodeRecoveryIntervals(const std::vector<NodeSample> &node,
                      std::size_t restart_step, double qos_ms,
                      std::size_t stable, bool &recovered)
{
    std::size_t streak = 0;
    for (std::size_t t = restart_step; t < node.size(); ++t) {
        const bool ok = node[t].completed > 0 && node[t].p99Ms <= qos_ms;
        streak = ok ? streak + 1 : 0;
        if (streak == stable) {
            recovered = true;
            return t + 1 - stable - restart_step;
        }
    }
    recovered = false;
    return node.size() - restart_step;
}

/** Mean fleet power over trace steps [begin, end). */
double
meanPower(const cluster::FleetRunResult &result, std::size_t begin,
          std::size_t end)
{
    double sum = 0.0;
    std::size_t n = 0;
    for (std::size_t t = begin; t < end && t < result.trace.size(); ++t) {
        sum += result.trace[t].totalPowerW;
        ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

/** Fault-event counts over a run. */
struct EventCounts
{
    std::size_t warmRestores = 0;
    std::size_t coldRestarts = 0;
    std::size_t corruptDetected = 0;
    std::size_t shedIntervals = 0;

    static EventCounts
    of(const cluster::FleetRunResult &result)
    {
        EventCounts c;
        for (const auto &fs : result.trace) {
            for (const auto &ev : fs.faultEvents) {
                switch (ev.kind) {
                case faults::FaultEventKind::WarmRestore:
                    ++c.warmRestores;
                    break;
                case faults::FaultEventKind::ColdRestart:
                    ++c.coldRestarts;
                    break;
                case faults::FaultEventKind::CorruptDetected:
                    ++c.corruptDetected;
                    break;
                case faults::FaultEventKind::LoadShed:
                    ++c.shedIntervals;
                    break;
                default:
                    break;
                }
            }
        }
        return c;
    }
};

struct FleetRow
{
    std::string fleet;
    std::string manager;
    std::string policy;
    std::string recovery;
    std::size_t recoveryIntervals = 0;
    bool recovered = false;
    double preCrashPowerW = 0.0;
    double postRestartPowerW = 0.0;
    double fleetP99Ms = 0.0;
    double qosPct = 0.0;
    EventCounts events;

    double
    powerOverheadPct() const
    {
        return preCrashPowerW > 0.0
            ? 100.0 * (postRestartPowerW - preCrashPowerW) /
                preCrashPowerW
            : 0.0;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    std::string out_path = "BENCH_faults.json";
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    bench::addJobsFlag(flags, &jobs);
    flags.addString("--out", &out_path,
                    "JSON report path (default BENCH_faults.json)");
    flags.parseOrExit(argc, argv);

    bench::banner("Fault resilience: QoS recovery + power overhead "
                  "after a replica crash");

    const auto donor_schedule = harness::Schedule::pick(full, 700, 140);
    const auto fleet_schedule = harness::Schedule::pick(full, 420, 120);
    const Timeline tl = Timeline::from(fleet_schedule);
    const std::size_t stable = 10;
    const std::size_t power_win = std::min<std::size_t>(
        50, tl.restartAfter());

    const auto profile = services::byName("masstree");
    const double qos_ms = profile.qosTargetMs;
    std::printf("masstree fixed load %.2f, QoS %.2f ms; crash node 1 "
                "at step %zu, restart at %zu, checkpoint every %zu\n",
                kLoadFraction, qos_ms, tl.crashStep, tl.restartStep,
                tl.checkpointEvery);

    trainDonor(tl, donor_schedule.steps, seed);

    // --- Crash + recovery across the four fleet designs --------------
    const std::vector<FleetKind> kinds = {
        {"twig-warm", "twig", "p2c-latency", "warm"},
        {"twig-cold", "twig", "p2c-latency", "cold"},
        {"static", "static", "static", "cold"},
        {"p2c-routing-only", "static", "p2c-latency", "cold"},
    };

    std::printf("\n%-18s %-8s | %9s %5s | %8s %8s %7s | %5s\n",
                "fleet", "recovery", "recover", "done", "pre W",
                "post W", "dPow%", "QoS%");
    std::vector<FleetRow> rows;
    for (const auto &kind : kinds) {
        const WatchedRun run =
            runWatched(fleetScenario(tl, kind, seed), jobs);
        const cluster::FleetRunResult &result = run.result;
        FleetRow row;
        row.fleet = kind.label;
        row.manager = kind.manager;
        row.policy = kind.policy;
        row.recovery = kind.recovery;
        row.recoveryIntervals = nodeRecoveryIntervals(
            run.node1, tl.restartStep, qos_ms, stable, row.recovered);
        row.preCrashPowerW =
            meanPower(result, tl.crashStep - power_win, tl.crashStep);
        row.postRestartPowerW = meanPower(
            result, tl.restartStep, tl.restartStep + power_win);
        row.fleetP99Ms = result.metrics.windowP99Ms[0];
        row.qosPct = result.metrics.avgQosGuaranteePct();
        row.events = EventCounts::of(result);
        rows.push_back(row);
        std::printf("%-18s %-8s | %9zu %5s | %8.1f %8.1f %6.1f%% | "
                    "%4.1f%%\n",
                    row.fleet.c_str(), row.recovery.c_str(),
                    row.recoveryIntervals, row.recovered ? "yes" : "no",
                    row.preCrashPowerW, row.postRestartPowerW,
                    row.powerOverheadPct(), row.qosPct);
    }

    // --- Corrupted checkpoint frame: detect + cold fallback ----------
    auto corrupt_spec = fleetScenario(tl, kinds[0], seed);
    faults::FaultAction corrupt;
    corrupt.kind = faults::FaultKind::CheckpointCorrupt;
    corrupt.atStep = tl.crashStep - 10;
    corrupt.node = 1;
    corrupt_spec.faults.actions.insert(
        corrupt_spec.faults.actions.begin(), corrupt);
    const EventCounts corrupt_events =
        EventCounts::of(runWatched(corrupt_spec, jobs).result);
    std::printf("\ncorrupt-frame run: %zu corrupt frame(s) detected, "
                "%zu cold restart(s), %zu warm restore(s); run "
                "completed without abort\n",
                corrupt_events.corruptDetected,
                corrupt_events.coldRestarts,
                corrupt_events.warmRestores);

    // --- Replay determinism: --jobs 1 vs --jobs 4 --------------------
    const bool replay_identical =
        runWatched(fleetScenario(tl, kinds[0], seed), 1).digest ==
        runWatched(fleetScenario(tl, kinds[0], seed), 4).digest;
    std::printf("replay: jobs=1 vs jobs=4 traces %s\n",
                replay_identical ? "bit-identical"
                                 : "DIFFER (determinism bug)");

    // --- Acceptance checks -------------------------------------------
    const bool warm_faster =
        rows[0].recoveryIntervals < rows[1].recoveryIntervals;
    const bool corrupt_handled = corrupt_events.corruptDetected >= 1 &&
        corrupt_events.coldRestarts >= 1;
    std::size_t failures = 0;
    if (!warm_faster) {
        std::fprintf(stderr,
                     "FAIL: warm recovery (%zu intervals) not strictly "
                     "faster than cold (%zu)\n",
                     rows[0].recoveryIntervals,
                     rows[1].recoveryIntervals);
        ++failures;
    }
    if (!corrupt_handled) {
        std::fprintf(stderr,
                     "FAIL: corrupted checkpoint frame not detected "
                     "with cold fallback (detected %zu, cold restarts "
                     "%zu)\n",
                     corrupt_events.corruptDetected,
                     corrupt_events.coldRestarts);
        ++failures;
    }
    if (!replay_identical) {
        std::fprintf(stderr, "FAIL: same-seed replay differs between "
                             "--jobs 1 and --jobs 4\n");
        ++failures;
    }

    std::printf("\npaper shape: the warm-restored replica re-enters "
                "service on its deployed\npolicy and re-meets QoS in "
                "strictly fewer intervals than a cold learner;\na "
                "damaged checkpoint frame is caught by its checksum "
                "and degrades to a cold\nstart instead of crashing "
                "the fleet.\n");

    // --- BENCH_faults.json -------------------------------------------
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"service\": \"masstree\",\n"
                 "  \"qos_target_ms\": %.3f,\n"
                 "  \"load_fraction\": %.2f,\n"
                 "  \"nodes\": 4,\n  \"crashed_node\": 1,\n"
                 "  \"steps\": %zu,\n  \"window\": %zu,\n"
                 "  \"crash_step\": %zu,\n  \"restart_step\": %zu,\n"
                 "  \"checkpoint_every\": %zu,\n"
                 "  \"stable_window\": %zu,\n  \"runs\": [\n",
                 qos_ms, kLoadFraction, tl.steps, tl.window,
                 tl.crashStep, tl.restartStep, tl.checkpointEvery,
                 stable);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FleetRow &r = rows[i];
        std::fprintf(
            f,
            "    {\"fleet\": \"%s\", \"manager\": \"%s\", "
            "\"policy\": \"%s\", \"recovery\": \"%s\", "
            "\"recovery_intervals\": %zu, \"recovered\": %s, "
            "\"pre_crash_power_w\": %.2f, "
            "\"post_restart_power_w\": %.2f, "
            "\"power_overhead_pct\": %.2f, "
            "\"fleet_p99_ms\": %.4f, \"qos_pct\": %.2f, "
            "\"warm_restores\": %zu, \"cold_restarts\": %zu, "
            "\"corrupt_detected\": %zu, \"shed_intervals\": %zu}%s\n",
            r.fleet.c_str(), r.manager.c_str(), r.policy.c_str(),
            r.recovery.c_str(), r.recoveryIntervals,
            r.recovered ? "true" : "false", r.preCrashPowerW,
            r.postRestartPowerW, r.powerOverheadPct(), r.fleetP99Ms,
            r.qosPct, r.events.warmRestores, r.events.coldRestarts,
            r.events.corruptDetected, r.events.shedIntervals,
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"corrupt_run\": {\"corrupt_detected\": %zu, "
                 "\"cold_restarts\": %zu, \"warm_restores\": %zu, "
                 "\"completed\": true},\n"
                 "  \"replay\": {\"jobs_a\": 1, \"jobs_b\": 4, "
                 "\"bit_identical\": %s},\n"
                 "  \"checks\": {\"warm_faster_than_cold\": %s, "
                 "\"corrupt_detected_cold_fallback\": %s, "
                 "\"replay_bit_identical\": %s}\n}\n",
                 corrupt_events.corruptDetected,
                 corrupt_events.coldRestarts,
                 corrupt_events.warmRestores,
                 replay_identical ? "true" : "false",
                 warm_faster ? "true" : "false",
                 corrupt_handled ? "true" : "false",
                 replay_identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return failures == 0 ? 0 : 1;
}
