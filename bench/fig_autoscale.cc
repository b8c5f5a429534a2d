/**
 * @file
 * Elastic fleet-sizing experiment (src/autoscale): cost-normalized
 * power and QoS of an autoscaled Twig fleet against static
 * provisioning, under the same absolute offered load:
 *
 *   - autoscale-diurnal: 2..6 elastic fleet of donor-warm-started
 *     Twig-C nodes under a diurnal Masstree load; the autoscaler
 *     drains replicas through the valley and warm-spawns them back
 *     (checkpoint-restore path) on the climb;
 *   - static-max: 6 nodes pinned up around the clock — the
 *     provisioning the autoscaler's rated capacity is defined
 *     against;
 *   - static-min: 2 nodes facing the identical absolute load — cheap,
 *     but saturated at the peak (the QoS-failure reference);
 *   - flashcrowd: the elastic fleet against a sudden load surge
 *     (faults load_surge composed with the autoscaler), checking the
 *     scale-out reflex actually fires;
 *   - mixed-gen: a static heterogeneous fleet from the node-class
 *     catalogue (gen2/gen1/std18), exercising per-class $/node-hour
 *     billing and capability-aware routing.
 *
 * Every replica slot bills $1/node-hour (per-class rates for
 * mixed-gen); standby slots are neither stepped nor billed. The
 * cost-normalized power of a row scales its mean fleet power by its
 * bill relative to static-max, so "cheaper and no hotter" shows up as
 * a strictly smaller number.
 *
 * Acceptance checks (non-zero exit when violated):
 *   (a) the autoscaled diurnal fleet meets QoS within a few points of
 *       static-max while spending strictly fewer dollars;
 *   (b) its cost-normalized power is strictly below static-max;
 *   (c) the flash crowd triggers at least one scale-out;
 *   (d) the mixed-generation fleet produces a non-zero bill;
 *   (e) every row is bit-identical between --jobs 1 and --jobs 8
 *       stepping — equal golden digests over the p99/power traces,
 *       every node's interval stats, the scale-event stream, serving
 *       and draining node counts, and the running bill.
 *
 * Writes BENCH_autoscale.json (or --out PATH).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "faults/fault_spec.hh"
#include "harness/engine.hh"
#include "harness/managers.hh"
#include "harness/registry.hh"
#include "oracle/golden_hash.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

/** Diurnal operating point as a fraction of the FULL (6-slot) fleet's
 * sustainable Masstree rate. The peak wants ~5-6 replicas at the
 * autoscaler's 0.60 high-water mark; the valley is happy on 2-3. */
constexpr double kPeakFraction = 0.55;
constexpr double kLowFraction = 0.20;

/** Flash-crowd baseline and surge: 0.12 x 8 = 0.96 of the full fleet
 * at the spike — serveable, but only fully scaled out. */
constexpr double kCrowdFraction = 0.12;
constexpr double kSurgeMultiplier = 8.0;

constexpr std::size_t kMaxNodes = 6;
constexpr std::size_t kMinNodes = 2;
constexpr std::size_t kInitialNodes = 3;

/** Donor training range (diurnal): covers every per-node operating
 * point the elastic fleet visits between min and max provisioning. */
constexpr double kDonorLowFraction = 0.25;
constexpr double kDonorHighFraction = 0.78;

constexpr const char *kDonorPath = "fig_autoscale_donor.ckpt";

autoscale::AutoscaleConfig
diurnalAutoscale()
{
    autoscale::AutoscaleConfig cfg;
    cfg.minNodes = kMinNodes;
    cfg.maxNodes = kMaxNodes;
    cfg.hiUtilization = 0.60;
    cfg.loUtilization = 0.40;
    cfg.outTardiness = 1.2;
    cfg.persistIntervals = 2;
    cfg.cooldownIntervals = 5;
    cfg.drainIntervals = 2;
    return cfg;
}

autoscale::AutoscaleConfig
flashcrowdAutoscale()
{
    auto cfg = diurnalAutoscale();
    cfg.persistIntervals = 1;
    cfg.cooldownIntervals = 3;
    cfg.outStepNodes = 2;
    return cfg;
}

/** One fleet design of the comparison. */
struct FleetKind
{
    const char *label;
    std::size_t nodes; ///< static size, or initial size with autoscale
    bool autoscaled;
    bool flashcrowd; ///< fixed load + surge instead of diurnal
    /** Scales the offered load so every homogeneous row sees the same
     * absolute RPS regardless of its provisioned slot count. */
    double maxScale;
    std::vector<std::string> fleetClasses;
};

harness::ScenarioSpec
fleetScenario(const FleetKind &kind, const harness::Schedule &schedule,
              std::uint64_t seed)
{
    harness::ScenarioSpec spec;
    spec.name = std::string("fig-autoscale-") + kind.label;
    spec.topology = "cluster";
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    if (kind.flashcrowd) {
        load.pattern = "fixed";
        load.fraction = kCrowdFraction;
    } else {
        load.pattern = "diurnal";
        load.fraction = kPeakFraction;
        load.lowFraction = kLowFraction;
        load.periodSteps = schedule.steps / 2;
    }
    load.maxScale = kind.maxScale;
    spec.services.push_back(load);
    spec.manager = "twig";
    spec.steps = schedule.steps;
    spec.window = schedule.summaryWindow;
    spec.horizon = schedule.horizon;
    spec.seed = seed;
    spec.nodes = kind.nodes;
    spec.policy = "p2c-latency";
    spec.checkpoint = kDonorPath; // donor-converged, exploit-only
    spec.fleetClasses = kind.fleetClasses;
    if (kind.autoscaled) {
        spec.autoscale = kind.flashcrowd ? flashcrowdAutoscale()
                                         : diurnalAutoscale();
    }
    if (kind.flashcrowd) {
        faults::FaultAction surge;
        surge.kind = faults::FaultKind::LoadSurge;
        surge.atStep = schedule.steps / 4;
        surge.service = 0;
        surge.durationSteps = schedule.steps / 6;
        surge.multiplier = kSurgeMultiplier;
        spec.faults.actions.push_back(surge);
    }
    return spec;
}

/** Train the donor Twig-C every fleet warm-starts (and the elastic
 * rows warm-spawn) from. */
void
trainDonor(std::size_t donor_steps, std::uint64_t seed)
{
    harness::ScenarioSpec spec;
    spec.name = "fig-autoscale-donor";
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

    harness::EngineOptions opts;
    opts.saveCheckpoint = kDonorPath;
    harness::Engine(opts).run(spec);
    std::printf("donor: trained %zu steps -> %s\n", donor_steps,
                kDonorPath);
}

/** One fleet run of @p spec on @p jobs stepping threads, and its
 * golden digest (oracle::hashFleetLifecycleRun): per step the fleet
 * p99, power, shed load and every node's interval stats, then the
 * fault and scale events, serving/draining node counts and the
 * running bill. Two runs are bit-identical when their digests are. */
struct DigestedRun
{
    cluster::FleetRunResult result;
    std::uint64_t digest = 0;
};

DigestedRun
runDigested(const harness::ScenarioSpec &spec, std::size_t jobs)
{
    auto setup = harness::buildFleet(
        spec, harness::ManagerRegistry::builtin(), jobs);
    oracle::FleetHasher hasher(*setup.fleet);
    DigestedRun run;
    run.result = setup.fleet->run(spec.steps, spec.resolvedWindow(),
                                  hasher.onStep());
    run.digest = oracle::hashFleetLifecycleRun(hasher, run.result);
    return run;
}

struct FleetRow
{
    std::string fleet;
    bool autoscaled = false;
    double fleetP99Ms = 0.0;
    double qosPct = 0.0;
    double meanPowerW = 0.0;
    double energyJ = 0.0;
    double dollars = 0.0;
    double meanServing = 0.0;
    std::size_t scaleOuts = 0;
    std::size_t drains = 0;
    std::size_t retires = 0;
    bool replayIdentical = false;

    /** Mean power scaled by the bill relative to @p ref_dollars
     * (static-max): lower means cheaper per watt delivered. */
    double
    costNormalizedPowerW(double ref_dollars) const
    {
        return ref_dollars > 0.0 ? meanPowerW * (dollars / ref_dollars)
                                 : meanPowerW;
    }
};

FleetRow
summarize(const FleetKind &kind, const cluster::FleetRunResult &result)
{
    FleetRow row;
    row.fleet = kind.label;
    row.autoscaled = kind.autoscaled;
    row.fleetP99Ms = result.metrics.windowP99Ms[0];
    row.qosPct = result.metrics.avgQosGuaranteePct();
    row.meanPowerW = result.metrics.meanPowerW;
    row.energyJ = result.metrics.energyJoules;
    row.dollars = result.metrics.costDollars;
    double serving = 0.0;
    for (const auto &fs : result.trace) {
        serving += static_cast<double>(fs.servingNodes);
        for (const auto &ev : fs.scaleEvents) {
            switch (ev.kind) {
            case cluster::ScaleEvent::Kind::ScaleOut:
                ++row.scaleOuts;
                break;
            case cluster::ScaleEvent::Kind::DrainStart:
                ++row.drains;
                break;
            case cluster::ScaleEvent::Kind::Retire:
                ++row.retires;
                break;
            }
        }
    }
    if (!result.trace.empty())
        row.meanServing =
            serving / static_cast<double>(result.trace.size());
    return row;
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    std::string out_path = "BENCH_autoscale.json";
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    flags.addString("--out", &out_path,
                    "JSON report path (default BENCH_autoscale.json)");
    flags.parseOrExit(argc, argv);

    bench::banner("Autoscaling: elastic fleet sizing vs static "
                  "provisioning (cost-normalized)");

    const auto donor_schedule = harness::Schedule::pick(full, 600, 120);
    const auto fleet_schedule = harness::Schedule::pick(full, 360, 120);
    const auto profile = services::byName("masstree");
    std::printf("masstree diurnal %.2f..%.2f of the %zu-slot fleet "
                "(QoS %.2f ms); elastic bounds %zu..%zu, initial %zu\n",
                kLowFraction, kPeakFraction, kMaxNodes,
                profile.qosTargetMs, kMinNodes, kMaxNodes,
                kInitialNodes);

    trainDonor(donor_schedule.steps, seed);

    // Homogeneous comparison rows all face the same absolute load:
    // maxScale undoes the capacity scaling of their provisioned slot
    // count relative to the full 6-slot fleet.
    const double min_scale = static_cast<double>(kMaxNodes) /
        static_cast<double>(kMinNodes);
    const std::vector<FleetKind> kinds = {
        {"autoscale-diurnal", kInitialNodes, true, false, 1.0, {}},
        {"static-max", kMaxNodes, false, false, 1.0, {"std18"}},
        {"static-min", kMinNodes, false, false, min_scale, {"std18"}},
        {"flashcrowd", kMinNodes, true, true, 1.0, {}},
        {"mixed-gen", 4, false, false, 1.0,
         {"gen2", "gen1", "std18", "gen1"}},
    };

    std::printf("\n%-18s | %8s %5s | %7s %8s | %7s %7s | %s\n",
                "fleet", "p99 ms", "QoS%", "mean W", "norm W",
                "bill $", "serving", "scale out/drain/retire");
    std::vector<FleetRow> rows;
    for (const auto &kind : kinds) {
        // Every row runs twice — serial and 8-way stepping — and must
        // be bit-identical; the serial run provides the metrics.
        const auto spec = fleetScenario(kind, fleet_schedule, seed);
        const DigestedRun serial = runDigested(spec, 1);
        const DigestedRun parallel = runDigested(spec, 8);
        FleetRow row = summarize(kind, serial.result);
        row.replayIdentical = serial.digest == parallel.digest;
        rows.push_back(row);
    }
    const double ref_dollars = rows[1].dollars; // static-max
    for (const auto &row : rows) {
        std::printf("%-18s | %8.2f %5.1f | %7.1f %8.1f | %7.3f %7.2f "
                    "| %zu/%zu/%zu%s\n",
                    row.fleet.c_str(), row.fleetP99Ms, row.qosPct,
                    row.meanPowerW,
                    row.costNormalizedPowerW(ref_dollars), row.dollars,
                    row.meanServing, row.scaleOuts, row.drains,
                    row.retires,
                    row.replayIdentical ? "" : "  JOBS-REPLAY DIFFERS");
    }

    // --- Acceptance checks -------------------------------------------
    const FleetRow &elastic = rows[0];
    const FleetRow &static_max = rows[1];
    const FleetRow &crowd = rows[3];
    const FleetRow &mixed = rows[4];

    const bool qos_held = elastic.qosPct >= static_max.qosPct - 5.0;
    const bool cheaper = elastic.dollars < static_max.dollars;
    const bool cooler = elastic.costNormalizedPowerW(ref_dollars) <
        static_max.costNormalizedPowerW(ref_dollars);
    const bool crowd_reacted = crowd.scaleOuts >= 1;
    const bool mixed_billed = mixed.dollars > 0.0;
    bool all_identical = true;
    for (const auto &row : rows)
        all_identical = all_identical && row.replayIdentical;

    std::size_t failures = 0;
    if (!qos_held) {
        std::fprintf(stderr,
                     "FAIL: elastic QoS %.1f%% more than 5 points "
                     "below static-max %.1f%%\n",
                     elastic.qosPct, static_max.qosPct);
        ++failures;
    }
    if (!cheaper) {
        std::fprintf(stderr,
                     "FAIL: elastic bill $%.2f not below static-max "
                     "$%.2f\n",
                     elastic.dollars, static_max.dollars);
        ++failures;
    }
    if (!cooler) {
        std::fprintf(stderr,
                     "FAIL: elastic cost-normalized power %.1f W not "
                     "below static-max %.1f W\n",
                     elastic.costNormalizedPowerW(ref_dollars),
                     static_max.costNormalizedPowerW(ref_dollars));
        ++failures;
    }
    if (!crowd_reacted) {
        std::fprintf(stderr, "FAIL: flash crowd triggered no "
                             "scale-out\n");
        ++failures;
    }
    if (!mixed_billed) {
        std::fprintf(stderr, "FAIL: mixed-generation fleet billed "
                             "$0\n");
        ++failures;
    }
    if (!all_identical) {
        std::fprintf(stderr, "FAIL: a row differs between --jobs 1 "
                             "and --jobs 8 stepping\n");
        ++failures;
    }

    std::printf("\npaper shape: the elastic fleet rides the diurnal "
                "valley on %0.1f serving\nreplicas on average instead "
                "of %zu, spending fewer dollars and less\n"
                "cost-normalized power for QoS within noise of "
                "static-max; the flash crowd\nis absorbed by "
                "warm-spawned replicas, not by permanent "
                "overprovisioning.\n",
                elastic.meanServing, kMaxNodes);

    // --- BENCH_autoscale.json ----------------------------------------
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"service\": \"masstree\",\n"
                 "  \"qos_target_ms\": %.3f,\n"
                 "  \"peak_fraction\": %.2f,\n"
                 "  \"low_fraction\": %.2f,\n"
                 "  \"min_nodes\": %zu,\n  \"max_nodes\": %zu,\n"
                 "  \"initial_nodes\": %zu,\n"
                 "  \"steps\": %zu,\n  \"window\": %zu,\n"
                 "  \"surge_multiplier\": %.1f,\n  \"runs\": [\n",
                 profile.qosTargetMs, kPeakFraction, kLowFraction,
                 kMinNodes, kMaxNodes, kInitialNodes,
                 fleet_schedule.steps, fleet_schedule.summaryWindow,
                 kSurgeMultiplier);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const FleetRow &r = rows[i];
        std::fprintf(
            f,
            "    {\"fleet\": \"%s\", \"autoscaled\": %s, "
            "\"fleet_p99_ms\": %.4f, \"qos_pct\": %.2f, "
            "\"mean_power_w\": %.2f, \"energy_j\": %.1f, "
            "\"cost_normalized_power_w\": %.2f, "
            "\"dollars\": %.4f, \"mean_serving_nodes\": %.2f, "
            "\"scale_outs\": %zu, \"drains\": %zu, \"retires\": %zu, "
            "\"replay_bit_identical\": %s}%s\n",
            r.fleet.c_str(), r.autoscaled ? "true" : "false",
            r.fleetP99Ms, r.qosPct, r.meanPowerW, r.energyJ,
            r.costNormalizedPowerW(ref_dollars), r.dollars,
            r.meanServing, r.scaleOuts, r.drains, r.retires,
            r.replayIdentical ? "true" : "false",
            i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"checks\": {\"qos_within_5pts_of_static\": "
                 "%s, \"cheaper_than_static_max\": %s, "
                 "\"cost_normalized_power_below_static_max\": %s, "
                 "\"flashcrowd_scaled_out\": %s, "
                 "\"mixed_gen_billed\": %s, "
                 "\"replay_bit_identical\": %s}\n}\n",
                 qos_held ? "true" : "false",
                 cheaper ? "true" : "false", cooler ? "true" : "false",
                 crowd_reacted ? "true" : "false",
                 mixed_billed ? "true" : "false",
                 all_identical ? "true" : "false");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
    return failures == 0 ? 0 : 1;
}
