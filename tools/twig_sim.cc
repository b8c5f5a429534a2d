/**
 * @file
 * twig_sim — runs the Twig simulator from the command line, on one
 * node or on an N-replica fleet (src/cluster/).
 *
 * Runs any catalogue service mix under any registered task manager and
 * load pattern and reports the QoS/energy outcome (on a fleet, tail
 * latency from the merged per-node histograms), optionally dumping a
 * per-step CSV trace for plotting. The run is described by a
 * harness::ScenarioSpec — built from the flags (--nodes N makes it a
 * fleet), or loaded from a scenario file (--scenario) with one file
 * per paper figure shipped in scenarios/ — and executed by the
 * harness::Engine, so a CLI invocation, a scenario file and a bench
 * cell are the same run.
 *
 * Examples:
 *   twig_sim --service masstree --load 0.5
 *   twig_sim --service masstree --service moses --manager parties
 *   twig_sim --service img-dnn --pattern diurnal --manager heracles
 *   twig_sim --service xapian --steps 4000 --trace run.csv
 *   twig_sim --service masstree --service img-dnn --nodes 8 \
 *       --pattern diurnal --steps 400 --policy p2c-latency --hetero \
 *       --jobs 8
 *   twig_sim --service masstree --nodes 1 --pattern diurnal \
 *       --steps 700 --save-checkpoint donor.ckpt
 *   twig_sim --service masstree --nodes 4 --pattern diurnal \
 *       --steps 400 --checkpoint donor.ckpt
 *   twig_sim --scenario scenarios/fig05.json
 *   twig_sim --scenario scenarios/fig12_cluster.json --steps 60 --jobs 8
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/flags.hh"
#include "faults/fault_spec.hh"
#include "harness/engine.hh"
#include "harness/scenario.hh"

using namespace twig;

namespace {

struct Options
{
    std::string scenario;
    std::vector<std::string> services;
    std::string manager = "twig";
    double load = 0.5;
    std::string pattern = "fixed";
    std::size_t steps = 2000;
    std::size_t window = 0;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    std::string trace;
    std::string faults;
    std::string faultTrace;
    bool paper = false;
    bool simProfile = false;
    /** Flag phases above this share of simulator cycles (percent);
     * 100 disables the check. Requires --sim-profile. */
    double profileMaxShare = 100.0;
    // Fleet flags: each overrides the spec only when given.
    std::size_t nodes = 0;
    std::size_t domains = 1;
    std::string policy;
    bool hetero = false;
    std::string checkpoint;
    std::string saveCheckpoint;
    std::size_t autoscaleMin = 0;
    std::size_t autoscaleMax = 0;
};

/** Flags that describe a run built from flags; a scenario file sets
 * these itself. */
const char *const kFlagBuiltOnly[] = {"--service", "--manager", "--load",
                                      "--pattern", "--paper", "--nodes"};
/** Flags that only mean something on a fleet. */
const char *const kFleetOnly[] = {
    "--domains", "--policy", "--hetero", "--checkpoint",
    "--save-checkpoint", "--autoscale"};

common::FlagParser
makeParser(Options &opt)
{
    common::FlagParser parser;
    parser.addString("--scenario", &opt.scenario,
                     "scenario file to run; --steps, --window, --seed "
                     "and the fleet flags override it");
    parser.addStringList("--service", &opt.services,
                         "catalogue service");
    parser.addString("--manager", &opt.manager,
                     "task manager, per node on a fleet (default twig)");
    parser.addDouble("--load", &opt.load,
                     "load fraction of max; on a fleet, peak fraction "
                     "of fleet capacity (default 0.5)");
    parser.addString("--pattern", &opt.pattern,
                     "fixed | diurnal | step | ramp (default fixed)");
    parser.addCount("--steps", &opt.steps,
                    "control steps (default 2000)", 1);
    parser.addCount("--window", &opt.window,
                    "metrics window (default steps/6, steps/4 on a "
                    "fleet)",
                    1);
    parser.addCount("--seed", &opt.seed, "RNG seed (default 42)");
    parser.addCount("--jobs", &opt.jobs,
                    "fleet node-stepping threads; results are "
                    "bit-identical at any value (default 1)",
                    1);
    parser.addString("--trace", &opt.trace,
                     "write a per-step CSV trace");
    parser.addString("--faults", &opt.faults,
                     "fault-schedule file (fleets; replaces the "
                     "scenario's own schedule)");
    parser.addString("--fault-trace", &opt.faultTrace,
                     "write the fault-event stream as CSV");
    parser.addBool("--paper", &opt.paper,
                   "use the paper's full hyper-parameters");
    parser.addBool("--sim-profile", &opt.simProfile,
                   "print the per-phase simulator cycle breakdown "
                   "(cycles, calls, share)");
    parser.addPositive("--profile-max-share", &opt.profileMaxShare,
                       "with --sim-profile: warn and exit 3 when any "
                       "phase's share exceeds this percent (0, 100]",
                       100.0);
    parser.addCount("--nodes", &opt.nodes,
                    "run an N-replica fleet instead of one node", 1);
    parser.addCount("--domains", &opt.domains,
                    "fleet routing domains (default 1 = flat)", 1);
    parser.addString("--policy", &opt.policy,
                     "fleet routing: static | wrr | p2c-latency "
                     "(default p2c-latency)");
    parser.addBool("--hetero", &opt.hetero,
                   "fleet alternates full-size and 6-core nodes");
    parser.addString("--checkpoint", &opt.checkpoint,
                     "warm-start every Twig node from this BDQ "
                     "checkpoint and run it exploit-only");
    parser.addString("--save-checkpoint", &opt.saveCheckpoint,
                     "save fleet node 0's trained BDQ after the run");
    parser.addCountRange("--autoscale", &opt.autoscaleMin,
                         &opt.autoscaleMax,
                         "elastic fleet bounds (replaces those of the "
                         "scenario's autoscale block)");
    return parser;
}

/** Build the spec this invocation describes; FatalError on a flag
 * combination that cannot run. */
harness::ScenarioSpec
buildSpec(const Options &opt, const common::FlagParser::Result &args)
{
    harness::ScenarioSpec spec;
    if (!opt.scenario.empty()) {
        for (const char *flag : kFlagBuiltOnly) {
            common::fatalIf(args.has(flag), flag,
                            " describes a run built from flags; with "
                            "--scenario, edit the file instead");
        }
        spec = harness::ScenarioSpec::fromFile(opt.scenario);
        // Command-line overrides of the scenario's schedule/seed (the
        // CI smoke runs every shipped scenario at reduced steps).
        if (args.has("--steps")) {
            spec.steps = opt.steps;
            if (spec.window > spec.steps)
                spec.window = 0;
            for (auto &event : spec.events)
                event.afterSteps =
                    std::min(event.afterSteps, opt.steps);
        }
        if (args.has("--window"))
            spec.window = opt.window;
        if (args.has("--seed"))
            spec.seed = opt.seed;
    } else {
        common::fatalIf(opt.services.empty(),
                        "need --service NAME or --scenario FILE (see "
                        "--help)");
        spec.name = "cli";
        for (const auto &name : opt.services) {
            harness::ServiceLoadSpec s;
            s.service = name;
            s.pattern = opt.pattern;
            s.fraction = opt.load;
            spec.services.push_back(std::move(s));
        }
        spec.manager = opt.manager;
        spec.paper = opt.paper;
        spec.steps = opt.steps;
        spec.window = opt.window;
        spec.seed = opt.seed;
        if (opt.nodes != 0) {
            spec.topology = "cluster";
            spec.nodes = opt.nodes;
        }
    }
    if (!opt.faults.empty())
        spec.faults = faults::FaultSpec::fromFile(opt.faults);

    if (spec.topology != "cluster") {
        for (const char *flag : kFleetOnly) {
            common::fatalIf(args.has(flag), flag,
                            " needs a fleet (--nodes N or a cluster "
                            "scenario)");
        }
        return spec;
    }
    if (args.has("--domains"))
        spec.domains = opt.domains;
    if (args.has("--policy"))
        spec.policy = opt.policy;
    if (opt.hetero)
        spec.hetero = true;
    if (args.has("--checkpoint"))
        spec.checkpoint = opt.checkpoint;
    if (args.has("--autoscale")) {
        // Keeps the other knobs of the scenario's own autoscale block
        // (hysteresis, cooldown, drain); the initial node count is
        // clamped into the new bounds.
        auto cfg = spec.autoscale.value_or(autoscale::AutoscaleConfig{});
        cfg.minNodes = opt.autoscaleMin;
        cfg.maxNodes = opt.autoscaleMax;
        spec.autoscale = cfg;
        spec.nodes = std::clamp(spec.nodes, cfg.minNodes, cfg.maxNodes);
    }
    return spec;
}

void
printSingleSummary(const harness::ScenarioSpec &spec,
                   const harness::EngineResult &result)
{
    std::printf("%s over the last %zu of %zu steps "
                "(pattern %s, load %.0f%%):\n",
                result.managerName.c_str(),
                result.single.metrics.windowSteps, spec.steps,
                spec.services[0].pattern.c_str(),
                100 * spec.services[0].fraction);
    for (const auto &svc : result.single.metrics.services) {
        std::printf("  %-11s QoS %5.1f%%  mean tardiness %.2f  "
                    "(target met when <= 1)\n",
                    svc.name.c_str(), svc.qosGuaranteePct,
                    svc.meanTardiness);
    }
    std::printf("  mean power %.1f W, energy %.0f J\n",
                result.single.metrics.meanPowerW,
                result.single.metrics.energyJoules);
}

void
printClusterSummary(const harness::ScenarioSpec &spec,
                    const harness::EngineResult &result)
{
    const auto &m = result.fleet.metrics;
    std::printf("%zu-node fleet (%zu domain%s, %s routing, %s nodes%s) "
                "over the last %zu of %zu steps:\n",
                spec.nodes, spec.domains, spec.domains == 1 ? "" : "s",
                spec.policy.c_str(), spec.manager.c_str(),
                spec.hetero ? ", hetero" : "", m.windowSteps,
                spec.steps);
    for (std::size_t s = 0; s < m.serviceNames.size(); ++s) {
        std::printf("  %-11s fleet p99 %7.2f ms  QoS %5.1f%%\n",
                    m.serviceNames[s].c_str(), m.windowP99Ms[s],
                    m.qosGuaranteePct[s]);
    }
    std::printf("  fleet mean power %.1f W, energy %.0f J\n",
                m.meanPowerW, m.energyJoules);

    if (spec.autoscale) {
        std::size_t outs = 0, drains = 0, retires = 0, scale_total = 0;
        for (const auto &fs : result.fleet.trace) {
            scale_total += fs.scaleEvents.size();
            for (const auto &ev : fs.scaleEvents) {
                switch (ev.kind) {
                case cluster::ScaleEvent::Kind::ScaleOut:
                    ++outs;
                    break;
                case cluster::ScaleEvent::Kind::DrainStart:
                    ++drains;
                    break;
                case cluster::ScaleEvent::Kind::Retire:
                    ++retires;
                    break;
                }
            }
        }
        std::printf("  elastic fleet %zu..%zu nodes, scale events: %zu "
                    "(scale-outs %zu, drains %zu, retires %zu), fleet "
                    "bill $%.2f\n",
                    spec.autoscale->minNodes, spec.autoscale->maxNodes,
                    scale_total, outs, drains, retires, m.costDollars);
    } else if (!spec.fleetClasses.empty()) {
        std::printf("  fleet bill $%.2f\n", m.costDollars);
    }

    if (spec.faults.empty())
        return;
    std::size_t total = 0, warm = 0, cold = 0, corrupt = 0, shed = 0;
    for (const auto &fs : result.fleet.trace) {
        total += fs.faultEvents.size();
        for (const auto &ev : fs.faultEvents) {
            switch (ev.kind) {
            case faults::FaultEventKind::WarmRestore:
                ++warm;
                break;
            case faults::FaultEventKind::ColdRestart:
                ++cold;
                break;
            case faults::FaultEventKind::CorruptDetected:
                ++corrupt;
                break;
            case faults::FaultEventKind::LoadShed:
                ++shed;
                break;
            default:
                break;
            }
        }
    }
    std::printf("  fault events: %zu (warm restores %zu, cold restarts "
                "%zu, corrupt frames detected %zu, shed intervals %zu)\n",
                total, warm, cold, corrupt, shed);
}

int
run(int argc, char **argv)
{
    Options opt;
    const auto parser = makeParser(opt);
    const auto args = parser.parseOrExit(
        argc, argv, "(--service NAME ... | --scenario FILE) [options]");
    common::fatalIf(args.has("--profile-max-share") && !opt.simProfile,
                    "--profile-max-share needs --sim-profile");
    const auto spec = buildSpec(opt, args);

    harness::EngineOptions engine_opts;
    engine_opts.jobs = opt.jobs;
    engine_opts.saveCheckpoint = opt.saveCheckpoint;
    harness::SimProfileSink sim_profile(opt.profileMaxShare);
    harness::CsvTraceSink trace(opt.trace);
    harness::FaultCsvSink fault_trace(opt.faultTrace);
    if (opt.simProfile)
        engine_opts.sinks.push_back(&sim_profile);
    if (!opt.trace.empty())
        engine_opts.sinks.push_back(&trace);
    if (!opt.faultTrace.empty())
        engine_opts.sinks.push_back(&fault_trace);

    const harness::Engine engine(engine_opts);
    const auto result = engine.run(spec);

    if (!opt.trace.empty()) {
        std::printf("trace written to %s (%zu steps)\n",
                    opt.trace.c_str(), trace.records());
    }
    if (!opt.faultTrace.empty()) {
        std::printf("fault trace written to %s (%zu events)\n",
                    opt.faultTrace.c_str(), fault_trace.events());
    }
    if (!opt.saveCheckpoint.empty()) {
        std::printf("node 0 BDQ checkpoint written to %s\n",
                    opt.saveCheckpoint.c_str());
    }
    if (result.cluster)
        printClusterSummary(spec, result);
    else
        printSingleSummary(spec, result);
    // A blown phase budget is a soft failure: the run's numbers above
    // are still valid, but CI gets a distinct exit status.
    return opt.simProfile && sim_profile.exceeded() ? 3 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Invalid input (a bad flag combination, scenario or service name)
    // is a usage error; a PanicError is a library bug and stays fatal.
    try {
        return run(argc, argv);
    } catch (const common::FatalError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
}
