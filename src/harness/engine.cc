#include "harness/engine.hh"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/error.hh"
#include "core/twig_manager.hh"
#include "harness/profiling.hh"
#include "harness/runner.hh"
#include "harness/sim_profile.hh"
#include "rl/checkpoint.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

namespace twig::harness {

namespace {

/** Peak RPS of one service-load entry. @p capacity_factor scales
 * relative peaks on the cluster topology (1.0 on single nodes);
 * absolute max_rps overrides skip it. */
double
effectiveMaxRps(const ServiceLoadSpec &spec,
                const sim::ServiceProfile &profile,
                double capacity_factor)
{
    if (spec.maxRps > 0.0)
        return spec.maxRps;
    return profile.maxLoadRps * spec.maxScale * capacity_factor;
}

/** Build the load generator of one entry. @p segment_steps feeds the
 * conventional per-pattern defaults (see ServiceLoadSpec). */
std::unique_ptr<sim::LoadGenerator>
makeLoadFromSpec(const ServiceLoadSpec &spec, double max_rps,
                 std::size_t segment_steps)
{
    const double high = spec.fraction;
    if (spec.pattern == "fixed")
        return std::make_unique<sim::FixedLoad>(max_rps, high);
    if (spec.pattern == "diurnal") {
        const double low =
            spec.lowFraction >= 0.0 ? spec.lowFraction : high * 0.4;
        const std::size_t period = spec.periodSteps
            ? spec.periodSteps
            : segment_steps / 4;
        return std::make_unique<sim::DiurnalLoad>(max_rps, low, high,
                                                  period);
    }
    if (spec.pattern == "step") {
        const double low = spec.lowFraction >= 0.0
            ? spec.lowFraction
            : std::max(0.1, high * 0.4);
        const std::size_t period = spec.periodSteps
            ? spec.periodSteps
            : std::max<std::size_t>(segment_steps / 50, 1);
        return std::make_unique<sim::StepwiseMonotonicLoad>(
            max_rps, low, spec.changeFactor, period);
    }
    if (spec.pattern == "ramp") {
        const double low =
            spec.lowFraction >= 0.0 ? spec.lowFraction : high * 0.25;
        const std::size_t duration =
            spec.periodSteps ? spec.periodSteps : segment_steps;
        return std::make_unique<sim::RampLoad>(max_rps, low, high,
                                               duration);
    }
    if (spec.pattern == "trace") {
        const double low =
            spec.lowFraction >= 0.0 ? spec.lowFraction : high * 0.4;
        const std::size_t period =
            spec.periodSteps ? spec.periodSteps : segment_steps;
        return sim::TraceLoad::fromCsv(max_rps, spec.tracePath,
                                       spec.traceColumn, low, high,
                                       period);
    }
    common::fatal("unknown load pattern: ", spec.pattern);
}

std::vector<sim::ServiceProfile>
profilesFor(const std::vector<ServiceLoadSpec> &loads)
{
    std::vector<sim::ServiceProfile> out;
    out.reserve(loads.size());
    for (const auto &s : loads)
        out.push_back(services::byName(s.service));
    return out;
}

/** "{cores}" in a checkpoint path expands to the node's core count
 * (per-machine-shape donor checkpoints). */
std::string
expandCheckpoint(const std::string &path, std::size_t cores)
{
    const std::string placeholder = "{cores}";
    std::string out = path;
    for (std::size_t pos = out.find(placeholder);
         pos != std::string::npos; pos = out.find(placeholder, pos)) {
        const std::string n = std::to_string(cores);
        out.replace(pos, placeholder.size(), n);
        pos += n.size();
    }
    return out;
}

/** Keeps every record of the final segment (EngineOptions::recordTrace). */
class KeepAllSink : public RecordSink
{
  public:
    explicit KeepAllSink(std::vector<StepRecord> &out) : out_(out) {}

    void
    begin(const ScenarioSpec &spec,
          const std::vector<sim::ServiceProfile> &) override
    {
        out_.reserve(spec.steps);
    }
    void record(const StepRecord &rec) override { out_.push_back(rec); }

  private:
    std::vector<StepRecord> &out_;
};

} // namespace

// --- CsvTraceSink ----------------------------------------------------

void
CsvTraceSink::begin(const ScenarioSpec &spec,
                    const std::vector<sim::ServiceProfile> &profiles)
{
    singleTopology_ = spec.topology != "cluster";
    numServices_ = profiles.size();
    csv_ = std::make_unique<common::CsvWriter>(path_);
    std::vector<std::string> header = {"step", "power_w"};
    for (const auto &p : profiles) {
        if (singleTopology_) {
            header.push_back(p.name + "_cores");
            header.push_back(p.name + "_dvfs_ghz");
            header.push_back(p.name + "_p99_ms");
            header.push_back(p.name + "_rps");
        } else {
            header.push_back(p.name + "_fleet_rps");
            header.push_back(p.name + "_fleet_p99_ms");
        }
    }
    csv_->header(header);
}

void
CsvTraceSink::record(const StepRecord &rec)
{
    row_.clear();
    row_.push_back(static_cast<double>(rec.step));
    row_.push_back(rec.socketPowerW);
    for (std::size_t i = 0; i < numServices_; ++i) {
        if (singleTopology_) {
            row_.push_back(static_cast<double>(rec.cores[i]));
            row_.push_back(sim::DvfsLadder{}.freq(rec.dvfs[i]));
            row_.push_back(rec.p99Ms[i]);
            row_.push_back(rec.offeredRps[i]);
        } else {
            row_.push_back(rec.offeredRps[i]);
            row_.push_back(rec.p99Ms[i]);
        }
    }
    csv_->rowVec(row_);
    ++records_;
}

// --- FaultCsvSink ----------------------------------------------------

void
FaultCsvSink::begin(const ScenarioSpec &,
                    const std::vector<sim::ServiceProfile> &)
{
    csv_ = std::make_unique<common::CsvWriter>(path_);
    csv_->header(
        {"step", "event", "node", "service", "value", "aux", "note"});
}

void
FaultCsvSink::fault(const faults::FaultEvent &ev)
{
    csv_->row(ev.step, faults::faultEventKindName(ev.kind), ev.node,
              ev.service, ev.value, ev.aux, ev.note);
    ++events_;
}

// --- SimProfileSink --------------------------------------------------

void
SimProfileSink::begin(const ScenarioSpec &spec,
                      const std::vector<sim::ServiceProfile> &)
{
    steps_ = spec.steps;
    SimProfile::reset();
    SimProfile::enable();
    startCycles_ = common::simprof::now();
}

void
SimProfileSink::end()
{
    const std::uint64_t wall = common::simprof::now() - startCycles_;
    SimProfile::disable();
    std::printf("control-interval phase breakdown (%zu steps, share of "
                "wall time):\n",
                steps_);
    const SimProfile prof = SimProfile::snapshot();
    prof.printInterval(stdout, wall);
    const auto over = prof.phasesAbove(maxSharePct_);
    exceeded_ = !over.empty();
    for (const auto p : over) {
        std::printf("  WARNING: phase '%s' share %.2f%% exceeds the "
                    "--profile-max-share budget of %.2f%%\n",
                    common::simprof::phaseName(p), prof.sharePct(p),
                    maxSharePct_);
    }
}

// --- Engine ----------------------------------------------------------

EngineResult
Engine::run(const ScenarioSpec &spec) const
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    const std::string err = spec.validate(registry);
    common::fatalIf(!err.empty(), "scenario '", spec.name, "': ", err);
    if (spec.topology == "cluster")
        return runCluster(spec, registry);
    return runSingle(spec, registry);
}

EngineResult
Engine::runSingle(const ScenarioSpec &spec,
                  const ManagerRegistry &registry) const
{
    sim::MachineConfig machine;
    machine.numCores = spec.machineCores;
    const auto initial_profiles = profilesFor(spec.services);
    const Schedule sched{spec.steps, spec.resolvedWindow(),
                         spec.resolvedHorizon()};

    std::unique_ptr<core::TaskManager> owned;
    core::TaskManager *manager = options_.managerOverride;
    if (manager == nullptr) {
        ManagerContext ctx;
        ctx.machine = machine;
        ctx.profiles = initial_profiles;
        ctx.schedule = sched;
        ctx.full = spec.paper;
        ctx.seed = spec.managerSeed ? *spec.managerSeed : spec.seed + 1;
        ctx.knobs = spec.knobs;
        owned = registry.make(spec.manager, ctx);
        manager = owned.get();
    }

    auto build_server = [&](const std::vector<ServiceLoadSpec> &loads,
                            std::uint64_t seed,
                            std::size_t segment_steps) {
        auto server = std::make_unique<sim::Server>(machine, seed);
        for (const auto &s : loads) {
            const auto profile = services::byName(s.service);
            server->addService(
                profile,
                makeLoadFromSpec(s, effectiveMaxRps(s, profile, 1.0),
                                 segment_steps));
        }
        return server;
    };

    // Event segments: each runs on its own server, metrics discarded.
    const std::vector<ServiceLoadSpec> *current = &spec.services;
    std::uint64_t server_seed = spec.seed;
    for (const auto &event : spec.events) {
        auto server =
            build_server(*current, server_seed, event.afterSteps);
        ExperimentRunner runner(*server, *manager);
        RunOptions run;
        run.steps = event.afterSteps;
        run.summaryWindow = event.afterSteps;
        runner.run(run);

        for (const auto &t : event.transfers) {
            auto *twig = dynamic_cast<core::TwigManager *>(manager);
            common::fatalIf(twig == nullptr,
                            "transfer event needs a TwigManager");
            twig->transferService(
                t.serviceIndex,
                makeTwigSpec(services::byName(t.service), machine,
                             t.specSeed),
                t.reexploreSteps);
        }
        if (!event.services.empty())
            current = &event.services;
        server_seed =
            event.serverSeed ? *event.serverSeed : spec.seed;
    }

    // Final (measured) segment: the only one the sinks observe, each
    // interval as it completes (before the manager decides the next).
    auto server = build_server(*current, server_seed, spec.steps);
    ExperimentRunner runner(*server, *manager);
    RunOptions run;
    run.steps = spec.steps;
    run.summaryWindow = sched.summaryWindow;
    EngineResult result;
    std::vector<RecordSink *> sinks = options_.sinks;
    KeepAllSink keep(result.single.trace);
    if (options_.recordTrace)
        sinks.push_back(&keep);
    StepRecord rec;
    if (!sinks.empty()) {
        run.onStep = [&](std::size_t step,
                         const sim::ServerIntervalStats &stats) {
            rec.step = step;
            rec.socketPowerW = stats.socketPowerW;
            rec.offeredRps.clear();
            rec.p99Ms.clear();
            rec.cores.clear();
            rec.dvfs.clear();
            for (std::size_t i = 0; i < stats.services.size(); ++i) {
                rec.offeredRps.push_back(stats.services[i].offeredRps);
                rec.p99Ms.push_back(stats.services[i].p99Ms);
                rec.cores.push_back(runner.requests()[i].numCores);
                rec.dvfs.push_back(runner.requests()[i].dvfsIndex);
            }
            for (auto *sink : sinks)
                sink->record(rec);
        };
    }
    const auto final_profiles = profilesFor(spec.finalServices());
    for (auto *sink : sinks)
        sink->begin(spec, final_profiles);

    result.managerName = manager->name();
    result.single.metrics = runner.run(run);
    for (auto *sink : sinks)
        sink->end();
    return result;
}

namespace {

/** Slot @p index's machine under @p spec: its fleet class when a class
 * list is set, else the hetero 18/6 alternation. */
sim::MachineConfig
nodeMachine(const ScenarioSpec &spec, std::size_t index)
{
    if (!spec.fleetClasses.empty()) {
        const std::string &id =
            spec.fleetClasses[index % spec.fleetClasses.size()];
        const autoscale::NodeClass *cls =
            autoscale::findNodeClass(spec.nodeClasses, id);
        common::fatalIf(cls == nullptr,
                        "nodeMachine: undefined node class '", id, "'");
        return cls->machine();
    }
    sim::MachineConfig m;
    m.numCores = spec.hetero && index % 2 == 1 ? 6 : spec.machineCores;
    return m;
}

/** --load keeps its meaning at any node count: relative peaks scale
 * with total fleet capacity vs one reference node. Autoscaled fleets
 * are rated at *full* (maxNodes) provisioning — the static-max
 * reference — so the load pattern's peak genuinely needs the whole
 * fleet. */
double
fleetCapacityFactor(const ScenarioSpec &spec)
{
    const double ref_capacity = sim::MachineConfig{}.capacity();
    double capacity_factor = 0.0;
    for (std::size_t n = 0; n < spec.totalNodes(); ++n)
        capacity_factor += nodeMachine(spec, n).capacity() / ref_capacity;
    return capacity_factor;
}

} // namespace

FleetSetup
buildFleet(const ScenarioSpec &spec, const ManagerRegistry &registry,
           std::size_t jobs,
           std::vector<std::unique_ptr<sim::LoadGenerator>>
               loads_override)
{
    FleetSetup setup;
    setup.profiles = profilesFor(spec.services);
    const double capacity_factor = fleetCapacityFactor(spec);

    common::fatalIf(!loads_override.empty() &&
                        loads_override.size() != spec.services.size(),
                    "buildFleet: loads_override needs one generator "
                    "per service (got ", loads_override.size(),
                    " for ", spec.services.size(), " services)");
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    for (std::size_t s = 0; s < spec.services.size(); ++s) {
        setup.maxRps.push_back(effectiveMaxRps(
            spec.services[s], setup.profiles[s], capacity_factor));
        loads.push_back(loads_override.empty()
                            ? makeLoadFromSpec(spec.services[s],
                                               setup.maxRps[s],
                                               spec.steps)
                            : std::move(loads_override[s]));
    }

    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::routingPolicyByName(spec.policy);
    cfg.jobs = jobs;
    cfg.router.domains = spec.domains;
    setup.fleet = std::make_unique<cluster::ClusterManager>(
        cfg, setup.profiles, std::move(loads), spec.seed);

    const Schedule sched{spec.steps, spec.resolvedWindow(),
                         spec.resolvedHorizon()};
    const bool warm = !spec.checkpoint.empty();
    // By-value captures: the factory outlives this call — it is the
    // rebuild recipe the fleet keeps for crash recovery.
    const cluster::ClusterManager::ManagerFactory factory =
        [sched, paper = spec.paper, knobs = spec.knobs, warm,
         manager_name = spec.manager, registry_ptr = &registry](
            const sim::MachineConfig &machine,
            const std::vector<sim::ServiceProfile> &svcs,
            std::uint64_t seed) -> std::unique_ptr<core::TaskManager> {
        ManagerContext ctx;
        ctx.machine = machine;
        ctx.profiles = svcs;
        ctx.schedule = sched;
        ctx.full = paper;
        ctx.seed = seed;
        ctx.knobs = knobs;
        if (warm)
            ctx.knobs.exploitOnly = true; // deployed, trained policy
        return registry_ptr->make(manager_name, ctx);
    };

    // Provision every slot (standby included on autoscaled fleets —
    // the routing partition is fixed; slots park instead of
    // disappearing). A warm fleet reads and verifies each distinct
    // donor file (one per node shape) once and restores every replica
    // from memory.
    std::map<std::string, rl::Checkpoint> donors;
    for (std::size_t n = 0; n < spec.totalNodes(); ++n) {
        const auto machine = nodeMachine(spec, n);
        const rl::Checkpoint *donor = nullptr;
        if (warm) {
            const std::string path =
                expandCheckpoint(spec.checkpoint, machine.numCores);
            auto it = donors.find(path);
            if (it == donors.end())
                it = donors.emplace(path, rl::Checkpoint::read(path)).first;
            donor = &it->second;
        }
        setup.fleet->addNode(machine, factory, donor);
    }
    if (!spec.faults.empty())
        setup.fleet->slots().setFaults(spec.faults);
    // Per-slot hourly rates from the class list (empty = $1/h each).
    std::vector<double> rates;
    if (!spec.fleetClasses.empty()) {
        for (std::size_t n = 0; n < spec.totalNodes(); ++n) {
            const autoscale::NodeClass *cls = autoscale::findNodeClass(
                spec.nodeClasses,
                spec.fleetClasses[n % spec.fleetClasses.size()]);
            rates.push_back(cls->dollarsPerHour);
        }
    }
    if (spec.autoscale || !rates.empty())
        setup.fleet->slots().setCostModel(std::move(rates));
    // Rated at full provisioning: the utilisation denominator is the
    // same static-max capacity the bench compares against.
    if (spec.autoscale)
        setup.fleet->slots().setAutoscaler(*spec.autoscale, setup.maxRps,
                                           spec.nodes);
    return setup;
}

EngineResult
Engine::runCluster(const ScenarioSpec &spec,
                   const ManagerRegistry &registry) const
{
    const std::size_t window = spec.resolvedWindow();
    auto setup = buildFleet(spec, registry, options_.jobs);
    cluster::ClusterManager &fleet = *setup.fleet;

    for (auto *sink : options_.sinks)
        sink->begin(spec, setup.profiles);

    EngineResult result;
    result.cluster = true;
    StepRecord rec;
    result.fleet = fleet.run(
        spec.steps, window,
        [&](std::size_t, const cluster::FleetIntervalStats &fs) {
            rec.step = fs.step;
            rec.socketPowerW = fs.totalPowerW;
            rec.offeredRps = fs.offeredRps;
            rec.p99Ms = fs.fleetP99Ms;
            for (auto *sink : options_.sinks) {
                for (const auto &ev : fs.faultEvents)
                    sink->fault(ev);
                sink->record(rec);
            }
        });
    for (auto *sink : options_.sinks)
        sink->end();

    if (!options_.saveCheckpoint.empty()) {
        auto *twig = dynamic_cast<core::TwigManager *>(
            &fleet.node(0).manager());
        common::fatalIf(twig == nullptr,
                        "save-checkpoint needs a TwigManager on node 0");
        twig->saveCheckpoint(options_.saveCheckpoint);
    }
    return result;
}

} // namespace twig::harness
