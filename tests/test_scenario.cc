/** @file
 * Tests for the declarative scenario layer: ScenarioSpec JSON
 * round-trips, registry/spec validation errors, and fixed-seed golden
 * runs proving the engine reproduces hand-built harness runs on both
 * topologies (the refactored benches rely on this equivalence).
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "baselines/static_manager.hh"
#include "cluster/cluster_manager.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "core/twig_manager.hh"
#include "harness/engine.hh"
#include "harness/profiling.hh"
#include "harness/runner.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig;
using namespace twig::harness;

namespace {

ScenarioSpec
richSpec()
{
    ScenarioSpec spec;
    spec.name = "round-trip";
    spec.description = "every optional field set";
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "masstree";
        s.pattern = "diurnal";
        s.fraction = 0.8;
        s.maxScale = 0.6;
        s.lowFraction = 0.2;
        s.periodSteps = 50;
        return s;
    }());
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "moses";
        s.pattern = "step";
        s.fraction = 1.0;
        s.changeFactor = 0.3;
        s.maxRps = 1234.5;
        return s;
    }());
    spec.manager = "twig";
    spec.knobs.theta = 0.25;
    spec.knobs.eta = 9;
    spec.knobs.alpha = 0.6;
    spec.paper = true;
    spec.managerSeed = 4082637488651899829ULL; // > 2^53: exactness
    spec.steps = 2000;
    spec.window = 300;
    spec.horizon = 1500;
    spec.seed = 7297471543603743092ULL;
    ScenarioEvent event;
    event.afterSteps = 700;
    event.transfers.push_back([] {
        TransferSpec t;
        t.serviceIndex = 1;
        t.service = "xapian";
        t.specSeed = 47;
        t.reexploreSteps = 100;
        return t;
    }());
    event.services.push_back(spec.services[0]);
    event.services.push_back(spec.services[1]);
    event.serverSeed = 99;
    spec.events.push_back(event);
    return spec;
}

/** A learning Twig built by hand, independent of the registry:
 * profiled Eq. 2 models (seed ^ 77) and the fast preset. */
std::unique_ptr<core::TwigManager>
handBuiltTwig(const sim::MachineConfig &machine,
              const std::vector<sim::ServiceProfile> &profiles,
              std::size_t horizon, std::uint64_t seed)
{
    const auto maxima = services::calibrateCounterMaxima(machine);
    std::vector<core::TwigServiceSpec> specs;
    for (const auto &p : profiles)
        specs.push_back(makeTwigSpec(p, machine, seed ^ 77));
    return std::make_unique<core::TwigManager>(
        core::TwigConfig::fast(horizon), machine, maxima, std::move(specs),
        seed);
}

} // namespace

TEST(ScenarioSpec, JsonRoundTripIsByteIdentical)
{
    const ScenarioSpec spec = richSpec();
    const std::string once = spec.toJson().dump(2);
    const ScenarioSpec back =
        ScenarioSpec::fromJson(common::Json::parse(once));
    EXPECT_EQ(back.toJson().dump(2), once);

    // Spot-check fields that have non-trivial encodings.
    EXPECT_EQ(back.name, spec.name);
    EXPECT_EQ(back.services.size(), 2u);
    EXPECT_EQ(back.services[0].pattern, "diurnal");
    EXPECT_DOUBLE_EQ(back.services[1].maxRps, 1234.5);
    ASSERT_TRUE(back.managerSeed.has_value());
    EXPECT_EQ(*back.managerSeed, 4082637488651899829ULL);
    EXPECT_EQ(back.seed, 7297471543603743092ULL);
    EXPECT_DOUBLE_EQ(*back.knobs.theta, 0.25);
    EXPECT_EQ(*back.knobs.eta, 9u);
    ASSERT_EQ(back.events.size(), 1u);
    EXPECT_EQ(back.events[0].transfers[0].service, "xapian");
    EXPECT_EQ(*back.events[0].serverSeed, 99u);
}

TEST(ScenarioSpec, ClusterFieldsRoundTrip)
{
    ScenarioSpec spec;
    spec.name = "fleet";
    spec.topology = "cluster";
    spec.machineCores = 12;
    ServiceLoadSpec s;
    s.service = "masstree";
    spec.services.push_back(s);
    spec.nodes = 8;
    spec.hetero = true;
    spec.policy = "wrr";
    spec.domains = 4;
    spec.checkpoint = "donor_{cores}c.ckpt";

    const std::string once = spec.toJson().dump();
    const ScenarioSpec back =
        ScenarioSpec::fromJson(common::Json::parse(once));
    EXPECT_EQ(back.toJson().dump(), once);
    EXPECT_EQ(back.machineCores, 12u);
    EXPECT_EQ(back.nodes, 8u);
    EXPECT_TRUE(back.hetero);
    EXPECT_EQ(back.policy, "wrr");
    EXPECT_EQ(back.domains, 4u);
    EXPECT_EQ(back.checkpoint, "donor_{cores}c.ckpt");
}

TEST(ScenarioSpec, AutoscaleAndFleetBlocksRoundTrip)
{
    ScenarioSpec spec;
    spec.name = "elastic";
    spec.topology = "cluster";
    ServiceLoadSpec s;
    s.service = "masstree";
    spec.services.push_back(s);
    spec.nodes = 3;
    autoscale::NodeClass custom;
    custom.id = "fat32";
    custom.cores = 32;
    custom.serviceRateScale = 1.1;
    custom.dollarsPerHour = 1.8;
    spec.nodeClasses.push_back(custom);
    spec.fleetClasses = {"fat32", "gen1", "std18"};
    autoscale::AutoscaleConfig cfg;
    cfg.minNodes = 2;
    cfg.maxNodes = 6;
    cfg.hiUtilization = 0.65;
    cfg.cooldownIntervals = 4;
    spec.autoscale = cfg;

    const std::string once = spec.toJson().dump(2);
    const ScenarioSpec back =
        ScenarioSpec::fromJson(common::Json::parse(once));
    EXPECT_EQ(back.toJson().dump(2), once);
    ASSERT_TRUE(back.autoscale.has_value());
    EXPECT_EQ(back.autoscale->minNodes, 2u);
    EXPECT_EQ(back.autoscale->maxNodes, 6u);
    EXPECT_DOUBLE_EQ(back.autoscale->hiUtilization, 0.65);
    EXPECT_EQ(back.autoscale->cooldownIntervals, 4u);
    ASSERT_EQ(back.nodeClasses.size(), 1u);
    EXPECT_EQ(back.nodeClasses[0].id, "fat32");
    EXPECT_EQ(back.nodeClasses[0].cores, 32u);
    EXPECT_DOUBLE_EQ(back.nodeClasses[0].dollarsPerHour, 1.8);
    EXPECT_EQ(back.fleetClasses,
              (std::vector<std::string>{"fat32", "gen1", "std18"}));
    // With an autoscale block `nodes` is the initial count and the
    // fleet provisions max_nodes slots.
    EXPECT_EQ(back.nodes, 3u);
    EXPECT_EQ(back.totalNodes(), 6u);
}

TEST(ScenarioSpec, ValidateCatchesElasticFleetErrors)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    ScenarioSpec spec;
    spec.topology = "cluster";
    ServiceLoadSpec s;
    s.service = "masstree";
    spec.services.push_back(s);
    spec.nodes = 3;
    autoscale::AutoscaleConfig cfg;
    cfg.minNodes = 2;
    cfg.maxNodes = 6;
    spec.autoscale = cfg;
    EXPECT_EQ(spec.validate(registry), "");

    auto broken = spec;
    broken.autoscale->minNodes = 7;
    EXPECT_EQ(broken.validate(registry),
              "autoscale block with min_nodes > max_nodes");

    broken = spec;
    broken.autoscale->cooldownIntervals = 0;
    EXPECT_EQ(broken.validate(registry),
              "autoscale block with cooldown 0 (would oscillate every "
              "interval)");

    broken = spec;
    broken.nodes = 1; // below min_nodes 2
    EXPECT_EQ(broken.validate(registry),
              "autoscale initial nodes outside [min_nodes, max_nodes]");

    broken = spec;
    broken.fleetClasses = {"gen9"};
    EXPECT_EQ(broken.validate(registry),
              "fleet references undefined node class id 'gen9'");

    broken = spec;
    autoscale::NodeClass shadow;
    shadow.id = "std18";
    broken.nodeClasses.push_back(shadow);
    EXPECT_EQ(broken.validate(registry),
              "node class id 'std18' shadows a built-in class");

    broken = spec;
    autoscale::NodeClass dup;
    dup.id = "fat32";
    broken.nodeClasses.push_back(dup);
    broken.nodeClasses.push_back(dup);
    EXPECT_EQ(broken.validate(registry),
              "duplicate node class id 'fat32'");

    broken = spec;
    broken.autoscale.reset();
    broken.hetero = true;
    broken.fleetClasses = {"std18"};
    EXPECT_EQ(broken.validate(registry),
              "hetero and a fleet class list are mutually exclusive "
              "(the class list already fixes each slot's shape)");

    // Neither block means anything on the single topology.
    broken = spec;
    broken.topology = "single";
    EXPECT_EQ(broken.validate(registry),
              "autoscale is only supported on the cluster topology");

    broken = spec;
    broken.topology = "single";
    broken.autoscale.reset();
    broken.fleetClasses = {"std18"};
    EXPECT_EQ(broken.validate(registry),
              "node classes are only supported on the cluster "
              "topology");
}

TEST(ScenarioSpec, DomainsDefaultToOneAndOmitFromJson)
{
    ScenarioSpec spec;
    spec.name = "fleet";
    spec.topology = "cluster";
    ServiceLoadSpec s;
    s.service = "masstree";
    spec.services.push_back(s);

    // domains == 1 (the flat-equivalent default) is left out of the
    // JSON so pre-sharding scenario files stay byte-stable.
    EXPECT_EQ(spec.domains, 1u);
    EXPECT_EQ(spec.toJson().dump().find("domains"), std::string::npos);
    const ScenarioSpec back = ScenarioSpec::fromJson(
        common::Json::parse(spec.toJson().dump()));
    EXPECT_EQ(back.domains, 1u);
}

#ifdef TWIG_SOURCE_DIR
TEST(ScenarioSpec, ShippedFig05FileCarriesTheSweepCellSeeds)
{
    const auto spec = ScenarioSpec::fromFile(
        std::string(TWIG_SOURCE_DIR) + "/scenarios/fig05.json");
    EXPECT_EQ(spec.name, "fig05");
    EXPECT_EQ(spec.manager, "twig");
    ASSERT_EQ(spec.services.size(), 1u);
    EXPECT_EQ(spec.services[0].service, "masstree");
    EXPECT_DOUBLE_EQ(spec.services[0].fraction, 0.5);
    // sweepSeed(42, pair=1) / sweepSeed(42, idx=7) of the fig05 sweep.
    EXPECT_EQ(spec.seed, 7297471543603743092ULL);
    ASSERT_TRUE(spec.managerSeed.has_value());
    EXPECT_EQ(*spec.managerSeed, 4082637488651899829ULL);
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    EXPECT_EQ(spec.validate(registry), "");
}
#endif

TEST(Registry, UnknownManagerListsValidNames)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    EXPECT_EQ(registry.validate("nope", 1),
              "unknown manager 'nope', valid managers are: twig, "
              "static, hipster, heracles, parties");
    EXPECT_EQ(registry.validate("hipster", 2),
              "manager 'hipster' only supports a single service (2 "
              "requested)");
    EXPECT_EQ(registry.validate("heracles", 3),
              "manager 'heracles' only supports a single service (3 "
              "requested)");
    EXPECT_EQ(registry.validate("twig", 2), "");
}

TEST(Registry, ExploitOnlyTwigIsBuiltWithoutAPowerModel)
{
    ManagerContext ctx;
    ctx.profiles = {services::masstree(), services::imgdnn()};
    ctx.seed = 5;
    ctx.knobs.exploitOnly = true;
    auto manager = ManagerRegistry::builtin().make("twig", ctx);
    auto &twig = dynamic_cast<core::TwigManager &>(*manager);
    EXPECT_TRUE(twig.exploitOnly());
    // No Eq. 2 model was fitted, so the manager can never learn.
    EXPECT_THROW(twig.setExploitOnly(false), common::FatalError);
    EXPECT_TRUE(twig.exploitOnly());

    ctx.knobs.exploitOnly = false;
    auto learning = ManagerRegistry::builtin().make("twig", ctx);
    auto &learner = dynamic_cast<core::TwigManager &>(*learning);
    EXPECT_FALSE(learner.exploitOnly());
    learner.setExploitOnly(true);
    learner.setExploitOnly(false);
    EXPECT_FALSE(learner.exploitOnly());
}

TEST(ScenarioSpec, ValidateCatchesStructuralErrors)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    ScenarioSpec spec;
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "masstree";
        return s;
    }());

    EXPECT_EQ(spec.validate(registry), "");

    auto broken = spec;
    broken.topology = "mesh";
    EXPECT_EQ(broken.validate(registry),
              "unknown topology 'mesh' (want single | cluster)");

    broken = spec;
    broken.steps = 0;
    EXPECT_EQ(broken.validate(registry), "scenario has zero steps");

    broken = spec;
    broken.services.clear();
    EXPECT_EQ(broken.validate(registry), "scenario hosts no services");

    broken = spec;
    broken.services[0].pattern = "sawtooth";
    EXPECT_EQ(broken.validate(registry),
              "unknown load pattern 'sawtooth' (want fixed | diurnal | "
              "step | ramp | trace)");

    broken = spec;
    broken.services[0].pattern = "trace";
    EXPECT_EQ(broken.validate(registry),
              "trace pattern needs trace_path and trace_column");

    broken = spec;
    ScenarioEvent event;
    event.afterSteps = 10;
    event.services.push_back(broken.services[0]);
    event.services.push_back(broken.services[0]);
    broken.events.push_back(event);
    EXPECT_EQ(broken.validate(registry),
              "event changes the service count (manager architecture "
              "is fixed at construction)");

    broken = spec;
    broken.manager = "static";
    ScenarioEvent swap;
    swap.afterSteps = 10;
    swap.transfers.push_back([] {
        TransferSpec t;
        t.serviceIndex = 0;
        t.service = "moses";
        return t;
    }());
    broken.events.push_back(swap);
    EXPECT_EQ(broken.validate(registry),
              "transfers need the twig manager");

    broken = spec;
    broken.topology = "cluster";
    broken.policy = "fastest";
    EXPECT_EQ(broken.validate(registry),
              "unknown routing policy 'fastest' (want static | wrr | "
              "p2c-latency)");

    broken = spec;
    broken.topology = "cluster";
    broken.domains = 0;
    EXPECT_EQ(broken.validate(registry),
              "cluster scenario with zero routing domains");

    broken = spec;
    broken.topology = "cluster";
    broken.nodes = 4;
    broken.domains = 8;
    EXPECT_EQ(broken.validate(registry),
              "more routing domains than nodes");
}

TEST(ScenarioSpec, ValidateRejectsNonFiniteAndNonPositiveLoads)
{
    const ManagerRegistry &registry = ManagerRegistry::builtin();
    ScenarioSpec spec;
    spec.services.push_back([] {
        ServiceLoadSpec s;
        s.service = "masstree";
        return s;
    }());
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::string non_finite =
        "service 'masstree' has a non-finite load value";

    for (double ServiceLoadSpec::*field :
         {&ServiceLoadSpec::fraction, &ServiceLoadSpec::maxScale,
          &ServiceLoadSpec::maxRps, &ServiceLoadSpec::lowFraction,
          &ServiceLoadSpec::changeFactor}) {
        for (double bad : {nan, inf, -inf}) {
            auto broken = spec;
            broken.services[0].*field = bad;
            EXPECT_EQ(broken.validate(registry), non_finite);
        }
    }

    for (double bad : {0.0, -3.0}) {
        auto broken = spec;
        broken.services[0].fraction = bad;
        EXPECT_EQ(broken.validate(registry),
                  "service 'masstree' needs a load fraction > 0");
        broken = spec;
        broken.services[0].maxScale = bad;
        EXPECT_EQ(broken.validate(registry),
                  "service 'masstree' needs max_scale > 0");
    }
    auto broken = spec;
    broken.services[0].maxRps = -1.0;
    EXPECT_EQ(broken.validate(registry),
              "service 'masstree' needs max_rps >= 0");

    // Event segments and scenario files get the same check.
    broken = spec;
    ScenarioEvent event;
    event.afterSteps = 10;
    event.services.push_back(spec.services[0]);
    event.services[0].fraction = nan;
    broken.events.push_back(event);
    EXPECT_EQ(broken.validate(registry), non_finite);

    const auto from_file = ScenarioSpec::fromJson(common::Json::parse(
        R"({"services": [{"service": "masstree", "fraction": -3}]})"));
    EXPECT_EQ(from_file.validate(registry),
              "service 'masstree' needs a load fraction > 0");
    EXPECT_THROW(Engine().run(from_file), common::FatalError);
}

// --- golden runs: the engine reproduces hand-built harness runs ------

TEST(Engine, Fig05StaticCellMatchesHandBuiltRunner)
{
    ScenarioSpec spec;
    spec.name = "golden-static";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 120;
    spec.window = 30;
    spec.seed = 7;
    const auto engine_run = Engine().run(spec);

    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    sim::Server server(machine, 7);
    server.addService(profile, std::make_unique<sim::FixedLoad>(
                                   profile.maxLoadRps, 0.5));
    baselines::StaticManager manager(machine);
    ExperimentRunner runner(server, manager);
    RunOptions opt;
    opt.steps = 120;
    opt.summaryWindow = 30;
    const auto direct = runner.run(opt);

    EXPECT_DOUBLE_EQ(engine_run.single.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(engine_run.single.metrics.meanPowerW,
                     direct.metrics.meanPowerW);
    EXPECT_DOUBLE_EQ(
        engine_run.single.metrics.services[0].qosGuaranteePct,
        direct.metrics.services[0].qosGuaranteePct);
    EXPECT_EQ(engine_run.managerName, "static");
}

TEST(Engine, Fig05TwigCellMatchesHandBuiltRunner)
{
    ScenarioSpec spec;
    spec.name = "golden-twig";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "twig";
    spec.managerSeed = 101;
    spec.steps = 150;
    spec.window = 40;
    spec.horizon = 150;
    spec.seed = 55;
    const auto engine_run = Engine().run(spec);

    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    auto manager = handBuiltTwig(machine, {profile}, 150, 101);
    sim::Server server(machine, 55);
    server.addService(profile, std::make_unique<sim::FixedLoad>(
                                   profile.maxLoadRps, 0.5));
    ExperimentRunner runner(server, *manager);
    RunOptions opt;
    opt.steps = 150;
    opt.summaryWindow = 40;
    const auto direct = runner.run(opt);

    EXPECT_DOUBLE_EQ(engine_run.single.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(
        engine_run.single.metrics.services[0].qosGuaranteePct,
        direct.metrics.services[0].qosGuaranteePct);
    EXPECT_DOUBLE_EQ(
        engine_run.single.metrics.services[0].meanTardiness,
        direct.metrics.services[0].meanTardiness);
}

TEST(Engine, Fig12ColocCellMatchesHandBuiltRunner)
{
    const double coloc = 0.6;
    ScenarioSpec spec;
    spec.name = "golden-coloc";
    ServiceLoadSpec mt;
    mt.service = "masstree";
    mt.fraction = 0.2;
    mt.maxScale = coloc;
    spec.services.push_back(mt);
    ServiceLoadSpec mo;
    mo.service = "moses";
    mo.fraction = 0.8;
    mo.maxScale = coloc;
    spec.services.push_back(mo);
    spec.manager = "twig";
    spec.managerSeed = 9;
    spec.steps = 160;
    spec.window = 40;
    spec.horizon = 120;
    spec.seed = 11;
    const auto engine_run = Engine().run(spec);

    const sim::MachineConfig machine;
    const auto mt_p = services::masstree();
    const auto mo_p = services::moses();
    auto manager = handBuiltTwig(machine, {mt_p, mo_p}, 120, 9);
    sim::Server server(machine, 11);
    server.addService(mt_p, std::make_unique<sim::FixedLoad>(
                                mt_p.maxLoadRps * coloc, 0.2));
    server.addService(mo_p, std::make_unique<sim::FixedLoad>(
                                mo_p.maxLoadRps * coloc, 0.8));
    ExperimentRunner runner(server, *manager);
    RunOptions opt;
    opt.steps = 160;
    opt.summaryWindow = 40;
    const auto direct = runner.run(opt);

    EXPECT_DOUBLE_EQ(engine_run.single.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(engine_run.single.metrics.avgQosGuaranteePct(),
                     direct.metrics.avgQosGuaranteePct());
}

TEST(Engine, ClusterGoldenRunMatchesHandBuiltFleet)
{
    ScenarioSpec spec;
    spec.name = "golden-cluster";
    spec.topology = "cluster";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 40;
    spec.window = 10;
    spec.seed = 5;
    spec.nodes = 2;
    spec.hetero = false;
    spec.policy = "static";
    const auto engine_run = Engine().run(spec);
    EXPECT_TRUE(engine_run.cluster);

    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    cluster::ClusterConfig cfg;
    cfg.router.policy = cluster::RoutingPolicy::Static;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    // Two full-size nodes: fleet capacity is 2x one reference node.
    loads.push_back(std::make_unique<sim::FixedLoad>(
        profile.maxLoadRps * 2.0, 0.5));
    cluster::ClusterManager fleet(cfg, {profile}, std::move(loads), 5);
    for (std::size_t n = 0; n < 2; ++n) {
        fleet.addNode(
            machine,
            [](const sim::MachineConfig &m,
               const std::vector<sim::ServiceProfile> &,
               std::uint64_t) -> std::unique_ptr<core::TaskManager> {
                return std::make_unique<baselines::StaticManager>(m);
            });
    }
    const auto direct = fleet.run(40, 10);

    EXPECT_DOUBLE_EQ(engine_run.fleet.metrics.energyJoules,
                     direct.metrics.energyJoules);
    EXPECT_DOUBLE_EQ(engine_run.fleet.metrics.meanPowerW,
                     direct.metrics.meanPowerW);
    ASSERT_EQ(engine_run.fleet.metrics.windowP99Ms.size(), 1u);
    EXPECT_DOUBLE_EQ(engine_run.fleet.metrics.windowP99Ms[0],
                     direct.metrics.windowP99Ms[0]);

    // Determinism: the same spec reproduces the same metrics.
    const auto again = Engine().run(spec);
    EXPECT_DOUBLE_EQ(again.fleet.metrics.energyJoules,
                     engine_run.fleet.metrics.energyJoules);
}

TEST(Engine, SinksSeeEveryMeasuredStepInOrder)
{
    class CountingSink : public RecordSink
    {
      public:
        void
        begin(const ScenarioSpec &,
              const std::vector<sim::ServiceProfile> &profiles) override
        {
            beginCalls++;
            services = profiles.size();
        }
        void
        record(const StepRecord &rec) override
        {
            EXPECT_EQ(rec.step, steps); // strictly ordered from 0
            EXPECT_EQ(rec.p99Ms.size(), services);
            EXPECT_EQ(rec.cores.size(), services);
            steps++;
        }
        void end() override { endCalls++; }

        std::size_t beginCalls = 0, endCalls = 0, steps = 0;
        std::size_t services = 0;
    };

    ScenarioSpec spec;
    spec.name = "sink-order";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.5;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 25;
    spec.window = 10;
    spec.seed = 3;

    CountingSink sink;
    EngineOptions opts;
    opts.sinks.push_back(&sink);
    Engine(opts).run(spec);
    EXPECT_EQ(sink.beginCalls, 1u);
    EXPECT_EQ(sink.endCalls, 1u);
    EXPECT_EQ(sink.steps, 25u);
}

TEST(Engine, SinksSeeEachIntervalAsItRuns)
{
    // A manager that counts its decisions (the initial requests
    // included) and asks for a different core count each time. Each
    // record arrives while its interval is current: after exactly
    // step + 1 decisions, with the cores that interval was mapped
    // with.
    class CountingManager : public core::TaskManager
    {
      public:
        std::string name() const override { return "counting"; }
        void
        decideInto(const sim::ServerIntervalStats &,
                   std::vector<core::ResourceRequest> &out) override
        {
            out.assign(1, request());
        }
        std::vector<core::ResourceRequest>
        initialRequests(std::size_t num_services,
                        const sim::MachineConfig &) const override
        {
            return std::vector<core::ResourceRequest>(num_services,
                                                      request());
        }
        /** Decision k asks for 1 + k % 18 cores at the top DVFS state. */
        static std::size_t coresOf(std::size_t k) { return 1 + k % 18; }

        mutable std::size_t decisions = 0;

      private:
        core::ResourceRequest
        request() const
        {
            return {coresOf(decisions++), sim::DvfsLadder{}.maxIndex()};
        }
    };
    class LiveSink : public RecordSink
    {
      public:
        explicit LiveSink(const CountingManager &m) : manager(m) {}
        void
        record(const StepRecord &rec) override
        {
            EXPECT_EQ(manager.decisions, rec.step + 1) << rec.step;
            ASSERT_EQ(rec.cores.size(), 1u);
            EXPECT_EQ(rec.cores[0], CountingManager::coresOf(rec.step))
                << rec.step;
            ++records;
        }

        const CountingManager &manager;
        std::size_t records = 0;
    };

    ScenarioSpec spec;
    spec.name = "sink-live";
    ServiceLoadSpec svc;
    svc.service = "masstree";
    svc.fraction = 0.3;
    spec.services.push_back(svc);
    spec.manager = "static";
    spec.steps = 30;
    spec.window = 10;
    spec.seed = 5;

    CountingManager manager;
    LiveSink sink(manager);
    EngineOptions opts;
    opts.managerOverride = &manager;
    opts.sinks.push_back(&sink);
    const auto result = Engine(opts).run(spec);
    EXPECT_EQ(sink.records, 30u);
    EXPECT_EQ(manager.decisions, 31u);
    EXPECT_TRUE(result.single.trace.empty()); // kept only on request
}

TEST(Engine, InvalidSpecIsFatal)
{
    ScenarioSpec spec; // no services
    EXPECT_THROW(Engine().run(spec), common::FatalError);
}
