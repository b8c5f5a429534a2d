/** @file Unit tests for elastic fleet sizing (src/autoscale/) and its
 * ClusterManager integration: decision rule, node classes, billing,
 * the drain protocol, slot lifecycle under faults and the warm-spawn
 * path. */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "autoscale/cost_model.hh"
#include "autoscale/node_class.hh"
#include "baselines/static_manager.hh"
#include "cluster/cluster_manager.hh"
#include "cluster/router.hh"
#include "common/error.hh"
#include "common/json.hh"
#include "core/twig_manager.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_spec.hh"
#include "harness/engine.hh"
#include "harness/registry.hh"
#include "harness/scenario.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"

using namespace twig;
using namespace twig::autoscale;
using twig::common::FatalError;

namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/** One routeInto call, returning the shares. */
std::vector<std::vector<double>>
route(cluster::Router &router, const std::vector<double> &fleet_rps,
      const std::vector<double> &weights,
      const cluster::RouterFeedback &feedback)
{
    std::vector<std::vector<double>> out;
    router.routeInto(fleet_rps, weights, feedback, out);
    return out;
}

AutoscaleConfig
validConfig()
{
    AutoscaleConfig cfg;
    cfg.minNodes = 1;
    cfg.maxNodes = 4;
    cfg.hiUtilization = 0.6;
    cfg.loUtilization = 0.4;
    cfg.persistIntervals = 1;
    cfg.cooldownIntervals = 1;
    cfg.drainIntervals = 2;
    return cfg;
}

/** A signal whose utilisation is exactly @p util with @p serving of
 * @p max slots active (homogeneous capacity weights). */
struct SignalFixture
{
    std::vector<double> offered;
    std::vector<double> rated{1000.0};
    std::vector<double> trailing;
    std::vector<double> qos{10.0};
    FleetSignal sig;

    SignalFixture(double util, std::size_t serving, std::size_t max,
                  std::size_t draining = 0)
    {
        const double frac =
            static_cast<double>(serving) / static_cast<double>(max);
        offered = {util * rated[0] * frac};
        sig.serving = serving;
        sig.draining = draining;
        sig.standby = max - serving - draining;
        sig.servingCapacityFraction = frac;
        sig.capacityFractionAfterScaleIn =
            static_cast<double>(serving - 1) / static_cast<double>(max);
        sig.offeredRps = &offered;
        sig.ratedRps = &rated;
        sig.qosTargetsMs = &qos;
    }

    void
    setTrailingP99(double p99_ms)
    {
        trailing = {p99_ms};
        sig.trailingP99Ms = &trailing;
    }
};

} // namespace

// ---------------------------------------------------------------------
// AutoscaleConfig validation + JSON
// ---------------------------------------------------------------------

TEST(AutoscaleConfig, ValidatesStructure)
{
    EXPECT_EQ(validConfig().validate(), "");

    auto bad = validConfig();
    bad.minNodes = 0;
    EXPECT_NE(bad.validate(), "");

    bad = validConfig();
    bad.minNodes = 5; // > maxNodes 4
    EXPECT_NE(bad.validate(), "");

    bad = validConfig();
    bad.cooldownIntervals = 0;
    EXPECT_NE(bad.validate(), "");

    bad = validConfig();
    bad.persistIntervals = 0;
    EXPECT_NE(bad.validate(), "");

    bad = validConfig();
    bad.outStepNodes = 0;
    EXPECT_NE(bad.validate(), "");

    bad = validConfig();
    bad.drainIntervals = 0;
    EXPECT_NE(bad.validate(), "");

    bad = validConfig();
    bad.hiUtilization = 1.5;
    EXPECT_NE(bad.validate(), "");

    // The hysteresis bands may not overlap or invert.
    bad = validConfig();
    bad.loUtilization = bad.hiUtilization;
    EXPECT_NE(bad.validate(), "");

    bad = validConfig();
    bad.outTardiness = 0.0;
    EXPECT_NE(bad.validate(), "");

    EXPECT_THROW(Autoscaler{bad}, FatalError);
}

namespace {

/** Field-by-field equality of two autoscale blocks. */
void
expectSameConfig(const AutoscaleConfig &got, const AutoscaleConfig &want)
{
    EXPECT_EQ(got.minNodes, want.minNodes);
    EXPECT_EQ(got.maxNodes, want.maxNodes);
    EXPECT_EQ(got.hiUtilization, want.hiUtilization);
    EXPECT_EQ(got.loUtilization, want.loUtilization);
    EXPECT_EQ(got.outTardiness, want.outTardiness);
    EXPECT_EQ(got.persistIntervals, want.persistIntervals);
    EXPECT_EQ(got.cooldownIntervals, want.cooldownIntervals);
    EXPECT_EQ(got.outStepNodes, want.outStepNodes);
    EXPECT_EQ(got.inStepNodes, want.inStepNodes);
    EXPECT_EQ(got.drainIntervals, want.drainIntervals);
}

} // namespace

TEST(AutoscaleConfig, JsonRoundTripsAndOmitsDefaults)
{
    AutoscaleConfig cfg;
    cfg.minNodes = 2;
    cfg.maxNodes = 6;
    // Keys left out keep their defaults.
    expectSameConfig(
        AutoscaleConfig::fromJson(
            common::Json::parse(R"({"min_nodes": 2, "max_nodes": 6})")),
        cfg);

    cfg.hiUtilization = 0.62;
    cfg.loUtilization = 0.4;
    cfg.outTardiness = 1.3;
    cfg.persistIntervals = 3;
    cfg.cooldownIntervals = 7;
    cfg.outStepNodes = 3;
    cfg.inStepNodes = 2;
    cfg.drainIntervals = 5;
    expectSameConfig(AutoscaleConfig::fromJson(common::Json::parse(R"({
      "min_nodes": 2, "max_nodes": 6, "hi_utilization": 0.62,
      "lo_utilization": 0.4, "out_tardiness": 1.3, "persist": 3,
      "cooldown": 7, "out_step": 3, "in_step": 2, "drain": 5
    })")),
                     cfg);
}

// ---------------------------------------------------------------------
// Decision rule
// ---------------------------------------------------------------------

TEST(Autoscaler, ScalesOutWhenUtilizationExceedsHiBand)
{
    auto cfg = validConfig();
    cfg.persistIntervals = 2;
    Autoscaler scaler(cfg);

    SignalFixture hot(0.8, 2, 4);
    // First interval only starts the streak.
    EXPECT_EQ(scaler.decide(hot.sig).kind, ScaleDecision::Kind::None);
    const auto d = scaler.decide(hot.sig);
    EXPECT_EQ(d.kind, ScaleDecision::Kind::Out);
    EXPECT_EQ(d.count, 1u);
    EXPECT_NEAR(d.utilization, 0.8, 1e-12);
}

TEST(Autoscaler, HoldsInsideTheHysteresisGap)
{
    Autoscaler scaler(validConfig());
    // Between lo (0.4 post-retirement) and hi (0.6): no action, ever.
    SignalFixture mid(0.55, 2, 4);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(scaler.decide(mid.sig).kind,
                  ScaleDecision::Kind::None);
}

TEST(Autoscaler, ScaleOutNeedsAStandbySlot)
{
    Autoscaler scaler(validConfig());
    SignalFixture hot(0.9, 4, 4); // fully scaled out already
    EXPECT_EQ(scaler.decide(hot.sig).kind, ScaleDecision::Kind::None);
}

TEST(Autoscaler, ScalesInAgainstPostRetirementUtilization)
{
    Autoscaler scaler(validConfig());
    // 0.2 at 3-of-4 serving; after retiring one: 0.2 * 3/2 = 0.3 < lo.
    SignalFixture cold(0.2, 3, 4);
    const auto d = scaler.decide(cold.sig);
    EXPECT_EQ(d.kind, ScaleDecision::Kind::In);
    EXPECT_EQ(d.count, 1u);

    // 0.35 at 3-of-4: post-retirement 0.525 >= lo — retiring would
    // immediately re-trip the hi band, so the scaler must hold.
    Autoscaler scaler2(validConfig());
    SignalFixture warmish(0.35, 3, 4);
    EXPECT_EQ(scaler2.decide(warmish.sig).kind,
              ScaleDecision::Kind::None);
}

TEST(Autoscaler, NeverDropsBelowMinNodes)
{
    auto cfg = validConfig();
    cfg.minNodes = 2;
    Autoscaler scaler(cfg);
    SignalFixture cold(0.05, 2, 4);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(scaler.decide(cold.sig).kind,
                  ScaleDecision::Kind::None);
}

TEST(Autoscaler, TardinessForcesScaleOutAndVetoesScaleIn)
{
    auto cfg = validConfig();
    cfg.outTardiness = 1.2;
    Autoscaler scaler(cfg);

    // Utilisation looks idle, but the measured tail is blown: the
    // override fires a scale-out anyway (mis-rated class, interference).
    SignalFixture lying(0.1, 2, 4);
    lying.setTrailingP99(15.0); // 1.5x the 10 ms target
    const auto d = scaler.decide(lying.sig);
    EXPECT_EQ(d.kind, ScaleDecision::Kind::Out);
    EXPECT_NEAR(d.tardiness, 1.5, 1e-12);

    // Tardiness just above 1 does not force an out, but vetoes the in
    // that the idle utilisation would otherwise take.
    Autoscaler scaler2(cfg);
    SignalFixture tail(0.1, 2, 4);
    tail.setTrailingP99(11.0);
    cfg.minNodes = 1;
    EXPECT_EQ(scaler2.decide(tail.sig).kind, ScaleDecision::Kind::None);
}

TEST(Autoscaler, CooldownBlocksThenExpires)
{
    auto cfg = validConfig();
    cfg.cooldownIntervals = 3;
    Autoscaler scaler(cfg);

    SignalFixture hot(0.9, 2, 4);
    EXPECT_EQ(scaler.decide(hot.sig).kind, ScaleDecision::Kind::Out);
    // Condition persists straight through the cooldown...
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(scaler.decide(hot.sig).kind,
                  ScaleDecision::Kind::None);
    // ...and fires the moment it expires.
    EXPECT_EQ(scaler.decide(hot.sig).kind, ScaleDecision::Kind::Out);
}

TEST(Autoscaler, OutStepIsClampedToStandby)
{
    auto cfg = validConfig();
    cfg.outStepNodes = 3;
    Autoscaler scaler(cfg);
    SignalFixture hot(0.9, 3, 4); // one standby slot left
    const auto d = scaler.decide(hot.sig);
    EXPECT_EQ(d.kind, ScaleDecision::Kind::Out);
    EXPECT_EQ(d.count, 1u);
}

TEST(Autoscaler, WorstSignalHelpers)
{
    FleetSignal empty;
    EXPECT_DOUBLE_EQ(Autoscaler::worstUtilization(empty, 1.0), 0.0);
    EXPECT_DOUBLE_EQ(Autoscaler::worstTardiness(empty), 0.0);

    const std::vector<double> offered{100.0, 450.0};
    const std::vector<double> rated{1000.0, 500.0};
    const std::vector<double> p99{5.0, 30.0};
    const std::vector<double> qos{10.0, 20.0};
    FleetSignal sig;
    sig.offeredRps = &offered;
    sig.ratedRps = &rated;
    sig.trailingP99Ms = &p99;
    sig.qosTargetsMs = &qos;
    // Worst service wins: 450/500 = 0.9 over 100/1000 = 0.1.
    EXPECT_NEAR(Autoscaler::worstUtilization(sig, 1.0), 0.9, 1e-12);
    EXPECT_NEAR(Autoscaler::worstUtilization(sig, 0.5), 1.8, 1e-12);
    // 30/20 = 1.5 over 5/10 = 0.5.
    EXPECT_NEAR(Autoscaler::worstTardiness(sig), 1.5, 1e-12);
}

// ---------------------------------------------------------------------
// Node classes
// ---------------------------------------------------------------------

TEST(NodeClass, BuiltinCatalogue)
{
    const auto &catalogue = builtinNodeClasses();
    ASSERT_EQ(catalogue.size(), 4u);
    for (const auto &cls : catalogue)
        EXPECT_EQ(cls.validate(), "");
    EXPECT_TRUE(isBuiltinNodeClass("std18"));
    EXPECT_TRUE(isBuiltinNodeClass("little6"));
    EXPECT_TRUE(isBuiltinNodeClass("gen1"));
    EXPECT_TRUE(isBuiltinNodeClass("gen2"));
    EXPECT_FALSE(isBuiltinNodeClass("quantum9"));

    // The reference class is exactly one capacity unit; the others
    // scale by cores x peak GHz x rate scale.
    const double ref = sim::MachineConfig{}.capacity();
    const NodeClass *std18 = findNodeClass({}, "std18");
    ASSERT_NE(std18, nullptr);
    EXPECT_DOUBLE_EQ(std18->machine().capacity() / ref, 1.0);
    const NodeClass *gen2 = findNodeClass({}, "gen2");
    ASSERT_NE(gen2, nullptr);
    EXPECT_DOUBLE_EQ(gen2->machine().capacity() / ref, 1.25);
    const NodeClass *little6 = findNodeClass({}, "little6");
    ASSERT_NE(little6, nullptr);
    EXPECT_LT(little6->machine().capacity() / ref, 0.5);
    EXPECT_EQ(little6->machine().numCores, 6u);
}

TEST(NodeClass, SpecClassesShadowNothingAndWinLookups)
{
    NodeClass custom;
    custom.id = "fat32";
    custom.cores = 32;
    const std::vector<NodeClass> classes{custom};
    const NodeClass *hit = findNodeClass(classes, "fat32");
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->cores, 32u);
    // Builtins still resolve through the same lookup.
    EXPECT_NE(findNodeClass(classes, "gen1"), nullptr);
    EXPECT_EQ(findNodeClass(classes, "absent"), nullptr);
}

TEST(NodeClass, ValidatesStructure)
{
    NodeClass cls;
    cls.id = "x";
    EXPECT_EQ(cls.validate(), "");
    cls.id = "";
    EXPECT_NE(cls.validate(), "");
    cls.id = "x";
    cls.cores = 0;
    EXPECT_NE(cls.validate(), "");
    cls = NodeClass{};
    cls.id = "x";
    cls.serviceRateScale = 0.0;
    EXPECT_NE(cls.validate(), "");
    cls = NodeClass{};
    cls.id = "x";
    cls.dollarsPerHour = -0.1;
    EXPECT_NE(cls.validate(), "");
    cls = NodeClass{};
    cls.id = "x";
    cls.dvfs.minGhz = 2.5; // > maxGhz
    EXPECT_NE(cls.validate(), "");
}

namespace {

/** Field-by-field equality of two node classes. */
void
expectSameClass(const NodeClass &got, const NodeClass &want)
{
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.cores, want.cores);
    EXPECT_EQ(got.dvfs.minGhz, want.dvfs.minGhz);
    EXPECT_EQ(got.dvfs.maxGhz, want.dvfs.maxGhz);
    EXPECT_EQ(got.dvfs.stepGhz, want.dvfs.stepGhz);
    EXPECT_EQ(got.serviceRateScale, want.serviceRateScale);
    EXPECT_EQ(got.dollarsPerHour, want.dollarsPerHour);
}

} // namespace

TEST(NodeClass, JsonRoundTrip)
{
    NodeClass cls;
    cls.id = "gen3";
    cls.dvfs.maxGhz = 2.4;
    // Keys left out keep their defaults, in the dvfs block too.
    expectSameClass(NodeClass::fromJson(common::Json::parse(
                        R"({"id": "gen3", "dvfs": {"max_ghz": 2.4}})")),
                    cls);

    cls.cores = 24;
    cls.dvfs.minGhz = 1.4;
    cls.dvfs.stepGhz = 0.2;
    cls.serviceRateScale = 1.4;
    cls.dollarsPerHour = 1.6;
    expectSameClass(NodeClass::fromJson(common::Json::parse(R"({
      "id": "gen3", "cores": 24,
      "dvfs": {"min_ghz": 1.4, "max_ghz": 2.4, "step_ghz": 0.2},
      "service_rate_scale": 1.4, "dollars_per_hour": 1.6
    })")),
                    cls);
}

// ---------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------

TEST(CostModel, BillsPoweredSlotsByTheHour)
{
    CostModel model({1.0, 0.5, 2.0});
    EXPECT_EQ(model.numNodes(), 3u);
    EXPECT_DOUBLE_EQ(model.nodeRate(1), 0.5);
    EXPECT_DOUBLE_EQ(model.totalDollars(), 0.0);

    // One full hour with the middle slot parked: $1 + $2.
    const double added = model.chargeInterval({1, 0, 1}, 3600.0);
    EXPECT_DOUBLE_EQ(added, 3.0);
    EXPECT_DOUBLE_EQ(model.totalDollars(), 3.0);

    // One second, everything powered: (1 + 0.5 + 2) / 3600.
    model.chargeInterval({1, 1, 1}, 1.0);
    EXPECT_NEAR(model.totalDollars(), 3.0 + 3.5 / 3600.0, 1e-12);
}

// ---------------------------------------------------------------------
// Router drain protocol (the scale-in primitive)
// ---------------------------------------------------------------------

TEST(RouterDrain, DrainingNodeGetsNoNewLoad)
{
    // A draining slot routes at weight 0: no new load, and the other
    // nodes absorb its share.
    cluster::RouterConfig cfg;
    cfg.policy = cluster::RoutingPolicy::WeightedRoundRobin;
    cluster::Router router(cfg, 7);
    const std::vector<double> rps{900.0};

    const auto shares = route(router, rps, {1.0, 0.0, 1.0}, {});
    EXPECT_DOUBLE_EQ(shares[1][0], 0.0);
    EXPECT_NEAR(shares[0][0] + shares[2][0], 900.0, 1e-9);

    const auto after = route(router, rps, {1.0, 1.0, 1.0}, {});
    EXPECT_GT(after[1][0], 0.0);
}

// ---------------------------------------------------------------------
// ClusterManager integration
// ---------------------------------------------------------------------

namespace {

cluster::ClusterManager::ManagerFactory
staticNodes()
{
    return [](const sim::MachineConfig &machine,
              const std::vector<sim::ServiceProfile> &,
              std::uint64_t) -> std::unique_ptr<core::TaskManager> {
        return std::make_unique<baselines::StaticManager>(machine);
    };
}

/** Replays a per-step RPS script (last value held). */
class ScriptedLoad : public sim::LoadGenerator
{
  public:
    explicit ScriptedLoad(std::vector<double> rps) : rps_(std::move(rps))
    {
    }

    double
    rps(std::size_t step) const override
    {
        return rps_[std::min(step, rps_.size() - 1)];
    }

  private:
    std::vector<double> rps_;
};

/** A 4-slot masstree fleet with an elastic 1..4 autoscaler and a
 * scripted fleet load (fractions of the full 4-node rated RPS). A
 * non-empty @p faults schedule is armed before the autoscaler. */
cluster::ClusterManager
makeElasticFleet(const std::vector<double> &fractions,
                 const AutoscaleConfig &cfg, std::size_t initial,
                 const faults::FaultSpec &faults = {})
{
    const auto masstree = services::masstree();
    const double rated = masstree.maxLoadRps * 4.0;
    cluster::ClusterConfig ccfg;
    ccfg.router.policy = cluster::RoutingPolicy::WeightedRoundRobin;
    std::vector<double> script;
    for (const double f : fractions)
        script.push_back(f * rated);
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(std::make_unique<ScriptedLoad>(std::move(script)));
    cluster::ClusterManager fleet(ccfg, {masstree}, std::move(loads),
                                  42);
    for (std::size_t n = 0; n < 4; ++n)
        fleet.addNode(sim::MachineConfig{}, staticNodes());
    if (!faults.actions.empty())
        fleet.slots().setFaults(faults);
    fleet.slots().setAutoscaler(cfg, {rated}, {}, initial);
    return fleet;
}

faults::FaultAction
crashAction(std::size_t at, std::size_t node, std::size_t restart_after)
{
    faults::FaultAction a;
    a.kind = faults::FaultKind::NodeCrash;
    a.atStep = at;
    a.node = node;
    a.restartAfterSteps = restart_after;
    a.recovery = "cold";
    return a;
}

std::size_t
countFaultEvents(const std::vector<faults::FaultEvent> &events,
                 faults::FaultEventKind kind)
{
    return static_cast<std::size_t>(
        std::count_if(events.begin(), events.end(),
                      [kind](const auto &ev) { return ev.kind == kind; }));
}

/** Every scale event of @p result, in application order. */
std::vector<cluster::ScaleEvent>
scaleEventsOf(const cluster::FleetRunResult &result)
{
    std::vector<cluster::ScaleEvent> log;
    for (const auto &fs : result.trace)
        log.insert(log.end(), fs.scaleEvents.begin(), fs.scaleEvents.end());
    return log;
}

/** Every fault event of @p result, in application order. */
std::vector<faults::FaultEvent>
faultEventsOf(const cluster::FleetRunResult &result)
{
    std::vector<faults::FaultEvent> log;
    for (const auto &fs : result.trace)
        log.insert(log.end(), fs.faultEvents.begin(), fs.faultEvents.end());
    return log;
}

std::size_t
countKind(const std::vector<cluster::ScaleEvent> &log,
          cluster::ScaleEvent::Kind kind)
{
    return static_cast<std::size_t>(
        std::count_if(log.begin(), log.end(), [kind](const auto &ev) {
            return ev.kind == kind;
        }));
}

} // namespace

TEST(ClusterAutoscale, StandbySlotsStartParkedAndUnbilled)
{
    auto cfg = validConfig();
    auto fleet = makeElasticFleet({0.2}, cfg, 2);
    const auto &stats = fleet.step();
    EXPECT_EQ(stats.servingNodes, 2u);
    EXPECT_EQ(stats.drainingNodes, 0u);
    EXPECT_EQ(stats.nodeUp[2], 0u);
    EXPECT_EQ(stats.nodeUp[3], 0u);
    // Two slots at $1/h for one machine interval.
    const double interval_s =
        fleet.node(0).machine().intervalSeconds;
    EXPECT_NEAR(fleet.slots().costDollars(), 2.0 * interval_s / 3600.0, 1e-12);
}

TEST(ClusterAutoscale, ScalesOutLowestStandbyFirstUnderLoad)
{
    auto cfg = validConfig();
    auto fleet = makeElasticFleet({0.8}, cfg, 2);
    const auto log = scaleEventsOf(fleet.run(8, 2));
    ASSERT_GE(countKind(log, cluster::ScaleEvent::Kind::ScaleOut), 2u);
    // Victim selection is positional: slot 2 activates before slot 3.
    std::vector<std::size_t> activated;
    for (const auto &ev : log)
        if (ev.kind == cluster::ScaleEvent::Kind::ScaleOut)
            activated.push_back(ev.node);
    EXPECT_EQ(activated[0], 2u);
    EXPECT_EQ(activated[1], 3u);
}

TEST(ClusterAutoscale, ScaleInDrainsThenRetiresHighestFirst)
{
    auto cfg = validConfig();
    cfg.drainIntervals = 2;
    auto fleet = makeElasticFleet({0.1}, cfg, 3);
    std::vector<cluster::FleetIntervalStats> trace;
    const auto result = fleet.run(
        10, 2, [&trace](std::size_t, const cluster::FleetIntervalStats &s) {
            trace.push_back(s);
        });
    const auto log = scaleEventsOf(result);
    ASSERT_GE(countKind(log, cluster::ScaleEvent::Kind::DrainStart), 1u);
    ASSERT_GE(countKind(log, cluster::ScaleEvent::Kind::Retire), 1u);
    // Highest-indexed serving slot drains first.
    const auto drain = std::find_if(
        log.begin(), log.end(), [](const auto &ev) {
            return ev.kind == cluster::ScaleEvent::Kind::DrainStart;
        });
    EXPECT_EQ(drain->node, 2u);
    const auto retire = std::find_if(
        log.begin(), log.end(), [](const auto &ev) {
            return ev.kind == cluster::ScaleEvent::Kind::Retire;
        });
    EXPECT_EQ(retire->node, 2u);
    // The drain window separates the two actions and keeps the slot
    // powered (draining, billed) the whole way.
    EXPECT_EQ(retire->step, drain->step + cfg.drainIntervals);
    for (std::size_t t = drain->step; t < retire->step; ++t) {
        EXPECT_EQ(trace[t].drainingNodes, 1u);
        EXPECT_EQ(trace[t].nodeUp[2], 1u);
    }
    EXPECT_EQ(trace[retire->step].nodeUp[2], 0u);
}

TEST(ClusterAutoscale, BillMatchesPoweredSlotSeconds)
{
    auto cfg = validConfig();
    auto fleet = makeElasticFleet({0.1}, cfg, 3);
    const double interval_s =
        fleet.node(0).machine().intervalSeconds;
    double expected = 0.0;
    const auto result = fleet.run(
        12, 2,
        [&expected, interval_s](std::size_t,
                                const cluster::FleetIntervalStats &s) {
            std::size_t powered = 0;
            for (const auto up : s.nodeUp)
                powered += up != 0 ? 1 : 0;
            expected +=
                static_cast<double>(powered) * interval_s / 3600.0;
        });
    EXPECT_NEAR(fleet.slots().costDollars(), expected, 1e-9);
    EXPECT_DOUBLE_EQ(result.metrics.costDollars, fleet.slots().costDollars());
    // The elastic bill must undercut always-on max provisioning.
    EXPECT_LT(fleet.slots().costDollars(), 4.0 * 12.0 * interval_s / 3600.0);
}

TEST(ClusterAutoscale, SetupOrderingAndShapeAreEnforced)
{
    const auto masstree = services::masstree();
    auto make_fleet = [&](std::size_t slots) {
        cluster::ClusterConfig ccfg;
        std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
        loads.push_back(
            std::make_unique<sim::FixedLoad>(masstree.maxLoadRps, 0.5));
        cluster::ClusterManager fleet(ccfg, {masstree},
                                      std::move(loads), 42);
        for (std::size_t n = 0; n < slots; ++n)
            fleet.addNode(sim::MachineConfig{}, staticNodes());
        return fleet;
    };

    // maxNodes must equal the provisioned slot count.
    auto short_fleet = make_fleet(2);
    EXPECT_THROW(
        short_fleet.slots().setAutoscaler(validConfig(), {100.0}, {}, 1),
        FatalError);

    // initial_active outside [min, max].
    auto fleet = make_fleet(4);
    EXPECT_THROW(fleet.slots().setAutoscaler(validConfig(), {100.0}, {}, 5),
                 FatalError);

    // One rated entry per service.
    auto fleet2 = make_fleet(4);
    EXPECT_THROW(
        fleet2.slots().setAutoscaler(validConfig(), {100.0, 50.0}, {}, 2),
        FatalError);

    // Faults may arm after the autoscaler: the schedule holds no slot
    // lifecycle, so the standby slots stay parked. (Rated for 4x the
    // offered load, the two active slots sit inside the hysteresis
    // band and nothing scales.)
    auto fleet3 = make_fleet(4);
    fleet3.slots().setAutoscaler(validConfig(), {4.0 * masstree.maxLoadRps}, {},
                         2);
    faults::FaultSpec faults;
    faults::FaultAction surge;
    surge.kind = faults::FaultKind::LoadSurge;
    surge.atStep = 1;
    surge.durationSteps = 1;
    surge.multiplier = 2.0;
    faults.actions.push_back(surge);
    fleet3.slots().setFaults(faults);
    const auto &parked = fleet3.step();
    EXPECT_TRUE(parked.scaleEvents.empty());
    EXPECT_EQ(parked.nodeUp, (std::vector<std::uint8_t>{1, 1, 0, 0}));
    EXPECT_EQ(parked.servingNodes, 2u);

    // A static fleet can bill without an autoscaler, but not both ways.
    auto fleet4 = make_fleet(4);
    fleet4.slots().setAutoscaler(validConfig(), {100.0}, {}, 2);
    EXPECT_THROW(fleet4.slots().setCostModel({}), FatalError);
}

// ---------------------------------------------------------------------
// Slot lifecycle under node faults: a crash or restart never changes a
// slot's elastic state, and a crashed slot is neither serving nor
// activatable.
// ---------------------------------------------------------------------

TEST(ClusterAutoscale, CrashAndRestartOfAStandbySlotKeepsItParked)
{
    // A 2..4 fleet holding at 2 active slots (utilisation 0.5, inside
    // the hysteresis band); standby slot 3 crashes at step 5 and its
    // process restarts at step 8. The slot stays parked throughout.
    auto cfg = validConfig();
    cfg.minNodes = 2;
    faults::FaultSpec faults;
    faults.actions.push_back(crashAction(5, 3, 3));
    auto fleet = makeElasticFleet({0.25}, cfg, 2, faults);
    const auto result = fleet.run(12, 4);

    EXPECT_TRUE(scaleEventsOf(result).empty());
    EXPECT_EQ(countFaultEvents(faultEventsOf(result),
                               faults::FaultEventKind::NodeRestart),
              1u);
    for (std::size_t t = 0; t < 12; ++t) {
        const auto &fs = result.trace[t];
        EXPECT_EQ(fs.servingNodes, 2u) << "step " << t;
        EXPECT_EQ(fs.nodeUp[3], 0u) << "step " << t;
    }
    EXPECT_FALSE(fleet.slots().isNodeUp(3));
    // Billed as two slots for every interval.
    const double interval_s = fleet.node(0).machine().intervalSeconds;
    EXPECT_NEAR(fleet.slots().costDollars(), 2.0 * 12.0 * interval_s / 3600.0,
                1e-12);
}

TEST(ClusterAutoscale, SlotCrashedWhileDrainingStaysStandbyAfterRestart)
{
    // Light load drains slot 2 at step 0 (retiring at step 2); it
    // crashes at step 1, mid-drain, and its process restarts at step
    // 5 — after the retirement, so it comes back parked.
    auto cfg = validConfig();
    cfg.drainIntervals = 2;
    faults::FaultSpec faults;
    faults.actions.push_back(crashAction(1, 2, 4));
    auto fleet = makeElasticFleet({0.1}, cfg, 3, faults);
    const auto result = fleet.run(10, 2);

    const auto log = scaleEventsOf(result);
    ASSERT_FALSE(log.empty());
    ASSERT_EQ(log[0].kind, cluster::ScaleEvent::Kind::DrainStart);
    ASSERT_EQ(log[0].node, 2u);
    ASSERT_EQ(log[0].step, 0u);
    EXPECT_EQ(countFaultEvents(faultEventsOf(result),
                               faults::FaultEventKind::NodeRestart),
              1u);
    for (const auto &ev : log) {
        if (ev.node == 2) {
            EXPECT_NE(ev.kind, cluster::ScaleEvent::Kind::ScaleOut);
        }
    }
    for (std::size_t t = 1; t < 10; ++t)
        EXPECT_EQ(result.trace[t].nodeUp[2], 0u) << "step " << t;
    EXPECT_FALSE(fleet.slots().isNodeUp(2));
}

TEST(ClusterAutoscale, ScaleOutSkipsACrashedStandbySlot)
{
    // Standby slot 2 crashes at step 0 (no restart); heavy load then
    // scales out, and the first activation must skip it for slot 3.
    auto cfg = validConfig();
    faults::FaultSpec faults;
    faults.actions.push_back(crashAction(0, 2, 0));
    auto fleet = makeElasticFleet({0.8}, cfg, 2, faults);
    const auto result = fleet.run(8, 2);

    std::vector<std::size_t> activated;
    for (const auto &ev : scaleEventsOf(result))
        if (ev.kind == cluster::ScaleEvent::Kind::ScaleOut)
            activated.push_back(ev.node);
    ASSERT_FALSE(activated.empty());
    EXPECT_EQ(activated[0], 3u);
    EXPECT_EQ(std::count(activated.begin(), activated.end(), 2u), 0);
    for (std::size_t t = 0; t < 8; ++t)
        EXPECT_EQ(result.trace[t].nodeUp[2], 0u) << "step " << t;
}

TEST(RouterDrain, AllDrainingRoutesZeroWithoutShed)
{
    // Slot 1 drains at step 0 and slot 0 crashes at step 1, so steps
    // 1-2 run a fleet that is powered but entirely draining: no new
    // load anywhere, and no shed — nothing was refused. Slot 1
    // retires at step 3, leaving no powered slot: that interval's
    // load is shed (the cooldown keeps the autoscaler out of it).
    auto cfg = validConfig();
    cfg.cooldownIntervals = 10;
    cfg.drainIntervals = 3;
    faults::FaultSpec faults;
    faults.actions.push_back(crashAction(1, 0, 0));
    auto fleet = makeElasticFleet({0.05}, cfg, 2, faults);
    std::vector<double> slot1_rps; // slot 1's offered load per interval
    const auto result =
        fleet.run(5, 1, [&](std::size_t, const cluster::FleetIntervalStats &) {
            slot1_rps.push_back(
                fleet.node(1).lastStats().services[0].offeredRps);
        });

    const auto log = scaleEventsOf(result);
    ASSERT_EQ(log.size(), 2u);
    ASSERT_EQ(log[0].kind, cluster::ScaleEvent::Kind::DrainStart);
    ASSERT_EQ(log[0].node, 1u);
    for (std::size_t t = 1; t < 3; ++t) {
        const auto &fs = result.trace[t];
        EXPECT_EQ(fs.servingNodes, 0u) << "step " << t;
        EXPECT_EQ(fs.drainingNodes, 1u) << "step " << t;
        EXPECT_EQ(fs.nodeUp, (std::vector<std::uint8_t>{0, 1, 0, 0}))
            << "step " << t;
        EXPECT_DOUBLE_EQ(slot1_rps[t], 0.0) << "step " << t;
        EXPECT_DOUBLE_EQ(fs.shedRps, 0.0) << "step " << t;
        EXPECT_EQ(countFaultEvents(fs.faultEvents,
                                   faults::FaultEventKind::LoadShed),
                  0u)
            << "step " << t;
    }
    for (std::size_t t = 3; t < 5; ++t) {
        const auto &fs = result.trace[t];
        EXPECT_EQ(fs.nodeUp, (std::vector<std::uint8_t>{0, 0, 0, 0}))
            << "step " << t;
        EXPECT_GT(fs.shedRps, 0.0) << "step " << t;
        EXPECT_DOUBLE_EQ(fs.shedRps, fs.offeredRps[0]) << "step " << t;
        EXPECT_EQ(countFaultEvents(fs.faultEvents,
                                   faults::FaultEventKind::LoadShed),
                  1u)
            << "step " << t;
    }
}

TEST(ClusterAutoscale, ThrottleOnAParkedSlotFollowsItIntoService)
{
    // A thermal throttle that starts while slot 2 is parked must still
    // cap it once a scale-out brings it into service.
    auto cfg = validConfig();
    faults::FaultSpec faults;
    faults::FaultAction hot;
    hot.kind = faults::FaultKind::ThermalThrottle;
    hot.atStep = 0;
    hot.node = 2;
    hot.durationSteps = 20;
    hot.maxDvfsIndex = 0;
    faults.actions.push_back(hot);
    auto fleet = makeElasticFleet({0.8}, cfg, 2, faults);
    const auto log = scaleEventsOf(fleet.run(4, 1));

    ASSERT_FALSE(log.empty());
    ASSERT_EQ(log[0].kind, cluster::ScaleEvent::Kind::ScaleOut);
    ASSERT_EQ(log[0].node, 2u);
    EXPECT_TRUE(fleet.slots().isNodeUp(2));
    EXPECT_TRUE(fleet.node(2).dvfsCapped());
}

// ---------------------------------------------------------------------
// Warm spawn through the engine (checkpoint-restore scale-out path)
// ---------------------------------------------------------------------

namespace {

harness::ScenarioSpec
elasticSurgeSpec(const std::string &ckpt)
{
    harness::ScenarioSpec spec;
    spec.name = "autoscale-warm-spawn";
    spec.topology = "cluster";
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    load.pattern = "fixed";
    load.fraction = 0.15; // of the full 4-slot fleet
    spec.services.push_back(load);
    spec.manager = "twig";
    spec.steps = 140;
    spec.window = 40;
    spec.horizon = 140;
    spec.seed = 42;
    spec.nodes = 2;
    spec.policy = "p2c-latency";
    spec.checkpoint = ckpt;

    AutoscaleConfig cfg;
    cfg.minNodes = 2;
    cfg.maxNodes = 4;
    cfg.hiUtilization = 0.6;
    cfg.loUtilization = 0.4;
    cfg.outTardiness = 1.2;
    cfg.persistIntervals = 1;
    cfg.cooldownIntervals = 3;
    cfg.outStepNodes = 2;
    cfg.drainIntervals = 2;
    spec.autoscale = cfg;

    faults::FaultAction surge;
    surge.kind = faults::FaultKind::LoadSurge;
    surge.atStep = 60;
    surge.service = 0;
    surge.durationSteps = 40;
    surge.multiplier = 4.0;
    spec.faults.actions.push_back(surge);
    return spec;
}

} // namespace

TEST(AutoscaleEngine, WarmSpawnMeetsQosWithZeroRampAndReplaysExactly)
{
    // Train a donor across the per-node load range the elastic fleet
    // visits, then warm-start (and warm-spawn) every replica from it.
    const std::string ckpt = tmpPath("autoscale_donor.ckpt");
    harness::ScenarioSpec donor;
    donor.name = "autoscale-donor";
    donor.topology = "cluster";
    harness::ServiceLoadSpec donor_load;
    donor_load.service = "masstree";
    donor_load.pattern = "diurnal";
    donor_load.fraction = 0.75;
    donor_load.lowFraction = 0.25;
    donor.services.push_back(donor_load);
    donor.manager = "twig";
    donor.steps = 300;
    donor.window = 300;
    donor.horizon = 300;
    donor.seed = 42 ^ 0xd0;
    donor.nodes = 1;
    donor.policy = "static";
    harness::EngineOptions donor_opts;
    donor_opts.saveCheckpoint = ckpt;
    harness::Engine(donor_opts).run(donor);

    const auto spec = elasticSurgeSpec(ckpt);
    ASSERT_EQ(
        spec.validate(harness::ManagerRegistry::builtin()), "");

    // The engine's fleet at --jobs 1, watched live: the surge must
    // warm-spawn at least one standby replica, and the first spawned
    // replica's stats are read in the interval it joins.
    auto setup = harness::buildFleet(
        spec, harness::ManagerRegistry::builtin(), /*jobs=*/1);
    cluster::ClusterManager &fleet = *setup.fleet;
    std::size_t spawn_step = 0;
    std::optional<sim::ServiceIntervalStats> spawned;
    const auto result = fleet.run(
        spec.steps, spec.resolvedWindow(),
        [&](std::size_t t, const cluster::FleetIntervalStats &fs) {
            for (const auto &ev : fs.scaleEvents) {
                if (ev.kind == cluster::ScaleEvent::Kind::ScaleOut &&
                    !spawned) {
                    spawn_step = t;
                    spawned = fleet.node(ev.node).lastStats().services[0];
                }
            }
        });
    const auto &trace = result.trace;
    ASSERT_TRUE(spawned.has_value());
    EXPECT_GE(spawn_step, 60u);

    // Zero post-spawn ramp: the replica serves AND meets QoS in the
    // very interval it joins — the donor policy needs no re-learning.
    const double qos_ms = services::masstree().qosTargetMs;
    EXPECT_GT(spawned->completed, 0u);
    EXPECT_LE(spawned->p99Ms, qos_ms);

    // And the whole elastic run replays bit-identically through the
    // engine at --jobs 8.
    harness::EngineOptions parallel;
    parallel.jobs = 8;
    const auto replay = harness::Engine(parallel).run(spec);
    ASSERT_EQ(replay.fleet.trace.size(), trace.size());
    for (std::size_t t = 0; t < trace.size(); ++t) {
        const auto &x = trace[t];
        const auto &y = replay.fleet.trace[t];
        ASSERT_EQ(x.fleetP99Ms, y.fleetP99Ms);
        ASSERT_EQ(x.totalPowerW, y.totalPowerW);
        ASSERT_EQ(x.nodeUp, y.nodeUp);
        ASSERT_EQ(x.servingNodes, y.servingNodes);
        ASSERT_EQ(x.drainingNodes, y.drainingNodes);
        ASSERT_EQ(x.costDollars, y.costDollars);
        ASSERT_EQ(x.scaleEvents.size(), y.scaleEvents.size());
        for (std::size_t i = 0; i < x.scaleEvents.size(); ++i)
            ASSERT_TRUE(x.scaleEvents[i] == y.scaleEvents[i]);
    }
    EXPECT_DOUBLE_EQ(result.metrics.costDollars,
                     replay.fleet.metrics.costDollars);
}

TEST(AutoscaleEngine, ReactivatedSlotRestoresItsDrainTimePolicy)
{
    // A slot that served, drained out, and comes back must warm-restore
    // the frame snapshotted at drain time (not cold-start): the scale
    // log shows its retirement and the fault-event stream shows the
    // WarmRestore on reactivation.
    const auto masstree = services::masstree();
    const double rated = masstree.maxLoadRps * 3.0;
    cluster::ClusterConfig ccfg;
    ccfg.router.policy = cluster::RoutingPolicy::WeightedRoundRobin;
    // Script: idle long enough to retire slot 2, then hot enough to
    // bring it back.
    std::vector<double> script;
    for (int i = 0; i < 10; ++i)
        script.push_back(0.05 * rated);
    script.push_back(0.9 * rated);
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(std::make_unique<ScriptedLoad>(std::move(script)));
    cluster::ClusterManager fleet(ccfg, {masstree}, std::move(loads),
                                  42);
    const auto factory =
        [](const sim::MachineConfig &machine,
           const std::vector<sim::ServiceProfile> &svcs,
           std::uint64_t seed) -> std::unique_ptr<core::TaskManager> {
        const auto maxima = services::calibrateCounterMaxima(machine);
        std::vector<core::TwigServiceSpec> specs;
        for (const auto &p : svcs) {
            core::TwigServiceSpec spec;
            spec.name = p.name;
            spec.qosTargetMs = p.qosTargetMs;
            spec.maxLoadRps = p.maxLoadRps;
            spec.powerModel = core::ServicePowerModel(10.0, 1.0, 2.0);
            specs.push_back(spec);
        }
        return std::make_unique<core::TwigManager>(
            core::TwigConfig::fast(40), machine, maxima,
            std::move(specs), seed);
    };
    for (std::size_t n = 0; n < 3; ++n)
        fleet.addNode(sim::MachineConfig{}, factory);
    AutoscaleConfig cfg;
    cfg.minNodes = 1;
    cfg.maxNodes = 3;
    cfg.hiUtilization = 0.6;
    cfg.loUtilization = 0.4;
    cfg.persistIntervals = 1;
    cfg.cooldownIntervals = 1;
    cfg.drainIntervals = 1;
    fleet.slots().setAutoscaler(cfg, {rated}, {}, 3);

    bool warm_restored_after_retire = false;
    std::size_t retired_node = 0;
    bool retired = false;
    fleet.run(40, 5,
              [&](std::size_t, const cluster::FleetIntervalStats &s) {
                  for (const auto &ev : s.scaleEvents) {
                      if (ev.kind == cluster::ScaleEvent::Kind::Retire) {
                          retired = true;
                          retired_node = ev.node;
                      }
                  }
                  for (const auto &ev : s.faultEvents) {
                      if (retired &&
                          ev.kind ==
                              faults::FaultEventKind::WarmRestore &&
                          ev.node == static_cast<std::int64_t>(
                                         retired_node))
                          warm_restored_after_retire = true;
                  }
              });
    ASSERT_TRUE(retired);
    EXPECT_TRUE(warm_restored_after_retire);
}
