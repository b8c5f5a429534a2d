/** @file Fleet failover and agent recovery under injected faults:
 * zero-weight routing, crash/restart with warm and cold recovery,
 * corrupt checkpoint fallback, load shedding, bit-exact replay, and
 * the one checkpoint format shared by donor files and failover
 * frames. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/static_manager.hh"
#include "cluster/cluster_manager.hh"
#include "cluster/router.hh"
#include "common/error.hh"
#include "core/twig_manager.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_spec.hh"
#include "harness/engine.hh"
#include "harness/registry.hh"
#include "oracle/golden_hash.hh"
#include "rl/checkpoint.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"

using namespace twig;
using namespace twig::cluster;
using twig::common::FatalError;

namespace {

std::string
tmpPath(const std::string &name)
{
    return ::testing::TempDir() + "/" + name;
}

/** One routeInto call, returning the shares. */
std::vector<std::vector<double>>
route(Router &router, const std::vector<double> &fleet_rps,
      const std::vector<double> &weights,
      const std::vector<double> &p99_ms)
{
    std::vector<std::vector<double>> out;
    router.routeInto(fleet_rps, weights, p99_ms, out);
    return out;
}

ClusterManager::ManagerFactory
staticNodes()
{
    return [](const sim::MachineConfig &machine,
              const std::vector<sim::ServiceProfile> &,
              std::uint64_t) -> std::unique_ptr<core::TaskManager> {
        return std::make_unique<baselines::StaticManager>(machine);
    };
}

/** Twig nodes with a canned power model (the RL loop and its RNG run
 * for real; only the Eq. 2 fit is skipped for speed). */
ClusterManager::ManagerFactory
twigNodes(std::size_t horizon)
{
    return [horizon](const sim::MachineConfig &machine,
                     const std::vector<sim::ServiceProfile> &svcs,
                     std::uint64_t seed)
        -> std::unique_ptr<core::TaskManager> {
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
            core::TwigConfig::fast(horizon), machine, maxima,
            std::move(specs), seed);
    };
}

/** Homogeneous fixed-load Masstree fleet. */
ClusterManager
makeFleet(RoutingPolicy policy, std::size_t jobs, std::size_t nodes,
          const ClusterManager::ManagerFactory &factory)
{
    const auto masstree = services::masstree();
    ClusterConfig cfg;
    cfg.router.policy = policy;
    cfg.jobs = jobs;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(std::make_unique<sim::FixedLoad>(
        masstree.maxLoadRps * static_cast<double>(nodes), 0.4));
    ClusterManager fleet(cfg, {masstree}, std::move(loads), 42);
    for (std::size_t n = 0; n < nodes; ++n)
        fleet.addNode(sim::MachineConfig{}, factory);
    return fleet;
}

faults::FaultAction
crashAction(std::size_t at, std::size_t node, std::size_t restart_after,
            const std::string &recovery)
{
    faults::FaultAction a;
    a.kind = faults::FaultKind::NodeCrash;
    a.atStep = at;
    a.node = node;
    a.restartAfterSteps = restart_after;
    a.recovery = recovery;
    return a;
}

std::size_t
countEvents(const std::vector<faults::FaultEvent> &log,
            faults::FaultEventKind kind)
{
    std::size_t n = 0;
    for (const auto &ev : log)
        n += ev.kind == kind ? 1 : 0;
    return n;
}

/** Every fault event of @p result, in application order. */
std::vector<faults::FaultEvent>
faultEventsOf(const FleetRunResult &result)
{
    std::vector<faults::FaultEvent> log;
    for (const auto &fs : result.trace)
        log.insert(log.end(), fs.faultEvents.begin(), fs.faultEvents.end());
    return log;
}

const faults::FaultEvent *
findEvent(const std::vector<faults::FaultEvent> &log,
          faults::FaultEventKind kind)
{
    for (const auto &ev : log)
        if (ev.kind == kind)
            return &ev;
    return nullptr;
}

/** Bit-identical, not approximately equal — the jobs count and the
 * run instance must not leak into any simulated quantity. */
void
expectIdenticalTraces(const FleetRunResult &a, const FleetRunResult &b)
{
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t t = 0; t < a.trace.size(); ++t) {
        const auto &fa = a.trace[t];
        const auto &fb = b.trace[t];
        EXPECT_EQ(fa.offeredRps, fb.offeredRps) << "step " << t;
        EXPECT_EQ(fa.fleetP99Ms, fb.fleetP99Ms) << "step " << t;
        EXPECT_EQ(fa.totalPowerW, fb.totalPowerW) << "step " << t;
        EXPECT_EQ(fa.nodeUp, fb.nodeUp) << "step " << t;
        EXPECT_EQ(fa.shedRps, fb.shedRps) << "step " << t;
        EXPECT_EQ(fa.faultEvents, fb.faultEvents) << "step " << t;
    }
    EXPECT_EQ(a.metrics.windowP99Ms, b.metrics.windowP99Ms);
    EXPECT_EQ(a.metrics.meanPowerW, b.metrics.meanPowerW);
}

} // namespace

// --- Router weights ---------------------------------------------------
// The routers keep no health state: a crashed or parked slot is a
// weight-0 node, which gets no load while the rest renormalise.

TEST(RouterHealth, EvictRenormalizesOntoSurvivors)
{
    Router wrr({RoutingPolicy::WeightedRoundRobin}, {30.0}, 1);
    const auto out = route(wrr, {600.0}, {2.0, 0.0, 1.0}, {});
    EXPECT_DOUBLE_EQ(out[1][0], 0.0);
    EXPECT_NEAR(out[0][0] + out[2][0], 600.0, 1e-9);
    // 2:1 among the survivors: of 256 quanta, 171:85.
    static_assert(kQuantaPerService == 256);
    EXPECT_EQ(out[0][0], 171.0 * 600.0 / 256.0);

    Router stat({RoutingPolicy::Static}, {30.0}, 1);
    const auto eq = route(stat, {600.0}, {0.0, 1.0, 1.0}, {});
    EXPECT_DOUBLE_EQ(eq[0][0], 0.0);
    EXPECT_DOUBLE_EQ(eq[1][0], 300.0);
    EXPECT_DOUBLE_EQ(eq[2][0], 300.0);
}

TEST(RouterHealth, SingleSurvivorTakesTheWholeLoad)
{
    // Regression: p2c with exactly one positive weight must not draw
    // a second choice from an empty candidate set.
    Router router({RoutingPolicy::PowerOfTwoLatency}, {30.0}, 7);
    const auto out = route(router, {900.0}, {0.0, 1.0, 0.0}, {});
    EXPECT_DOUBLE_EQ(out[0][0], 0.0);
    EXPECT_DOUBLE_EQ(out[1][0], 900.0);
    EXPECT_DOUBLE_EQ(out[2][0], 0.0);
}

TEST(RouterHealth, AllNodesDownShedsInsteadOfNaN)
{
    // All-zero weights give all-zero shares, never NaN. The shed
    // record itself is the ClusterManager's (see
    // FleetFailover.AllNodesDownBecomesAWellDefinedShedRecord).
    for (const RoutingPolicy policy :
         {RoutingPolicy::Static, RoutingPolicy::WeightedRoundRobin,
          RoutingPolicy::PowerOfTwoLatency}) {
        Router router({policy}, {30.0}, 1);
        std::vector<std::vector<double>> out;
        router.routeInto({500.0}, {0.0, 0.0}, {}, out);
        ASSERT_EQ(out.size(), 2u);
        for (const auto &node : out)
            for (const double rps : node) {
                EXPECT_FALSE(std::isnan(rps));
                EXPECT_DOUBLE_EQ(rps, 0.0);
            }

        router.routeInto({500.0}, {0.0, 1.0}, {}, out);
        EXPECT_DOUBLE_EQ(out[1][0], 500.0);
    }
}

// --- Fleet failover ---------------------------------------------------

TEST(FleetFailover, CrashRemovesTheNodeUntilRestart)
{
    auto fleet =
        makeFleet(RoutingPolicy::Static, 1, 3, staticNodes());
    faults::FaultSpec spec;
    spec.actions.push_back(crashAction(5, 1, 5, "cold"));
    fleet.slots().setFaults(spec);
    std::vector<double> survivors_w; // nodes 0 + 2, per interval
    const auto result =
        fleet.run(15, 5, [&](std::size_t, const FleetIntervalStats &) {
            survivors_w.push_back(fleet.node(0).lastStats().socketPowerW +
                                  fleet.node(2).lastStats().socketPowerW);
        });

    for (std::size_t t = 0; t < 15; ++t) {
        const bool down = t >= 5 && t < 10;
        EXPECT_EQ(result.trace[t].nodeUp[1], down ? 0 : 1)
            << "step " << t;
        EXPECT_EQ(result.trace[t].nodeUp[0], 1) << "step " << t;
        // A two-survivor interval carries two nodes' power only.
        if (down) {
            EXPECT_DOUBLE_EQ(result.trace[t].totalPowerW, survivors_w[t])
                << "step " << t;
        }
    }
    const auto log = faultEventsOf(result);
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::NodeCrash), 1u);
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::NodeRestart), 1u);
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::ColdRestart), 1u);
}

TEST(FleetFailover, WarmRecoveryRestoresTheLatestFrame)
{
    auto fleet =
        makeFleet(RoutingPolicy::Static, 1, 2, twigNodes(16));
    faults::FaultSpec spec;
    spec.checkpointEverySteps = 4;
    spec.actions.push_back(crashAction(9, 1, 3, "warm"));
    fleet.slots().setFaults(spec);
    const auto log = faultEventsOf(fleet.run(16, 4));
    EXPECT_GT(countEvents(log, faults::FaultEventKind::CheckpointSaved),
              0u);
    ASSERT_EQ(countEvents(log, faults::FaultEventKind::WarmRestore), 1u);
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::ColdRestart), 0u);
    const auto *restore =
        findEvent(log, faults::FaultEventKind::WarmRestore);
    EXPECT_EQ(restore->node, 1);
    EXPECT_GT(restore->value, 0.0); // restored payload bytes
    EXPECT_EQ(restore->step, 12u);
}

TEST(FleetFailover, WarmWithoutAFrameFallsBackToCold)
{
    auto fleet =
        makeFleet(RoutingPolicy::Static, 1, 2, twigNodes(12));
    faults::FaultSpec spec; // no periodic checkpoints
    spec.actions.push_back(crashAction(3, 0, 3, "warm"));
    fleet.slots().setFaults(spec);
    const auto log = faultEventsOf(fleet.run(12, 4));
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::WarmRestore), 0u);
    ASSERT_EQ(countEvents(log, faults::FaultEventKind::ColdRestart), 1u);
    const auto *cold =
        findEvent(log, faults::FaultEventKind::ColdRestart);
    EXPECT_NE(cold->note.find("no checkpoint frame"),
              std::string::npos)
        << cold->note;
}

TEST(FleetFailover, CorruptFrameIsDetectedAndDegradesToCold)
{
    auto fleet =
        makeFleet(RoutingPolicy::Static, 1, 2, twigNodes(16));
    faults::FaultSpec spec;
    spec.checkpointEverySteps = 4;
    faults::FaultAction corrupt;
    corrupt.kind = faults::FaultKind::CheckpointCorrupt;
    corrupt.atStep = 10;
    corrupt.node = 1;
    spec.actions.push_back(corrupt);
    spec.actions.push_back(crashAction(11, 1, 3, "warm"));
    fleet.slots().setFaults(spec);
    // The damaged frame must be rejected, not loaded and not fatal.
    const auto result = fleet.run(16, 4);
    EXPECT_EQ(result.trace.size(), 16u);

    const auto log = faultEventsOf(result);
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::WarmRestore), 0u);
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::CorruptDetected),
              1u);
    EXPECT_EQ(countEvents(log, faults::FaultEventKind::ColdRestart), 1u);
    EXPECT_EQ(result.trace[15].nodeUp[1], 1); // back in service
}

TEST(FleetFailover, AllNodesDownBecomesAWellDefinedShedRecord)
{
    auto fleet =
        makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 2, staticNodes());
    faults::FaultSpec spec;
    spec.actions.push_back(crashAction(3, 0, 0, "cold"));
    spec.actions.push_back(crashAction(4, 1, 0, "cold"));
    fleet.slots().setFaults(spec);
    const auto result = fleet.run(8, 3);

    for (std::size_t t = 4; t < 8; ++t) {
        const auto &fs = result.trace[t];
        EXPECT_GT(fs.shedRps, 0.0) << "step " << t;
        EXPECT_DOUBLE_EQ(fs.shedRps, fs.offeredRps[0]) << "step " << t;
        EXPECT_DOUBLE_EQ(fs.totalPowerW, 0.0) << "step " << t;
        for (const double p99 : fs.fleetP99Ms)
            EXPECT_FALSE(std::isnan(p99)) << "step " << t;
    }
    EXPECT_EQ(countEvents(faultEventsOf(result),
                          faults::FaultEventKind::LoadShed),
              4u);
}

TEST(FleetFailover, ThrottleReducesPowerWhileActive)
{
    // Node 0's power per interval, recorded while it is current.
    auto node0_power = [](ClusterManager &fleet, std::vector<double> &w) {
        return [&fleet, &w](std::size_t, const FleetIntervalStats &) {
            w.push_back(fleet.node(0).lastStats().socketPowerW);
        };
    };
    auto baseline =
        makeFleet(RoutingPolicy::Static, 1, 2, staticNodes());
    std::vector<double> clean;
    baseline.run(12, 4, node0_power(baseline, clean));

    auto throttled =
        makeFleet(RoutingPolicy::Static, 1, 2, staticNodes());
    faults::FaultSpec spec;
    faults::FaultAction throttle;
    throttle.kind = faults::FaultKind::ThermalThrottle;
    throttle.atStep = 4;
    throttle.node = 0;
    throttle.durationSteps = 6;
    throttle.maxDvfsIndex = 0;
    spec.actions.push_back(throttle);
    throttled.slots().setFaults(spec);
    std::vector<double> hot;
    throttled.run(12, 4, node0_power(throttled, hot));

    // Same world up to the throttle...
    for (std::size_t t = 0; t < 4; ++t)
        EXPECT_EQ(hot[t], clean[t]) << "step " << t;
    // ...then the capped node burns strictly less than its
    // all-cores-max baseline while the cap holds.
    for (std::size_t t = 4; t < 10; ++t)
        EXPECT_LT(hot[t], clean[t]) << "step " << t;
}

TEST(FleetFailover, TelemetryFaultLeavesGroundTruthExact)
{
    // A stats-blind manager decides identically under PMC noise, so
    // the whole simulated world must replay bit-identically: the
    // fault perturbs only the manager-visible copy of the telemetry.
    auto baseline =
        makeFleet(RoutingPolicy::Static, 1, 2, staticNodes());
    const auto clean = baseline.run(12, 4);

    auto noisy = makeFleet(RoutingPolicy::Static, 1, 2, staticNodes());
    faults::FaultSpec spec;
    faults::FaultAction noise;
    noise.kind = faults::FaultKind::PmcNoise;
    noise.atStep = 2;
    noise.node = 0;
    noise.durationSteps = 8;
    noise.sigma = 0.5;
    noise.staleProb = 0.3;
    spec.actions.push_back(noise);
    noisy.slots().setFaults(spec);
    const auto faulted = noisy.run(12, 4);

    for (std::size_t t = 0; t < 12; ++t) {
        EXPECT_EQ(faulted.trace[t].fleetP99Ms, clean.trace[t].fleetP99Ms)
            << "step " << t;
        EXPECT_EQ(faulted.trace[t].totalPowerW,
                  clean.trace[t].totalPowerW)
            << "step " << t;
    }
}

TEST(FleetFailover, SurgeMultipliesTheOfferedLoad)
{
    auto baseline =
        makeFleet(RoutingPolicy::Static, 1, 2, staticNodes());
    const auto clean = baseline.run(10, 4);

    auto surged = makeFleet(RoutingPolicy::Static, 1, 2, staticNodes());
    faults::FaultSpec spec;
    faults::FaultAction surge;
    surge.kind = faults::FaultKind::LoadSurge;
    surge.atStep = 4;
    surge.service = 0;
    surge.durationSteps = 3;
    surge.multiplier = 2.0;
    spec.actions.push_back(surge);
    surged.slots().setFaults(spec);
    const auto hot = surged.run(10, 4);

    for (std::size_t t = 0; t < 10; ++t) {
        const double expected = (t >= 4 && t < 7 ? 2.0 : 1.0) *
            clean.trace[t].offeredRps[0];
        EXPECT_DOUBLE_EQ(hot.trace[t].offeredRps[0], expected)
            << "step " << t;
    }
}

TEST(FleetFailover, SetFaultsValidatesAgainstTheFleetShape)
{
    auto fleet =
        makeFleet(RoutingPolicy::Static, 1, 2, staticNodes());
    faults::FaultSpec bad;
    bad.actions.push_back(crashAction(3, 5, 0, "cold")); // node 5 of 2
    EXPECT_THROW(fleet.slots().setFaults(bad), FatalError);

    const auto masstree = services::masstree();
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(
        std::make_unique<sim::FixedLoad>(masstree.maxLoadRps, 0.4));
    ClusterManager empty({}, {masstree}, std::move(loads), 1);
    faults::FaultSpec ok;
    ok.checkpointEverySteps = 4;
    EXPECT_THROW(empty.slots().setFaults(ok), FatalError); // no nodes yet
}

// --- Deterministic replay ---------------------------------------------

TEST(FaultReplay, SameSeedSameScheduleIsBitIdentical)
{
    faults::FaultSpec spec;
    spec.checkpointEverySteps = 4;
    spec.actions.push_back(crashAction(7, 1, 4, "warm"));
    faults::FaultAction noise;
    noise.kind = faults::FaultKind::PmcNoise;
    noise.atStep = 3;
    noise.node = 0;
    noise.durationSteps = 6;
    noise.sigma = 0.3;
    spec.actions.push_back(noise);
    faults::FaultAction surge;
    surge.kind = faults::FaultKind::LoadSurge;
    surge.atStep = 5;
    surge.service = 0;
    surge.durationSteps = 4;
    surge.multiplier = 1.4;
    spec.actions.push_back(surge);

    auto runOnce = [&](std::size_t jobs) {
        auto fleet = makeFleet(RoutingPolicy::PowerOfTwoLatency, jobs,
                               3, twigNodes(16));
        fleet.slots().setFaults(spec);
        auto result = fleet.run(16, 5);
        auto log = faultEventsOf(result);
        return std::make_pair(std::move(result), std::move(log));
    };

    const auto a = runOnce(1);
    const auto b = runOnce(1);
    const auto c = runOnce(3);
    expectIdenticalTraces(a.first, b.first);
    // Node stepping on a thread pool must not reorder or alter one
    // fault event either.
    expectIdenticalTraces(a.first, c.first);
    EXPECT_EQ(a.second, b.second);
    EXPECT_EQ(a.second, c.second);
}

TEST(FaultReplay, EngineScenarioStreamsEventsAndReplaysAcrossJobs)
{
    harness::ScenarioSpec spec;
    spec.name = "fault-replay";
    spec.topology = "cluster";
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    load.pattern = "fixed";
    load.fraction = 0.4;
    spec.services.push_back(load);
    spec.manager = "static";
    spec.steps = 12;
    spec.window = 4;
    spec.nodes = 2;
    spec.policy = "p2c-latency";
    spec.faults.actions.push_back(crashAction(3, 1, 4, "cold"));

    const std::string csv = tmpPath("fault_events.csv");
    harness::FaultCsvSink sink(csv);
    harness::EngineOptions serial;
    serial.jobs = 1;
    serial.sinks.push_back(&sink);
    const auto a = harness::Engine(serial).run(spec);
    EXPECT_GT(sink.events(), 0u);

    harness::EngineOptions parallel;
    parallel.jobs = 2;
    const auto b = harness::Engine(parallel).run(spec);
    expectIdenticalTraces(a.fleet, b.fleet);

    std::ifstream in(csv);
    std::stringstream text;
    text << in.rdbuf();
    EXPECT_NE(text.str().find("node_crash"), std::string::npos);
    EXPECT_NE(text.str().find("cold_restart"), std::string::npos);
}

// --- Lifecycle golden ---------------------------------------------------
// Every lifecycle path at once, pinned to parent-recorded constants
// (oracle::hashFleetLifecycleRun): an autoscaled 4-slot fleet in two
// routing domains, slots 2-3 parked at step 0, p2c-latency routing and
// a frame every 4 steps. The scripted load scales out twice, in twice
// (drain, then retire) and out twice again, reactivating the retired
// slots from their drain-time frames; the fault schedule throttles a
// parked slot, adds PMC noise (with a throttle inside one noise window
// and two rebuilds inside another) and a load surge, and crashes slots
// with warm, cold and corrupt-frame recovery.

namespace {

/** Replays a per-step fraction of @p max_rps (last value held). */
class ScriptedLoad : public sim::LoadGenerator
{
  public:
    ScriptedLoad(double max_rps, std::vector<double> fractions)
        : maxRps_(max_rps), fractions_(std::move(fractions))
    {
    }

    double
    rps(std::size_t step) const override
    {
        return maxRps_ *
            fractions_[std::min(step, fractions_.size() - 1)];
    }

  private:
    double maxRps_;
    std::vector<double> fractions_;
};

constexpr std::size_t kLifecycleSteps = 48;

faults::FaultSpec
lifecycleFaults()
{
    faults::FaultSpec spec;
    spec.checkpointEverySteps = 4;
    faults::FaultAction hot; // slot 3 is parked until its scale-out
    hot.kind = faults::FaultKind::ThermalThrottle;
    hot.atStep = 0;
    hot.node = 3;
    hot.durationSteps = 30;
    hot.maxDvfsIndex = 1;
    spec.actions.push_back(hot);
    faults::FaultAction noise;
    noise.kind = faults::FaultKind::PmcNoise;
    noise.atStep = 3;
    noise.node = 0;
    noise.durationSteps = 10;
    noise.sigma = 1.5; // loud enough to move the frozen policy's picks
    noise.staleProb = 0.2;
    spec.actions.push_back(noise);
    hot.atStep = 5; // a throttle inside node 0's noise window
    hot.node = 0;
    hot.durationSteps = 4;
    spec.actions.push_back(hot);
    noise.atStep = 24; // node 1 is rebuilt twice under this noise
    noise.node = 1;
    noise.durationSteps = 16;
    spec.actions.push_back(noise);
    spec.actions.push_back(crashAction(25, 1, 3, "warm"));
    spec.actions.push_back(crashAction(30, 0, 2, "cold"));
    faults::FaultAction corrupt;
    corrupt.kind = faults::FaultKind::CheckpointCorrupt;
    corrupt.atStep = 34;
    corrupt.node = 1;
    spec.actions.push_back(corrupt);
    spec.actions.push_back(crashAction(35, 1, 2, "warm"));
    faults::FaultAction surge;
    surge.kind = faults::FaultKind::LoadSurge;
    surge.atStep = 40;
    surge.service = 0;
    surge.durationSteps = 4;
    surge.multiplier = 1.5;
    spec.actions.push_back(surge);
    return spec;
}

/** The lifecycle fleet's run: its whole trace, its golden digest
 * (oracle::hashFleetLifecycleRun) and the replicas deciding through a
 * batched cohort at the end. */
struct LifecycleRun
{
    FleetRunResult result;
    std::uint64_t digest = 0;
    std::size_t batched = 0;
};

/** Runs the lifecycle fleet at @p jobs. */
LifecycleRun
runLifecycleFleet(const ClusterManager::ManagerFactory &factory,
                  const rl::Checkpoint *donor, std::size_t jobs)
{
    const auto masstree = services::masstree();
    const double rated = 4.0 * masstree.maxLoadRps;
    std::vector<double> script;
    for (std::size_t t = 0; t < kLifecycleSteps; ++t)
        script.push_back(t < 10 ? 0.5 : t < 20 ? 0.1 : 0.5);
    ClusterConfig cfg;
    cfg.router.policy = RoutingPolicy::PowerOfTwoLatency;
    cfg.jobs = jobs;
    cfg.router.domains = 2;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(
        std::make_unique<ScriptedLoad>(rated, std::move(script)));
    ClusterManager fleet(cfg, {masstree}, std::move(loads), 42);
    for (std::size_t n = 0; n < 4; ++n)
        fleet.addNode(sim::MachineConfig{}, factory, donor);
    fleet.slots().setFaults(lifecycleFaults());
    autoscale::AutoscaleConfig scale;
    scale.minNodes = 1;
    scale.maxNodes = 4;
    scale.hiUtilization = 0.6;
    scale.loUtilization = 0.4;
    scale.outTardiness = 50.0; // utilisation alone drives the script
    scale.persistIntervals = 1;
    scale.cooldownIntervals = 1;
    scale.drainIntervals = 2;
    fleet.slots().setCostModel({});
    fleet.slots().setAutoscaler(scale, {rated}, 2);
    oracle::FleetHasher hasher(fleet);
    LifecycleRun run;
    run.result = fleet.run(kLifecycleSteps, 8, hasher.onStep());
    run.digest = oracle::hashFleetLifecycleRun(hasher, run.result);
    run.batched = fleet.batchedNodeCount();
    return run;
}

/** Counts of every fault and scale event kind in @p r. */
struct LifecycleCounts
{
    std::map<faults::FaultEventKind, std::size_t> faults;
    std::map<ScaleEvent::Kind, std::size_t> scales;
    /** Throttles that started on a parked (unpowered) slot. */
    std::size_t parkedThrottles = 0;
    /** Scale-outs whose slot warm-restored in the same interval. */
    std::size_t warmReactivations = 0;
};

LifecycleCounts
countLifecycle(const FleetRunResult &r)
{
    LifecycleCounts c;
    for (const auto &f : r.trace) {
        for (const auto &ev : f.faultEvents) {
            ++c.faults[ev.kind];
            if (ev.kind == faults::FaultEventKind::ThrottleStart &&
                f.nodeUp[static_cast<std::size_t>(ev.node)] == 0)
                ++c.parkedThrottles;
        }
        for (const auto &ev : f.scaleEvents) {
            ++c.scales[ev.kind];
            const bool restored = std::any_of(
                f.faultEvents.begin(), f.faultEvents.end(),
                [&ev](const faults::FaultEvent &fe) {
                    return fe.kind == faults::FaultEventKind::WarmRestore &&
                        fe.node == static_cast<std::int64_t>(ev.node);
                });
            if (ev.kind == ScaleEvent::Kind::ScaleOut && restored)
                ++c.warmReactivations;
        }
    }
    return c;
}

/** The lifecycle paths both goldens exercise (baselines keep no
 * frame, so the warm paths are checked on the Twig fleet only). */
void
expectCommonLifecycle(const LifecycleCounts &c)
{
    using K = faults::FaultEventKind;
    for (const K kind : {K::NodeCrash, K::NodeRestart, K::ColdRestart,
                         K::ThrottleStart, K::PmcNoiseStart,
                         K::SurgeStart, K::CheckpointCorrupt})
        EXPECT_GT(c.faults.count(kind), 0u)
            << faults::faultEventKindName(kind);
    for (const auto kind : {ScaleEvent::Kind::ScaleOut,
                            ScaleEvent::Kind::DrainStart,
                            ScaleEvent::Kind::Retire})
        EXPECT_GT(c.scales.count(kind), 0u) << scaleEventKindName(kind);
    EXPECT_GT(c.parkedThrottles, 0u);
}

} // namespace

TEST(LifecycleGolden, StaticManagersHoldOnAnyHost)
{
    for (const std::size_t jobs : {1u, 4u}) {
        const auto run = runLifecycleFleet(staticNodes(), nullptr, jobs);
        expectCommonLifecycle(countLifecycle(run.result));
        EXPECT_EQ(run.batched, 0u);
        EXPECT_EQ(run.digest, 0x0aeda2b45e27d182ULL) << "jobs " << jobs;
    }
}

TEST(LifecycleGolden, WarmExploitOnlyTwigDecidesThroughCohorts)
{
    // Holds on AVX2+FMA hosts, like the other BDQ fleet goldens.
    const std::string donor = tmpPath("lifecycle_donor.ckpt");
    {
        auto donor_fleet =
            makeFleet(RoutingPolicy::Static, 1, 1, twigNodes(20));
        donor_fleet.run(20, 5);
        dynamic_cast<core::TwigManager &>(donor_fleet.node(0).manager())
            .saveCheckpoint(donor);
    }
    const rl::Checkpoint ckpt = rl::Checkpoint::read(donor);
    const auto inner = twigNodes(kLifecycleSteps);
    const ClusterManager::ManagerFactory exploit =
        [inner](const sim::MachineConfig &machine,
                const std::vector<sim::ServiceProfile> &svcs,
                std::uint64_t seed) {
            auto manager = inner(machine, svcs, seed);
            dynamic_cast<core::TwigManager &>(*manager).setExploitOnly(
                true);
            return manager;
        };
    for (const std::size_t jobs : {1u, 4u}) {
        const auto run = runLifecycleFleet(exploit, &ckpt, jobs);
        const LifecycleCounts c = countLifecycle(run.result);
        expectCommonLifecycle(c);
        using K = faults::FaultEventKind;
        for (const K kind : {K::CheckpointSaved, K::WarmRestore,
                             K::CorruptDetected})
            EXPECT_GT(c.faults.count(kind), 0u)
                << faults::faultEventKindName(kind);
        EXPECT_GT(c.warmReactivations, 0u);
        // The reactivated slots rejoin one cohort on the donor policy.
        EXPECT_GE(run.batched, 2u);
        EXPECT_EQ(run.digest, 0x42063076621ebbe8ULL) << "jobs " << jobs;
    }
}

// --- One checkpoint format ----------------------------------------------
// A --save-checkpoint donor file, a slot's failover frame and a file
// written from a frame are the same bytes, and every reader verifies
// them.

namespace {

/** One Twig node on the engine's --checkpoint / --save-checkpoint
 * path (harness::buildFleet and Engine::run). */
harness::ScenarioSpec
formatSpec()
{
    harness::ScenarioSpec spec;
    spec.name = "checkpoint-format";
    spec.topology = "cluster";
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    load.pattern = "fixed";
    load.fraction = 0.4;
    spec.services.push_back(load);
    spec.manager = "twig";
    spec.steps = 20;
    spec.window = 5;
    spec.horizon = 20;
    spec.nodes = 1;
    spec.policy = "static";
    return spec;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** A trained donor file, as twig_sim --save-checkpoint writes it. */
std::string
saveDonor(const std::string &name)
{
    const std::string path = tmpPath(name);
    harness::EngineOptions opts;
    opts.saveCheckpoint = path;
    harness::Engine(opts).run(formatSpec());
    return path;
}

} // namespace

TEST(CheckpointFormat, DonorFilesAndSlotFramesAreTheSameBytes)
{
    const std::string donor_path = saveDonor("format_donor.ckpt");
    const std::string donor = readFileBytes(donor_path);

    // Deployed (exploit-only, so frozen) on a fleet that keeps failover
    // frames: each replica's frame is the donor file, byte for byte.
    auto spec = formatSpec();
    spec.nodes = 2;
    spec.checkpoint = donor_path;
    spec.faults.checkpointEverySteps = 2;
    auto warm =
        harness::buildFleet(spec, harness::ManagerRegistry::builtin(), 1);
    warm.fleet->run(4, 2);
    EXPECT_EQ(warm.fleet->slots().frame(0), donor);
    EXPECT_EQ(warm.fleet->slots().frame(1), donor);

    // A frame written to disk deploys through --checkpoint.
    const std::string frame_path = tmpPath("format_frame.ckpt");
    writeFileBytes(frame_path, warm.fleet->slots().frame(1));
    spec.checkpoint = frame_path;
    auto redeployed =
        harness::buildFleet(spec, harness::ManagerRegistry::builtin(), 1);
    auto &node0 = dynamic_cast<core::TwigManager &>(
        redeployed.fleet->node(0).manager());
    EXPECT_EQ(node0.checkpoint().bytes(), donor);
}

TEST(CheckpointFormat, DonorWithAFlippedParameterByteIsNotDeployed)
{
    const std::string donor_path = saveDonor("format_flip_donor.ckpt");
    std::string bytes = readFileBytes(donor_path);
    bytes[bytes.size() - 3] ^= 0x10; // inside the last parameter
    const std::string bad_path = tmpPath("format_flipped.ckpt");
    writeFileBytes(bad_path, bytes);

    auto spec = formatSpec();
    spec.nodes = 2;
    spec.checkpoint = bad_path;
    try {
        harness::Engine().run(spec);
        FAIL() << "a corrupt donor was deployed";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find(bad_path), std::string::npos) << msg;
        EXPECT_NE(msg.find("checksum"), std::string::npos) << msg;
    }
}
