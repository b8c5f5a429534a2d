/** @file Unit tests for the fleet simulator (src/cluster/). */

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/static_manager.hh"
#include "cluster/cluster_manager.hh"
#include "cluster/router.hh"
#include "common/error.hh"
#include "core/twig_manager.hh"
#include "faults/fault_spec.hh"
#include "oracle/golden_hash.hh"
#include "rl/checkpoint.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/machine.hh"
#include "stats/histogram.hh"

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

/** FNV-1a over every share's bytes, folded into @p h. */
std::uint64_t
hashShares(const std::vector<std::vector<double>> &shares,
           std::uint64_t h)
{
    for (const auto &row : shares)
        h = oracle::hashDoubles(row, h);
    return h;
}

/**
 * 40 intervals of every policy on every (nodes, domains) shape below,
 * hashed share by share. Inputs: three services, the second at 0 RPS;
 * non-dyadic capacity weights whose zeros move every interval; domain
 * 0 dark for five intervals and the whole fleet for three; no feedback
 * at interval 0, then per-node p99s of 0.4x to 4.6x target, so the QoS
 * excess bound of 2 bites on the loaded services.
 */
std::uint64_t
routerGoldenHash()
{
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {1, 1}, {5, 1}, {7, 2}, {7, 3}, {64, 8}, {13, 13}};
    const std::vector<double> targets = {5.0, 8.0, 12.0};
    std::uint64_t h = common::kFnvOffsetBasis;
    for (const RoutingPolicy policy :
         {RoutingPolicy::Static, RoutingPolicy::WeightedRoundRobin,
          RoutingPolicy::PowerOfTwoLatency}) {
        for (const auto &[nodes, domains] : shapes) {
            Router router({policy, domains}, targets, 0x7017e5 + nodes);
            std::vector<double> p99_ms;
            std::vector<double> weights(nodes);
            std::vector<std::vector<double>> out;
            for (std::size_t t = 0; t < 40; ++t) {
                for (std::size_t n = 0; n < nodes; ++n) {
                    const bool dark = (n * 3 + t) % 5 == 0 ||
                        (t >= 10 && t < 15 && n < nodes / domains) ||
                        (t >= 25 && t < 28);
                    weights[n] = dark
                        ? 0.0
                        : 0.7 + 0.1 * static_cast<double>((n + 2 * t) % 7);
                }
                const std::vector<double> rps = {
                    733.3 + 17.9 * static_cast<double>(t), 0.0,
                    210.7 + 41.3 * static_cast<double>(t % 6)};
                router.routeInto(rps, weights, p99_ms, out);
                h = hashShares(out, h);
                p99_ms.assign(nodes * 3, 0.0);
                for (std::size_t n = 0; n < nodes; ++n) {
                    for (std::size_t s = 0; s < 3; ++s)
                        p99_ms[n * 3 + s] = targets[s] *
                            (0.4 + 0.3 * static_cast<double>(
                                       (n * 5 + t * 3 + s * 7) % 15));
                }
            }
        }
    }
    return h;
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

/** Twig nodes with a fixed (unprofiled) power model: the RL loop and
 * its RNG run for real, only the Eq. 2 fit is canned for speed. */
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

/** A small heterogeneous fleet under a diurnal load. */
ClusterManager
makeFleet(RoutingPolicy policy, std::size_t jobs, std::size_t nodes,
          const ClusterManager::ManagerFactory &factory,
          std::size_t steps, std::size_t domains = 1,
          const std::string &warm_checkpoint = "", bool hetero = true)
{
    const auto masstree = services::masstree();
    ClusterConfig cfg;
    cfg.router.policy = policy;
    cfg.jobs = jobs;
    cfg.router.domains = domains;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(std::make_unique<sim::DiurnalLoad>(
        masstree.maxLoadRps * static_cast<double>(nodes), 0.15, 0.4,
        steps / 2));
    ClusterManager fleet(cfg, {masstree}, std::move(loads), 42);
    std::optional<rl::Checkpoint> donor;
    if (!warm_checkpoint.empty())
        donor = rl::Checkpoint::read(warm_checkpoint);
    for (std::size_t n = 0; n < nodes; ++n) {
        sim::MachineConfig machine;
        if (hetero && n % 2 == 1)
            machine.numCores = 6;
        fleet.addNode(machine, factory, donor ? &*donor : nullptr);
    }
    return fleet;
}

/** Twig nodes frozen in exploit-only mode (the batched-inference
 * cohort precondition; combined with a shared warm-start checkpoint
 * all same-shape replicas hold identical parameters). */
ClusterManager::ManagerFactory
exploitTwigNodes(std::size_t horizon)
{
    const auto inner = twigNodes(horizon);
    return [inner](const sim::MachineConfig &machine,
                   const std::vector<sim::ServiceProfile> &svcs,
                   std::uint64_t seed)
        -> std::unique_ptr<core::TaskManager> {
        auto manager = inner(machine, svcs, seed);
        dynamic_cast<core::TwigManager &>(*manager).setExploitOnly(
            true);
        return manager;
    };
}

/** Train a small homogeneous-shape donor pair and checkpoint the
 * 18-core one (makeFleet's even-node shape). Returns the path. */
std::string
trainDonorCheckpoint(const std::string &name)
{
    const std::string path = tmpPath(name);
    auto donor_fleet =
        makeFleet(RoutingPolicy::Static, 1, 1, twigNodes(20), 20);
    donor_fleet.run(20, 5);
    auto *donor = dynamic_cast<core::TwigManager *>(
        &donor_fleet.node(0).manager());
    donor->saveCheckpoint(path);
    return path;
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

/** Runs @p a and @p b for @p steps intervals and expects them
 * bit-identical, not approximately equal: the thread count (or the
 * batching switch) must not leak into any simulated quantity. The
 * fleet-level records are compared field by field; every node's
 * telemetry (power, p99s, counts, PMCs) through the two runs'
 * oracle::FleetHasher digests. */
void
expectIdenticalRuns(ClusterManager &a, ClusterManager &b,
                    std::size_t steps, std::size_t window)
{
    oracle::FleetHasher hash_a(a);
    oracle::FleetHasher hash_b(b);
    const FleetRunResult ra = a.run(steps, window, hash_a.onStep());
    const FleetRunResult rb = b.run(steps, window, hash_b.onStep());
    ASSERT_EQ(ra.trace.size(), rb.trace.size());
    for (std::size_t t = 0; t < ra.trace.size(); ++t) {
        const auto &fa = ra.trace[t];
        const auto &fb = rb.trace[t];
        EXPECT_EQ(fa.offeredRps, fb.offeredRps) << "step " << t;
        EXPECT_EQ(fa.fleetP99Ms, fb.fleetP99Ms) << "step " << t;
        EXPECT_EQ(fa.totalPowerW, fb.totalPowerW) << "step " << t;
    }
    EXPECT_EQ(ra.metrics.windowP99Ms, rb.metrics.windowP99Ms);
    EXPECT_EQ(ra.metrics.meanPowerW, rb.metrics.meanPowerW);
    EXPECT_EQ(hash_a.run(ra), hash_b.run(rb)) << "node telemetry";
}

} // namespace

TEST(Router, PolicyNamesRoundTrip)
{
    for (const char *name : {"static", "wrr", "p2c-latency"})
        EXPECT_STREQ(routingPolicyName(routingPolicyByName(name)), name);
    EXPECT_THROW(routingPolicyByName("round-robin"), FatalError);
}

TEST(Router, StaticSplitsEqually)
{
    Router router({RoutingPolicy::Static}, {30.0, 30.0}, 1);
    const auto out = route(router, {900.0, 300.0}, {1.0, 2.0, 1.0}, {});
    ASSERT_EQ(out.size(), 3u);
    for (const auto &node : out) {
        EXPECT_DOUBLE_EQ(node[0], 300.0); // weights ignored by design
        EXPECT_DOUBLE_EQ(node[1], 100.0);
    }
}

TEST(Router, WrrIsCapacityProportionalAndConserving)
{
    Router router({RoutingPolicy::WeightedRoundRobin}, {30.0}, 1);
    const auto out = route(router, {600.0}, {2.0, 1.0}, {});
    // 2:1 weights interleave the quanta 0, 1, 0, ...: 256 quanta split
    // 171:85, the nearest 2:1 split.
    static_assert(kQuantaPerService == 256);
    const double quantum = 600.0 / 256.0;
    EXPECT_EQ(out[0][0], 171.0 * quantum);
    EXPECT_EQ(out[1][0], 85.0 * quantum);
    EXPECT_NEAR(out[0][0] + out[1][0], 600.0, 1e-9);
}

TEST(Router, P2cConservesLoadAndAvoidsTardyNodes)
{
    Router router({RoutingPolicy::PowerOfTwoLatency}, {30.0}, 7);
    // Node 2 blew its tail-latency target by 3x last interval.
    const auto out =
        route(router, {900.0}, {1.0, 1.0, 1.0}, {10.0, 10.0, 90.0});
    EXPECT_NEAR(out[0][0] + out[1][0] + out[2][0], 900.0, 1e-9);
    EXPECT_LT(out[2][0], out[0][0]);
    EXPECT_LT(out[2][0], out[1][0]);
}

TEST(Router, Validation)
{
    Router router({RoutingPolicy::Static}, {30.0}, 1);
    EXPECT_THROW(route(router, {100.0}, {}, {}), FatalError);
    EXPECT_THROW(route(router, {100.0}, {1.0, -1.0}, {}), FatalError);
    EXPECT_THROW(route(router, {-1.0}, {1.0}, {}), FatalError);
    // One RPS per QoS target, and feedback for every (node, service).
    EXPECT_THROW(route(router, {100.0, 100.0}, {1.0}, {}), FatalError);
    EXPECT_THROW(route(router, {100.0}, {1.0, 1.0}, {10.0}), FatalError);
    EXPECT_THROW(Router({RoutingPolicy::Static}, {30.0, 0.0}, 1),
                 FatalError);
}

TEST(Router, SharesMatchParentGolden)
{
    // Recorded from the two-class router (a flat Router inside each
    // domain of a ShardedRouter) before the two merged: the one class
    // must deal every share of every shape bit for bit as they did.
    // Plain double arithmetic with no GEMM, so it holds on any x86-64
    // build, FMA or not.
    EXPECT_EQ(routerGoldenHash(), 0xbbd8dfdb8d5ed0fdULL);
}

TEST(ClusterManager, ParallelSteppingIsBitIdenticalStaticNodes)
{
    auto serial = makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 3,
                            staticNodes(), 30);
    auto threaded = makeFleet(RoutingPolicy::PowerOfTwoLatency, 4, 3,
                              staticNodes(), 30);
    expectIdenticalRuns(serial, threaded, 30, 10);
}

TEST(ClusterManager, ParallelSteppingIsBitIdenticalTwigNodes)
{
    // Twig nodes exercise per-node learner RNG and training inside
    // the worker threads; results must still match the serial run.
    auto serial = makeFleet(RoutingPolicy::WeightedRoundRobin, 1, 2,
                            twigNodes(20), 20);
    auto threaded = makeFleet(RoutingPolicy::WeightedRoundRobin, 2, 2,
                              twigNodes(20), 20);
    expectIdenticalRuns(serial, threaded, 20, 5);
}

TEST(ClusterManager, MetricsCoverEveryService)
{
    auto fleet =
        makeFleet(RoutingPolicy::Static, 1, 2, staticNodes(), 20);
    const auto result = fleet.run(20, 8);
    ASSERT_EQ(result.metrics.serviceNames.size(), 1u);
    EXPECT_EQ(result.metrics.serviceNames[0], "masstree");
    EXPECT_GT(result.metrics.windowP99Ms[0], 0.0);
    EXPECT_GE(result.metrics.qosGuaranteePct[0], 0.0);
    EXPECT_LE(result.metrics.qosGuaranteePct[0], 100.0);
    EXPECT_GT(result.metrics.meanPowerW, 0.0);
    EXPECT_EQ(result.metrics.windowSteps, 8u);
    EXPECT_EQ(result.trace.size(), 20u);
}

TEST(ClusterManager, WarmStartRestoresDonorPolicy)
{
    const std::string path = tmpPath("cluster_donor.ckpt");
    auto donor_fleet = makeFleet(RoutingPolicy::Static, 1, 1,
                                 twigNodes(15), 15);
    donor_fleet.run(15, 5);
    auto *donor = dynamic_cast<core::TwigManager *>(
        &donor_fleet.node(0).manager());
    ASSERT_NE(donor, nullptr);
    donor->saveCheckpoint(path);

    const auto masstree = services::masstree();
    ClusterConfig cfg;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(
        std::make_unique<sim::FixedLoad>(masstree.maxLoadRps, 0.4));
    ClusterManager fleet(cfg, {masstree}, std::move(loads), 99);
    const rl::Checkpoint ckpt = rl::Checkpoint::read(path);
    fleet.addNode(sim::MachineConfig{}, twigNodes(15), &ckpt);

    auto *warm = dynamic_cast<core::TwigManager *>(
        &fleet.node(0).manager());
    ASSERT_NE(warm, nullptr);
    const std::vector<float> state(
        warm->learner().config().net.numAgents *
            warm->learner().config().net.stateDimPerAgent,
        0.3f);
    EXPECT_EQ(donor->learner().greedyActions(state),
              warm->learner().greedyActions(state));
}

TEST(ClusterManager, WarmStartRejectsNonTwigManagers)
{
    const auto masstree = services::masstree();
    ClusterConfig cfg;
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(
        std::make_unique<sim::FixedLoad>(masstree.maxLoadRps, 0.4));
    ClusterManager fleet(cfg, {masstree}, std::move(loads), 1);
    const auto twig = twigNodes(15)(sim::MachineConfig{}, {masstree}, 1);
    const rl::Checkpoint donor =
        dynamic_cast<const core::TwigManager &>(*twig).checkpoint();
    EXPECT_THROW(
        fleet.addNode(sim::MachineConfig{}, staticNodes(), &donor),
        FatalError);
}

TEST(ShardedRouter, OneDomainMatchesFlatRouterExactly)
{
    // domains == 1 must replay the flat router's RNG draw sequence bit
    // for bit: the fleet vectors are dealt verbatim and domain 0 draws
    // from the router's own seed. The hash was recorded while a flat
    // router and a one-domain sharded one still ran side by side and
    // agreed on every share.
    Router router({RoutingPolicy::PowerOfTwoLatency, 1}, {30.0, 30.0}, 7);

    const std::vector<double> weights = {1.0, 2.0, 1.0, 1.5, 1.0};
    std::vector<double> p99_ms;
    std::vector<std::vector<double>> out;
    std::uint64_t h = common::kFnvOffsetBasis;
    for (int interval = 0; interval < 5; ++interval) {
        const std::vector<double> rps = {900.0 + 10.0 * interval,
                                         300.0};
        router.routeInto(rps, weights, p99_ms, out);
        h = hashShares(out, h);
        // Fake p99s so later intervals exercise the latency-aware
        // branch too.
        p99_ms.assign(2 * weights.size(), 10.0);
        p99_ms[2 * 2] = 90.0;
        p99_ms[2 * 2 + 1] = 20.0;
    }
    EXPECT_EQ(h, 0xca40b5f676e1e60dULL);
}

TEST(ShardedRouter, SplitsAcrossDomainsAndConservesLoad)
{
    Router router({RoutingPolicy::PowerOfTwoLatency, 4}, {30.0, 30.0}, 11);
    const std::vector<double> weights(8, 1.0);
    std::vector<std::vector<double>> out;
    router.routeInto({800.0, 240.0}, weights, {}, out);
    ASSERT_EQ(out.size(), 8u);
    // Four domains of two equal nodes each take a quarter of every
    // service (800 * 2 / 8 and 240 * 2 / 8, exact in binary).
    for (std::size_t d = 0; d < 4; ++d) {
        EXPECT_EQ(out[2 * d][0] + out[2 * d + 1][0], 200.0) << d;
        EXPECT_EQ(out[2 * d][1] + out[2 * d + 1][1], 60.0) << d;
    }
    double total0 = 0.0, total1 = 0.0;
    for (const auto &row : out) {
        total0 += row[0];
        total1 += row[1];
    }
    EXPECT_NEAR(total0, 800.0, 1e-6);
    EXPECT_NEAR(total1, 240.0, 1e-6);
}

TEST(ShardedRouter, DomainEvictionShedsToSiblingDomains)
{
    // A domain whose every member weighs 0 must renormalise its share
    // onto the sibling domains, not abort or drop load.
    Router router({RoutingPolicy::WeightedRoundRobin, 4}, {30.0}, 3);
    std::vector<double> weights(8, 1.0);
    weights[0] = 0.0;
    weights[1] = 0.0; // domain 0 = nodes {0, 1}: takes no load
    std::vector<std::vector<double>> out;
    router.routeInto({600.0}, weights, {}, out);
    EXPECT_EQ(out[0][0], 0.0);
    EXPECT_EQ(out[1][0], 0.0);
    double total = 0.0;
    for (const auto &row : out)
        total += row[0];
    EXPECT_NEAR(total, 600.0, 1e-6);

    weights[0] = 1.0;
    router.routeInto({600.0}, weights, {}, out);
    EXPECT_GT(out[0][0], 0.0);
}

TEST(ShardedRouter, AllDomainsDownShedsTheInterval)
{
    // All-zero weights route nothing, across every domain; whether
    // that interval is a shed is the ClusterManager's call.
    Router router({RoutingPolicy::Static, 2}, {30.0}, 5);
    const std::vector<double> weights(4, 0.0);
    std::vector<std::vector<double>> out;
    router.routeInto({500.0}, weights, {}, out);
    ASSERT_EQ(out.size(), 4u);
    for (const auto &row : out)
        EXPECT_EQ(row[0], 0.0);
}

TEST(ShardedRouter, Validation)
{
    EXPECT_THROW(Router({RoutingPolicy::Static, 0}, {30.0}, 1), FatalError);

    Router too_many({RoutingPolicy::Static, 4}, {30.0}, 1);
    std::vector<std::vector<double>> out;
    EXPECT_THROW(too_many.routeInto({100.0}, {1.0, 1.0}, {}, out),
                 FatalError);

    Router fixed({RoutingPolicy::Static, 2}, {30.0}, 1);
    fixed.routeInto({100.0}, {1.0, 1.0, 1.0, 1.0}, {}, out);
    EXPECT_THROW(fixed.routeInto({100.0}, std::vector<double>(6, 1.0),
                                 {}, out),
                 FatalError); // the partition is fixed at first use
}

TEST(ClusterManager, MergeMatchesFlatNodeMerge)
{
    // The fleet's interval histogram is one merge of every node's,
    // whatever the routing domains; this checks it against a manual
    // flat merge of the node histograms, bin for bin, every step.
    auto fleet = makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 6,
                           staticNodes(), 12, /*domains=*/3);
    for (std::size_t t = 0; t < 12; ++t) {
        fleet.step();
        stats::Histogram flat = latencyHistogram(services::masstree());
        for (std::size_t n = 0; n < 6; ++n)
            flat.merge(fleet.node(n).intervalHistogram(0));

        const stats::Histogram &merged = fleet.intervalHistogram(0);
        ASSERT_EQ(merged.count(), flat.count()) << "step " << t;
        for (std::size_t b = 0; b < flat.bins(); ++b)
            ASSERT_EQ(merged.binCount(b), flat.binCount(b))
                << "step " << t << " bin " << b;
    }
}

TEST(ClusterManager, MergeSkipsCrashedNodes)
{
    // A crashed replica serves no samples: the fleet merge must equal
    // the flat merge over up nodes throughout crash and restart.
    auto fleet = makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 6,
                           staticNodes(), 16, /*domains=*/3);
    faults::FaultSpec spec;
    spec.actions.push_back(crashAction(3, 2, 5, "cold"));
    fleet.slots().setFaults(spec);
    for (std::size_t t = 0; t < 16; ++t) {
        fleet.step();
        stats::Histogram flat = latencyHistogram(services::masstree());
        for (std::size_t n = 0; n < 6; ++n) {
            if (fleet.slots().powered(n))
                flat.merge(fleet.node(n).intervalHistogram(0));
        }
        const stats::Histogram &merged = fleet.intervalHistogram(0);
        ASSERT_EQ(merged.count(), flat.count()) << "step " << t;
        for (std::size_t b = 0; b < flat.bins(); ++b)
            ASSERT_EQ(merged.binCount(b), flat.binCount(b))
                << "step " << t << " bin " << b;
        if (t == 4) {
            EXPECT_FALSE(fleet.slots().powered(2)); // mid-outage sanity
        }
    }
}

TEST(ClusterManager, HistogramCountsConserveRequestsThroughCrashAndRestart)
{
    // Every latency sample a node records is a request its interval
    // completed or dropped (timeouts are censored samples; the backlog
    // cap is never reached here), and the fleet merge keeps every
    // powered node's samples and no crashed node's, through a crash
    // and restart in each of two domains.
    auto fleet = makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 6,
                           staticNodes(), 18, /*domains=*/2);
    faults::FaultSpec spec;
    spec.actions.push_back(crashAction(2, 1, 6, "cold"));
    spec.actions.push_back(crashAction(5, 4, 4, "cold"));
    fleet.slots().setFaults(spec);
    std::size_t down_intervals = 0;
    for (std::size_t t = 0; t < 18; ++t) {
        const FleetIntervalStats &f = fleet.step();
        std::size_t powered_samples = 0;
        for (std::size_t n = 0; n < 6; ++n) {
            if (f.nodeUp[n] == 0) {
                ++down_intervals;
                continue;
            }
            const auto &svc = fleet.node(n).lastStats().services[0];
            const std::size_t count =
                fleet.node(n).intervalHistogram(0).count();
            EXPECT_EQ(count, svc.completed + svc.dropped)
                << "step " << t << " node " << n;
            powered_samples += count;
        }
        EXPECT_EQ(fleet.intervalHistogram(0).count(), powered_samples)
            << "step " << t;
    }
    EXPECT_EQ(down_intervals, 6u + 4u); // both outages were observed
}

TEST(ClusterManager, FleetP99IsTheTrailingMergeOfNodeHistograms)
{
    // By definition, the fleet p99 of an interval is the p99 of every
    // powered node's samples over the last kQosWindowIntervals
    // intervals, and the run's window p99 that of every powered
    // node's samples over the summary window. Rebuild both by hand
    // from the node histograms — a ring of flat merges — through a
    // crash and restart, on two stepping threads.
    constexpr std::size_t kSteps = 14;
    constexpr std::size_t kWindow = 6;
    auto fleet = makeFleet(RoutingPolicy::PowerOfTwoLatency, /*jobs=*/2, 6,
                           staticNodes(), kSteps, /*domains=*/3);
    faults::FaultSpec spec;
    spec.actions.push_back(crashAction(4, 1, 5, "cold"));
    fleet.slots().setFaults(spec);
    const sim::ServiceProfile masstree = services::masstree();
    std::vector<stats::Histogram> ring(sim::kQosWindowIntervals,
                                       latencyHistogram(masstree));
    stats::Histogram window = latencyHistogram(masstree);
    std::size_t down_intervals = 0;
    const FleetRunResult result = fleet.run(
        kSteps, kWindow, [&](std::size_t t, const FleetIntervalStats &f) {
            stats::Histogram &interval = ring[t % ring.size()];
            interval.clear();
            for (std::size_t n = 0; n < 6; ++n) {
                if (f.nodeUp[n] != 0)
                    interval.merge(fleet.node(n).intervalHistogram(0));
                else
                    ++down_intervals;
            }
            stats::Histogram trailing = latencyHistogram(masstree);
            for (const auto &h : ring)
                trailing.merge(h);
            EXPECT_EQ(f.fleetP99Ms[0], trailing.quantile(0.99))
                << "step " << t;
            if (t >= kSteps - kWindow)
                window.merge(interval);
        });
    EXPECT_EQ(result.metrics.windowP99Ms[0], window.quantile(0.99));
    EXPECT_EQ(down_intervals, 5u); // the outage was observed
}

TEST(ClusterManager, BatchedInferenceMatchesPerNodeDecidesExactly)
{
    // 200 intervals of a warm-started exploit-only fleet, decided two
    // ways: per-node greedy forwards vs one batched cohort GEMM per
    // interval. Every simulated quantity must be bit-identical.
    const std::string path = trainDonorCheckpoint("batch_donor.ckpt");
    auto batched =
        makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 4,
                  exploitTwigNodes(200), 200, /*domains=*/2, path,
                  /*hetero=*/false);
    auto pernode =
        makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 4,
                  exploitTwigNodes(200), 200, /*domains=*/2, path,
                  /*hetero=*/false);
    pernode.setBatchedInference(false);

    expectIdenticalRuns(batched, pernode, 200, 50);
    EXPECT_EQ(batched.batchedNodeCount(), 4u);
    EXPECT_EQ(pernode.batchedNodeCount(), 0u);
    EXPECT_GT(batched.phaseProfile().forwardCycles, 0u);
}

TEST(ClusterManager, BatchedNodeCountFollowsTheBatchingSwitch)
{
    // Four warm exploit-only replicas form one cohort; switching
    // batching off regroups them, so the next per-node interval must
    // report no batched replica, and switching it back on regroups
    // all four again.
    const std::string path = trainDonorCheckpoint("switch_donor.ckpt");
    auto fleet = makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 4,
                           exploitTwigNodes(10), 10, /*domains=*/1, path,
                           /*hetero=*/false);
    fleet.step();
    EXPECT_EQ(fleet.batchedNodeCount(), 4u);
    fleet.setBatchedInference(false);
    fleet.step();
    EXPECT_EQ(fleet.batchedNodeCount(), 0u);
    fleet.setBatchedInference(true);
    fleet.step();
    EXPECT_EQ(fleet.batchedNodeCount(), 4u);
}

TEST(ClusterManager, ParallelSteppingBitIdenticalWithDomainsAndBatching)
{
    // The full two-level path (domain routing + hierarchical merge +
    // batched cohorts) must stay bit-identical at any --jobs.
    const std::string path = trainDonorCheckpoint("jobs_donor.ckpt");
    auto serial =
        makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 4,
                  exploitTwigNodes(30), 30, /*domains=*/2, path,
                  /*hetero=*/false);
    auto threaded =
        makeFleet(RoutingPolicy::PowerOfTwoLatency, 4, 4,
                  exploitTwigNodes(30), 30, /*domains=*/2, path,
                  /*hetero=*/false);
    expectIdenticalRuns(serial, threaded, 30, 10);
}

TEST(ClusterManager, OneDomainShardedMatchesFlatReferenceControl)
{
    // One-domain fleets on the sharded control plane, pinned to golden
    // hashes of their whole history (oracle/golden_hash.hh). The
    // constants were recorded when each run was still compared live,
    // byte for byte, against the pre-sharding flat path (one flat
    // router, in-node decides, flat node merge) and matched it. Two
    // inputs: a cold, learning, mixed-shape fleet, and a warm
    // exploit-only fleet whose replicas decide through one batched
    // cohort.
    auto cold = makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 3,
                          twigNodes(25), 25);
    oracle::FleetHasher cold_hash(cold);
    EXPECT_EQ(cold_hash.run(cold.run(25, 8, cold_hash.onStep())),
              0x4ac561edbd665453ULL)
        << "cold learning fleet";

    const std::string path = trainDonorCheckpoint("flat_donor.ckpt");
    auto warm = makeFleet(RoutingPolicy::PowerOfTwoLatency, 1, 4,
                          exploitTwigNodes(100), 100, /*domains=*/1, path,
                          /*hetero=*/false);
    oracle::FleetHasher warm_hash(warm);
    const auto warm_result = warm.run(100, 25, warm_hash.onStep());
    EXPECT_EQ(warm.batchedNodeCount(), 4u);
    EXPECT_EQ(warm_hash.run(warm_result), 0x8268122c4f80cecbULL)
        << "warm exploit-only fleet";
}

TEST(ClusterManager, DomainCountMustNotExceedNodes)
{
    EXPECT_THROW(makeFleet(RoutingPolicy::Static, 1, 2, staticNodes(),
                           10, /*domains=*/4)
                     .step(),
                 FatalError);
}

TEST(ClusterManager, Validation)
{
    const auto masstree = services::masstree();
    ClusterConfig cfg;

    // One load generator per service, no more, no less.
    std::vector<std::unique_ptr<sim::LoadGenerator>> none;
    EXPECT_THROW(ClusterManager(cfg, {masstree}, std::move(none), 1),
                 FatalError);
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    loads.push_back(
        std::make_unique<sim::FixedLoad>(masstree.maxLoadRps, 0.4));
    EXPECT_THROW(ClusterManager(cfg, {}, std::move(loads), 1),
                 FatalError);

    std::vector<std::unique_ptr<sim::LoadGenerator>> one;
    one.push_back(
        std::make_unique<sim::FixedLoad>(masstree.maxLoadRps, 0.4));
    ClusterManager fleet(cfg, {masstree}, std::move(one), 1);
    EXPECT_THROW(fleet.step(), FatalError); // no nodes yet
    fleet.addNode(sim::MachineConfig{}, staticNodes());
    EXPECT_THROW(fleet.run(0, 1), FatalError);
    EXPECT_THROW(fleet.run(10, 11), FatalError);
    EXPECT_THROW(fleet.node(5), FatalError);
}
