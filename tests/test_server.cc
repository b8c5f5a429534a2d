/** @file Unit tests for the composed server simulator. */

#include <gtest/gtest.h>

#include <memory>

#include "services/tailbench.hh"
#include "sim/loadgen.hh"
#include "sim/server.hh"

using namespace twig::sim;

namespace {

CoreAssignment
allCores(const MachineConfig &m)
{
    CoreAssignment a;
    for (std::size_t i = 0; i < m.numCores; ++i)
        a.dedicatedCores.push_back(i);
    a.freqGhz = m.dvfs.maxGhz;
    a.sharedFreqGhz = a.freqGhz;
    return a;
}

} // namespace

TEST(Server, RunsOneServiceAndReportsTelemetry)
{
    MachineConfig m;
    Server server(m, 1);
    const auto profile = twig::services::masstree();
    server.addService(profile, std::make_unique<FixedLoad>(
                                   profile.maxLoadRps, 0.5));
    const auto stats = server.runInterval({allCores(m)});
    ASSERT_EQ(stats.services.size(), 1u);
    const auto &s = stats.services[0];
    EXPECT_EQ(s.name, "masstree");
    EXPECT_NEAR(s.offeredRps, 1200.0, 1e-9);
    EXPECT_GT(s.completed, 900u);
    EXPECT_GT(s.p99Ms, 0.0);
    EXPECT_GT(s.pmcs[0], 0.0);
    EXPECT_GT(stats.socketPowerW, 20.0);
    EXPECT_EQ(stats.step, 0u);
    EXPECT_EQ(server.step(), 1u);
}

TEST(Server, EnergyAccumulatesAcrossIntervals)
{
    MachineConfig m;
    Server server(m, 2);
    const auto profile = twig::services::xapian();
    server.addService(profile, std::make_unique<FixedLoad>(
                                   profile.maxLoadRps, 0.2));
    const auto s1 = server.runInterval({allCores(m)});
    const auto s2 = server.runInterval({allCores(m)});
    EXPECT_GT(s2.energyJoules, s1.energyJoules);
    EXPECT_NEAR(s2.energyJoules - s1.energyJoules,
                s2.socketPowerW * m.intervalSeconds, 1e-9);
}

TEST(Server, AssignmentCountMustMatchServices)
{
    MachineConfig m;
    Server server(m, 3);
    server.addService(twig::services::moses(),
                      std::make_unique<FixedLoad>(1000.0, 0.5));
    EXPECT_THROW(server.runInterval({}), twig::common::FatalError);
    EXPECT_THROW(server.runInterval({allCores(m), allCores(m)}),
                 twig::common::FatalError);
}

TEST(Server, RejectsOutOfRangeCoreIds)
{
    MachineConfig m;
    Server server(m, 4);
    server.addService(twig::services::moses(),
                      std::make_unique<FixedLoad>(1000.0, 0.2));
    CoreAssignment bad;
    bad.dedicatedCores = {m.numCores}; // one past the end
    bad.freqGhz = 2.0;
    EXPECT_THROW(server.runInterval({bad}), twig::common::FatalError);
}

TEST(Server, OfferedRpsFollowsLoadGenerator)
{
    MachineConfig m;
    Server server(m, 5);
    server.addService(twig::services::imgdnn(),
                      std::make_unique<RampLoad>(1000.0, 0.0, 1.0, 10));
    EXPECT_DOUBLE_EQ(server.runInterval({allCores(m)}).services[0].offeredRps,
                     0.0);
    EXPECT_DOUBLE_EQ(server.runInterval({allCores(m)}).services[0].offeredRps,
                     100.0);
}

TEST(Server, ColocatedServicesInterfere)
{
    // Masstree colocated with a bandwidth hog must see higher latency
    // than masstree solo with the same core split.
    MachineConfig m;
    const auto mt = twig::services::masstree();
    const auto mo = twig::services::moses();

    CoreAssignment half_a, half_b;
    for (std::size_t i = 0; i < 9; ++i) {
        half_a.dedicatedCores.push_back(i);
        half_b.dedicatedCores.push_back(9 + i);
    }
    half_a.freqGhz = half_a.sharedFreqGhz = 2.0;
    half_b.freqGhz = half_b.sharedFreqGhz = 2.0;

    Server solo(m, 6);
    solo.addService(mt,
                    std::make_unique<FixedLoad>(mt.maxLoadRps, 0.5));
    Server coloc(m, 6);
    coloc.addService(mt,
                     std::make_unique<FixedLoad>(mt.maxLoadRps, 0.5));
    coloc.addService(mo,
                     std::make_unique<FixedLoad>(mo.maxLoadRps, 0.8));

    double p99_solo = 0.0, p99_coloc = 0.0;
    for (int i = 0; i < 8; ++i) {
        p99_solo = solo.runInterval({half_a}).services[0].p99Ms;
        p99_coloc =
            coloc.runInterval({half_a, half_b}).services[0].p99Ms;
    }
    EXPECT_GT(p99_coloc, p99_solo * 1.1);
}

TEST(Server, ReplaceServiceResetsBacklog)
{
    MachineConfig m;
    Server server(m, 7);
    const auto profile = twig::services::masstree();
    server.addService(profile, std::make_unique<FixedLoad>(
                                   profile.maxLoadRps, 0.9));
    // Starve it to build a backlog.
    CoreAssignment one;
    one.dedicatedCores = {0};
    one.freqGhz = one.sharedFreqGhz = 1.2;
    auto stats = server.runInterval({one});
    EXPECT_GT(stats.services[0].queuedAtEnd, 100u);

    server.replaceService(0, twig::services::xapian(),
                          std::make_unique<FixedLoad>(100.0, 0.1));
    stats = server.runInterval({allCores(m)});
    EXPECT_EQ(stats.services[0].name, "xapian");
    EXPECT_LT(stats.services[0].p99Ms, 200.0);
}

TEST(Server, AttributedPowerIsPlausible)
{
    MachineConfig m;
    Server server(m, 8);
    const auto profile = twig::services::moses();
    server.addService(profile, std::make_unique<FixedLoad>(
                                   profile.maxLoadRps, 0.5));
    const auto stats = server.runInterval({allCores(m)});
    EXPECT_GT(stats.services[0].attributedPowerW, 0.0);
    EXPECT_LT(stats.services[0].attributedPowerW, stats.socketPowerW);
}

TEST(Server, DeterministicGivenSeed)
{
    MachineConfig m;
    auto make = [&m]() {
        auto server = std::make_unique<Server>(m, 99);
        const auto p = twig::services::masstree();
        server->addService(
            p, std::make_unique<FixedLoad>(p.maxLoadRps, 0.5));
        return server;
    };
    auto a = make(), b = make();
    for (int i = 0; i < 5; ++i) {
        const auto sa = a->runInterval({allCores(m)});
        const auto sb = b->runInterval({allCores(m)});
        EXPECT_DOUBLE_EQ(sa.services[0].p99Ms, sb.services[0].p99Ms);
        EXPECT_DOUBLE_EQ(sa.socketPowerW, sb.socketPowerW);
        EXPECT_DOUBLE_EQ(sa.services[0].pmcs[0], sb.services[0].pmcs[0]);
    }
}

TEST(Server, ProfileAccessorValidation)
{
    MachineConfig m;
    Server server(m, 10);
    EXPECT_THROW(server.profile(0), twig::common::FatalError);
    EXPECT_THROW(server.replaceService(
                     0, twig::services::moses(),
                     std::make_unique<FixedLoad>(1.0, 1.0)),
                 twig::common::FatalError);
}

TEST(Server, SharedPoolSplitsByCoRunnerDemand)
{
    // Two services share the arbitration pool; the lighter one should
    // see most of the pool as usable (work-conserving capacity split)
    // and meet a latency it could never meet at a naive 1/K share.
    MachineConfig m;
    Server server(m, 31);
    const auto mt = twig::services::masstree();
    const auto xa = twig::services::xapian();
    server.addService(mt,
                      std::make_unique<FixedLoad>(mt.maxLoadRps, 0.3));
    server.addService(xa,
                      std::make_unique<FixedLoad>(xa.maxLoadRps, 0.1));

    // Both request everything: the mapper-style outcome is one big
    // shared pool.
    CoreAssignment shared_all;
    for (std::size_t i = 0; i < m.numCores; ++i)
        shared_all.sharedCores.push_back(i);
    shared_all.shareCount = 2;
    shared_all.freqGhz = shared_all.sharedFreqGhz = m.dvfs.maxGhz;

    double p99_mt = 0.0, p99_xa = 0.0, eff_mt = 0.0;
    for (int i = 0; i < 10; ++i) {
        const auto s = server.runInterval({shared_all, shared_all});
        p99_mt = s.services[0].p99Ms;
        p99_xa = s.services[1].p99Ms;
        eff_mt = s.services[0].effectiveCores;
    }
    // Light co-runner: masstree keeps most of the pool...
    EXPECT_GT(eff_mt, 12.0);
    // ...and both meet their targets comfortably.
    EXPECT_LT(p99_mt, mt.qosTargetMs);
    EXPECT_LT(p99_xa, xa.qosTargetMs);
}
