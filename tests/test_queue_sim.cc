/** @file Unit tests for the event-driven request queue simulator. */

#include <gtest/gtest.h>

#include <numeric>

#include "common/error.hh"
#include "common/rng.hh"
#include "stats/summary.hh"
#include "sim/queue_sim.hh"
#include "stats/summary.hh"

using namespace twig::sim;
using twig::common::Rng;

namespace {

ServiceProfile
testProfile()
{
    ServiceProfile p;
    p.name = "test";
    p.maxLoadRps = 1000.0;
    p.qosTargetMs = 20.0;
    p.baseServiceTimeMs = 5.0;
    p.serviceTimeCv = 0.3;
    p.freqExponent = 1.0;
    p.timeoutMs = 1000.0;
    return p;
}

CoreAssignment
dedicated(std::size_t n, double ghz = 2.0)
{
    CoreAssignment a;
    for (std::size_t i = 0; i < n; ++i)
        a.dedicatedCores.push_back(i);
    a.freqGhz = ghz;
    a.sharedFreqGhz = ghz;
    return a;
}

double
runP99(RequestQueueSim &sim, double rps, const CoreAssignment &a,
       std::size_t intervals, double inflation = 1.0)
{
    double p99 = 0.0;
    for (std::size_t i = 0; i < intervals; ++i)
        p99 = sim.run(static_cast<double>(i), 1.0, rps, a, inflation)
                  .p99Ms;
    return p99;
}

} // namespace

TEST(QueueSim, LightLoadLatencyNearServiceTime)
{
    RequestQueueSim sim(testProfile(), Rng(1), 2.0);
    // 100 RPS on 8 cores: rho = 100*5ms/8 = 0.0625 -> no queueing.
    const auto r = sim.run(0.0, 1.0, 100.0, dedicated(8), 1.0);
    EXPECT_GT(r.completed, 50u);
    const double mean_ms =
        std::accumulate(r.latenciesMs.begin(), r.latenciesMs.end(), 0.0) /
        static_cast<double>(r.latenciesMs.size());
    EXPECT_NEAR(mean_ms, 5.0, 1.5);
    EXPECT_LT(r.p99Ms, 15.0);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_LT(r.queuedAtEnd, 5u);
}

TEST(QueueSim, MoreCoresLowerLatency)
{
    // Near the knee, adding cores must cut the tail.
    RequestQueueSim sim_few(testProfile(), Rng(2), 2.0);
    RequestQueueSim sim_many(testProfile(), Rng(2), 2.0);
    const double p99_few = runP99(sim_few, 700.0, dedicated(4), 6);
    const double p99_many = runP99(sim_many, 700.0, dedicated(8), 6);
    EXPECT_LT(p99_many, p99_few);
}

TEST(QueueSim, HigherFrequencyLowerLatency)
{
    RequestQueueSim slow(testProfile(), Rng(3), 2.0);
    RequestQueueSim fast(testProfile(), Rng(3), 2.0);
    const double p99_slow = runP99(slow, 800.0, dedicated(6, 1.2), 6);
    const double p99_fast = runP99(fast, 800.0, dedicated(6, 2.0), 6);
    EXPECT_LT(p99_fast, p99_slow);
}

TEST(QueueSim, FrequencyScalesServiceTime)
{
    auto p = testProfile();
    p.serviceTimeCv = 0.01; // nearly deterministic
    RequestQueueSim sim(p, Rng(4), 2.0);
    const auto r = sim.run(0.0, 1.0, 50.0, dedicated(8, 1.0), 1.0);
    // At 1.0 GHz the 5 ms service takes 10 ms (mean on-core time per
    // started request; dedicated cores occupy their whole core).
    EXPECT_NEAR(1000.0 * r.busyCoreSeconds /
                    static_cast<double>(r.completed),
                10.0, 0.5);
}

TEST(QueueSim, InterferenceInflatesServiceTime)
{
    auto p = testProfile();
    p.serviceTimeCv = 0.01;
    RequestQueueSim sim(p, Rng(5), 2.0);
    const auto r = sim.run(0.0, 1.0, 50.0, dedicated(8), 1.5);
    EXPECT_NEAR(1000.0 * r.busyCoreSeconds /
                    static_cast<double>(r.completed),
                7.5, 0.5);
}

TEST(QueueSim, OverloadEscalatesAcrossIntervals)
{
    auto p = testProfile();
    p.timeoutMs = 1e9; // no timeout: watch the raw blow-up
    RequestQueueSim sim(p, Rng(6), 2.0);
    // 2 cores at 1000 RPS: rho = 2.5 — hopeless.
    const auto r1 = sim.run(0.0, 1.0, 1000.0, dedicated(2), 1.0);
    const auto r2 = sim.run(1.0, 1.0, 1000.0, dedicated(2), 1.0);
    const auto r3 = sim.run(2.0, 1.0, 1000.0, dedicated(2), 1.0);
    EXPECT_GT(r2.p99Ms, r1.p99Ms);
    EXPECT_GT(r3.p99Ms, r2.p99Ms);
    EXPECT_GT(r3.queuedAtEnd, r1.queuedAtEnd);
}

TEST(QueueSim, TimeoutCensorsLatencyAndCountsDrops)
{
    RequestQueueSim sim(testProfile(), Rng(7), 2.0);
    std::size_t dropped = 0;
    double p99 = 0.0;
    for (int i = 0; i < 6; ++i) {
        const auto r = sim.run(i, 1.0, 1000.0, dedicated(2), 1.0);
        dropped += r.dropped;
        p99 = r.p99Ms;
    }
    EXPECT_GT(dropped, 100u);
    // Censored at timeout (plus the oldest-pending overload signal,
    // bounded by timeout + interval).
    EXPECT_LE(p99, 2100.0);
}

TEST(QueueSim, BacklogDrainsAfterRecovery)
{
    RequestQueueSim sim(testProfile(), Rng(8), 2.0);
    // Starve for two intervals, then allocate generously.
    sim.run(0.0, 1.0, 800.0, dedicated(1), 1.0);
    sim.run(1.0, 1.0, 800.0, dedicated(1), 1.0);
    EXPECT_GT(sim.backlog(), 100u);
    double p99 = 0.0;
    for (int i = 2; i < 7; ++i)
        p99 = sim.run(i, 1.0, 200.0, dedicated(12), 1.0).p99Ms;
    EXPECT_LT(sim.backlog(), 10u);
    EXPECT_LT(p99, 30.0);
}

TEST(QueueSim, SharedCoresAreSlower)
{
    auto p = testProfile();
    p.serviceTimeCv = 0.05;
    RequestQueueSim ded(p, Rng(9), 2.0);
    RequestQueueSim shr(p, Rng(9), 2.0);

    CoreAssignment shared;
    shared.sharedCores = {0, 1, 2, 3};
    shared.shareCount = 2;
    shared.freqGhz = 2.0;
    shared.sharedFreqGhz = 2.0;
    shared.sharedUsableCores = 2.0; // co-runner eats half the pool

    const double p99_ded = runP99(ded, 300.0, dedicated(4), 5);
    double p99_shr = 0.0;
    for (int i = 0; i < 5; ++i)
        p99_shr = shr.run(i, 1.0, 300.0, shared, 1.0).p99Ms;
    EXPECT_GT(p99_shr, p99_ded);
}

TEST(QueueSim, ZeroCoresJustQueues)
{
    RequestQueueSim sim(testProfile(), Rng(10), 2.0);
    CoreAssignment none;
    const auto r = sim.run(0.0, 1.0, 100.0, none, 1.0);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_GT(r.queuedAtEnd, 50u);
    EXPECT_GT(r.p99Ms, 0.0);
}

TEST(QueueSim, DeterministicGivenSeed)
{
    RequestQueueSim a(testProfile(), Rng(11), 2.0);
    RequestQueueSim b(testProfile(), Rng(11), 2.0);
    const auto ra = a.run(0.0, 1.0, 500.0, dedicated(6), 1.0);
    const auto rb = b.run(0.0, 1.0, 500.0, dedicated(6), 1.0);
    EXPECT_EQ(ra.completed, rb.completed);
    EXPECT_DOUBLE_EQ(ra.p99Ms, rb.p99Ms);
    EXPECT_DOUBLE_EQ(ra.busyCoreSeconds, rb.busyCoreSeconds);
}

TEST(QueueSim, BusyTimeTracksWork)
{
    auto p = testProfile();
    p.serviceTimeCv = 0.05;
    RequestQueueSim sim(p, Rng(12), 2.0);
    const auto r = sim.run(0.0, 1.0, 400.0, dedicated(8), 1.0);
    // ~400 requests x 5 ms = ~2.0 core-seconds.
    EXPECT_NEAR(r.busyCoreSeconds,
                static_cast<double>(r.completed) * 0.005, 0.3);
}

TEST(QueueSim, Validation)
{
    RequestQueueSim sim(testProfile(), Rng(14), 2.0);
    EXPECT_THROW(sim.run(0.0, 0.0, 10.0, dedicated(1), 1.0),
                 twig::common::FatalError);
    EXPECT_THROW(sim.run(0.0, 1.0, 10.0, dedicated(1), 0.5),
                 twig::common::FatalError);
    auto bad = testProfile();
    bad.baseServiceTimeMs = 0.0;
    EXPECT_THROW(RequestQueueSim(bad, Rng(15), 2.0),
                 twig::common::FatalError);
    EXPECT_THROW(RequestQueueSim(testProfile(), Rng(16), 0.0),
                 twig::common::FatalError);
}

class QueueLoadSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(QueueLoadSweep, ServedMatchesOfferedUnderCapacity)
{
    // Property: below the knee, completions track arrivals.
    RequestQueueSim sim(testProfile(), Rng(17), 2.0);
    const double rps = GetParam();
    std::size_t arrivals = 0, completed = 0;
    for (int i = 0; i < 10; ++i) {
        const auto r = sim.run(i, 1.0, rps, dedicated(12), 1.0);
        arrivals += r.arrivals;
        completed += r.completed;
    }
    EXPECT_NEAR(static_cast<double>(completed),
                static_cast<double>(arrivals),
                0.05 * static_cast<double>(arrivals) + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Loads, QueueLoadSweep,
                         ::testing::Values(100.0, 400.0, 800.0, 1200.0,
                                           1600.0, 2000.0));

TEST(QueueSim, DispatchAvoidsSlowFractionalCore)
{
    // Regression test: with a fractional (slow) pool core present, the
    // dispatcher must prefer full-speed cores at low load — an
    // earliest-free rule funnels requests onto the slow core because
    // it is idle precisely when it is slow.
    auto p = testProfile();
    p.serviceTimeCv = 0.05;
    RequestQueueSim sim(p, Rng(18), 2.0);

    CoreAssignment mixed;
    mixed.dedicatedCores = {0, 1, 2, 3};
    mixed.sharedCores = {4};
    mixed.shareCount = 2;
    mixed.sharedUsableCores = 0.1; // a 10x-slow fractional core
    mixed.freqGhz = mixed.sharedFreqGhz = 2.0;

    double p99 = 0.0;
    for (int i = 0; i < 6; ++i)
        p99 = sim.run(i, 1.0, 100.0, mixed, 1.0).p99Ms;
    // 100 RPS on 4 full cores: no queueing; a request on the slow core
    // would take ~50 ms and poison the p99.
    EXPECT_LT(p99, 15.0);
}

TEST(QueueSim, SlowCoreUsedWhenFastOnesSaturate)
{
    // Work conservation: when the full-speed cores are overloaded, the
    // fractional core still contributes capacity.
    auto p = testProfile();
    p.serviceTimeCv = 0.05;
    RequestQueueSim with_frac(p, Rng(19), 2.0);
    RequestQueueSim without(p, Rng(19), 2.0);

    CoreAssignment mixed;
    mixed.dedicatedCores = {0, 1, 2, 3};
    mixed.sharedCores = {4};
    mixed.shareCount = 2;
    mixed.sharedUsableCores = 0.5;
    mixed.freqGhz = mixed.sharedFreqGhz = 2.0;

    std::size_t completed_with = 0, completed_without = 0;
    for (int i = 0; i < 8; ++i) {
        completed_with +=
            with_frac.run(i, 1.0, 900.0, mixed, 1.0).completed;
        completed_without +=
            without.run(i, 1.0, 900.0, dedicated(4), 1.0).completed;
    }
    EXPECT_GT(completed_with, completed_without);
}

class LittlesLawSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(LittlesLawSweep, MeanLatencyMatchesLittlesLaw)
{
    // Property: in steady state, mean time in system ~= L / lambda.
    // We check the weaker, directly-measurable form: mean latency is
    // at least the mean service time and within a small factor of the
    // M/M/c-style expectation at moderate utilisation.
    auto p = testProfile();
    p.serviceTimeCv = 0.4;
    RequestQueueSim sim(p, Rng(21), 2.0);
    const double rho = GetParam();
    const double rps = rho * 12.0 / (p.baseServiceTimeMs * 1e-3);

    twig::stats::RunningStats lat;
    for (int i = 0; i < 12; ++i) {
        const auto r = sim.run(i, 1.0, rps, dedicated(12), 1.0);
        if (i >= 2) {
            for (double l : r.latenciesMs)
                lat.add(l);
        }
    }
    EXPECT_GT(lat.mean(), 0.9 * p.baseServiceTimeMs);
    // Waiting grows with rho, but stays bounded well below the knee.
    EXPECT_LT(lat.mean(), 3.0 * p.baseServiceTimeMs);
}

INSTANTIATE_TEST_SUITE_P(Utilisations, LittlesLawSweep,
                         ::testing::Values(0.2, 0.4, 0.6, 0.75));
