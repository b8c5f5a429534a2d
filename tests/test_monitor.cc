/** @file Unit tests for Twig's system monitor. */

#include <gtest/gtest.h>

#include "core/monitor.hh"

using namespace twig::core;
using namespace twig::sim;

namespace {

PmcVector
maxima()
{
    PmcVector m;
    m.fill(100.0);
    return m;
}

PmcVector
raw(double v)
{
    PmcVector r;
    r.fill(v);
    return r;
}

} // namespace

TEST(Monitor, NormalisesToUnitRange)
{
    SystemMonitor mon(1, maxima(), 1);
    mon.update(0, raw(50.0));
    const auto s = mon.state(0);
    ASSERT_EQ(s.size(), kNumPmcs);
    for (float v : s)
        EXPECT_FLOAT_EQ(v, 0.5f);
}

TEST(Monitor, ClampsAboveCeiling)
{
    SystemMonitor mon(1, maxima(), 1);
    mon.update(0, raw(250.0));
    const auto s = mon.state(0);
    for (float v : s)
        EXPECT_FLOAT_EQ(v, 1.0f);
}

TEST(Monitor, EtaSmoothingUsesRecencyWeights)
{
    // eta = 2: weights (2/3 newest, 1/3 oldest).
    SystemMonitor mon(1, maxima(), 2);
    mon.update(0, raw(30.0));
    mon.update(0, raw(90.0));
    const auto s = mon.state(0);
    // 0.9 * 2/3 + 0.3 * 1/3 = 0.7
    for (float v : s)
        EXPECT_NEAR(v, 0.7f, 1e-5f);
}

TEST(Monitor, WindowDropsOldSamples)
{
    SystemMonitor mon(1, maxima(), 2);
    mon.update(0, raw(100.0)); // will age out
    mon.update(0, raw(0.0));
    mon.update(0, raw(0.0));
    const auto s = mon.state(0);
    for (float v : s)
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Monitor, StateBeforeFirstUpdateIsZero)
{
    SystemMonitor mon(2, maxima(), 5);
    for (float v : mon.state(1))
        EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(Monitor, JointStateConcatenatesServices)
{
    SystemMonitor mon(2, maxima(), 1);
    mon.update(0, raw(20.0));
    mon.update(1, raw(80.0));
    std::vector<float> joint;
    mon.jointStateInto(joint);
    ASSERT_EQ(joint.size(), 2 * kNumPmcs);
    EXPECT_FLOAT_EQ(joint[0], 0.2f);
    EXPECT_FLOAT_EQ(joint[kNumPmcs], 0.8f);
}

TEST(Monitor, ResetClearsOneServiceOnly)
{
    SystemMonitor mon(2, maxima(), 3);
    mon.update(0, raw(50.0));
    mon.update(1, raw(50.0));
    mon.reset(0);
    EXPECT_FLOAT_EQ(mon.state(0)[0], 0.0f);
    EXPECT_FLOAT_EQ(mon.state(1)[0], 0.5f);
}

TEST(Monitor, PartialWindowRenormalisesWeights)
{
    // With eta = 5 but a single observation, the state equals that
    // observation (weights renormalised over the available history).
    SystemMonitor mon(1, maxima(), 5);
    mon.update(0, raw(40.0));
    const auto s = mon.state(0);
    for (float v : s)
        EXPECT_NEAR(v, 0.4f, 1e-6f);
}

TEST(Monitor, Validation)
{
    EXPECT_THROW(SystemMonitor(0, maxima(), 5),
                 twig::common::FatalError);
    EXPECT_THROW(SystemMonitor(1, maxima(), 0),
                 twig::common::FatalError);
    PmcVector bad = maxima();
    bad[3] = 0.0;
    EXPECT_THROW(SystemMonitor(1, bad, 5), twig::common::FatalError);

    SystemMonitor mon(1, maxima(), 5);
    EXPECT_THROW(mon.update(1, raw(1.0)), twig::common::FatalError);
    EXPECT_THROW(mon.state(1), twig::common::FatalError);
    EXPECT_THROW(mon.reset(1), twig::common::FatalError);
}
