/** @file Unit tests for the shared-resource interference model. */

#include <gtest/gtest.h>

#include "sim/interference.hh"

using namespace twig::sim;

namespace {

ServiceProfile
light()
{
    ServiceProfile p;
    p.name = "light";
    p.memTrafficPerReqMB = 0.1;
    p.llcFootprintMB = 2.0;
    p.bwSensitivity = 1.0;
    p.llcSensitivity = 0.5;
    return p;
}

ServiceProfile
heavy()
{
    ServiceProfile p;
    p.name = "heavy";
    p.memTrafficPerReqMB = 20.0;
    p.llcFootprintMB = 40.0;
    p.bwSensitivity = 0.5;
    p.llcSensitivity = 0.5;
    return p;
}

std::vector<InterferenceEffect>
evaluate(const InterferenceModel &model,
         const std::vector<InterferenceDemand> &demands)
{
    std::vector<InterferenceEffect> effects;
    model.evaluateInto(demands, effects);
    return effects;
}

} // namespace

TEST(Interference, SoloLightServiceUnaffected)
{
    MachineConfig m;
    InterferenceModel model(m);
    const auto p = light();
    const auto effects = evaluate(model, {{&p, 500.0}});
    ASSERT_EQ(effects.size(), 1u);
    EXPECT_NEAR(effects[0].serviceTimeInflation, 1.0, 0.01);
    EXPECT_NEAR(effects[0].llcMissFactor, 1.0, 0.01);
    EXPECT_NEAR(effects[0].memStallFraction, 0.0, 0.01);
}

TEST(Interference, BandwidthHogInflatesVictim)
{
    MachineConfig m;
    m.memBandwidthMBs = 40000.0;
    InterferenceModel model(m);
    const auto victim = light();
    const auto hog = heavy();
    // Hog demands 2000 * 20 MB = 40 GB/s = full bus.
    const auto effects =
        evaluate(model, {{&victim, 500.0}, {&hog, 2000.0}});
    EXPECT_GT(effects[0].serviceTimeInflation, 1.2);
    // The victim's inflation scales with its (higher) sensitivity.
    EXPECT_GT(effects[0].serviceTimeInflation - 1.0,
              (effects[1].serviceTimeInflation - 1.0) * 1.5);
}

TEST(Interference, InflationMonotoneInLoad)
{
    MachineConfig m;
    InterferenceModel model(m);
    const auto a = light();
    const auto b = heavy();
    double prev = 0.0;
    for (double rps : {500.0, 1000.0, 2000.0, 3000.0}) {
        const auto effects = evaluate(model, {{&a, 500.0}, {&b, rps}});
        EXPECT_GE(effects[0].serviceTimeInflation, prev);
        prev = effects[0].serviceTimeInflation;
    }
}

TEST(Interference, LlcOvercommitRaisesMissFactor)
{
    MachineConfig m;
    m.llcSizeMB = 45.0;
    InterferenceModel model(m);
    const auto a = heavy(); // 40 MB
    const auto b = heavy(); // 40 MB -> 80 MB on a 45 MB LLC
    const auto effects = evaluate(model, {{&a, 100.0}, {&b, 100.0}});
    EXPECT_GT(effects[0].llcMissFactor, 1.3);
}

TEST(Interference, LlcUndercommitNoPenalty)
{
    MachineConfig m;
    m.llcSizeMB = 100.0;
    InterferenceModel model(m);
    const auto a = light();
    const auto b = light();
    const auto effects = evaluate(model, {{&a, 100.0}, {&b, 100.0}});
    EXPECT_DOUBLE_EQ(effects[0].llcMissFactor, 1.0);
}

TEST(Interference, StallFractionConsistentWithInflation)
{
    MachineConfig m;
    m.memBandwidthMBs = 20000.0;
    InterferenceModel model(m);
    const auto a = light();
    const auto b = heavy();
    const auto effects = evaluate(model, {{&a, 2000.0}, {&b, 1500.0}});
    for (const auto &e : effects) {
        EXPECT_NEAR(e.memStallFraction,
                    (e.serviceTimeInflation - 1.0) /
                        e.serviceTimeInflation,
                    1e-12);
        EXPECT_GE(e.memStallFraction, 0.0);
        EXPECT_LT(e.memStallFraction, 1.0);
    }
}

TEST(Interference, EmptyDemandListIsFine)
{
    MachineConfig m;
    InterferenceModel model(m);
    // A reused buffer is emptied, not left holding stale effects.
    std::vector<InterferenceEffect> effects(3);
    model.evaluateInto({}, effects);
    EXPECT_TRUE(effects.empty());
}

TEST(Interference, BiggerFootprintSuffersMoreFromOvercommit)
{
    MachineConfig m;
    m.llcSizeMB = 45.0;
    InterferenceModel model(m);
    auto big = heavy();   // 40 MB
    auto small = light(); // 2 MB
    small.llcSensitivity = big.llcSensitivity;
    auto filler = heavy(); // force overcommit
    const auto effects = evaluate(model, 
        {{&big, 100.0}, {&small, 100.0}, {&filler, 100.0}});
    EXPECT_GT(effects[0].llcMissFactor, effects[1].llcMissFactor);
}
