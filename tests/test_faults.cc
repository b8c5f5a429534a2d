/** @file Unit tests for the fault-injection subsystem (src/faults/). */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/error.hh"
#include "common/json.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_spec.hh"

using namespace twig;
using namespace twig::faults;
using twig::common::FatalError;

namespace {

/** A schedule exercising every fault kind. */
FaultSpec
fullSpec()
{
    FaultSpec spec;
    spec.checkpointEverySteps = 10;

    FaultAction crash;
    crash.kind = FaultKind::NodeCrash;
    crash.atStep = 20;
    crash.node = 1;
    crash.restartAfterSteps = 15;
    crash.recovery = "warm";
    spec.actions.push_back(crash);

    FaultAction throttle;
    throttle.kind = FaultKind::ThermalThrottle;
    throttle.atStep = 5;
    throttle.node = 0;
    throttle.durationSteps = 8;
    throttle.maxDvfsIndex = 1;
    spec.actions.push_back(throttle);

    FaultAction noise;
    noise.kind = FaultKind::PmcNoise;
    noise.atStep = 7;
    noise.node = 2;
    noise.durationSteps = 10;
    noise.sigma = 0.25;
    noise.staleProb = 0.1;
    spec.actions.push_back(noise);

    FaultAction surge;
    surge.kind = FaultKind::LoadSurge;
    surge.atStep = 12;
    surge.service = 1;
    surge.durationSteps = 6;
    surge.multiplier = 1.5;
    spec.actions.push_back(surge);

    FaultAction corrupt;
    corrupt.kind = FaultKind::CheckpointCorrupt;
    corrupt.atStep = 18;
    corrupt.node = 1;
    spec.actions.push_back(corrupt);

    return spec;
}

/** Field-by-field equality of two fault actions. */
void
expectSameAction(const FaultAction &got, const FaultAction &want)
{
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.atStep, want.atStep);
    EXPECT_EQ(got.node, want.node);
    EXPECT_EQ(got.service, want.service);
    EXPECT_EQ(got.durationSteps, want.durationSteps);
    EXPECT_EQ(got.restartAfterSteps, want.restartAfterSteps);
    EXPECT_EQ(got.recovery, want.recovery);
    EXPECT_EQ(got.maxDvfsIndex, want.maxDvfsIndex);
    EXPECT_EQ(got.sigma, want.sigma);
    EXPECT_EQ(got.staleProb, want.staleProb);
    EXPECT_EQ(got.multiplier, want.multiplier);
}

/** Events the injector reports at one step. */
std::vector<FaultEvent>
at(const FaultInjector &injector, std::size_t step)
{
    std::vector<FaultEvent> out;
    injector.eventsAt(step, out);
    return out;
}

} // namespace

TEST(FaultKind, NamesRoundTrip)
{
    for (const FaultKind kind :
         {FaultKind::NodeCrash, FaultKind::ThermalThrottle,
          FaultKind::PmcNoise, FaultKind::LoadSurge,
          FaultKind::CheckpointCorrupt})
        EXPECT_EQ(faultKindByName(faultKindName(kind)), kind);
}

TEST(FaultKind, UnknownNameListsTheValidSet)
{
    try {
        faultKindByName("gremlin");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        const std::string msg = err.what();
        EXPECT_NE(msg.find("gremlin"), std::string::npos) << msg;
        for (const char *valid :
             {"node_crash", "thermal_throttle", "pmc_noise",
              "load_surge", "checkpoint_corrupt"})
            EXPECT_NE(msg.find(valid), std::string::npos)
                << msg << " should list " << valid;
    }
}

TEST(FaultSpec, JsonRoundTripIsExact)
{
    // fullSpec() as a file writes it, every key away from its default
    // somewhere (the crash recovers cold).
    const FaultSpec back = FaultSpec::fromJson(common::Json::parse(R"({
      "checkpoint_every": 10,
      "events": [
        {"type": "node_crash", "at": 20, "node": 1, "restart_after": 15,
         "recovery": "cold"},
        {"type": "thermal_throttle", "at": 5, "node": 0, "duration": 8,
         "max_dvfs": 1},
        {"type": "pmc_noise", "at": 7, "node": 2, "duration": 10,
         "sigma": 0.25, "stale_prob": 0.1},
        {"type": "load_surge", "at": 12, "service": 1, "duration": 6,
         "multiplier": 1.5},
        {"type": "checkpoint_corrupt", "at": 18, "node": 1}
      ]
    })"));
    FaultSpec spec = fullSpec();
    spec.actions[0].recovery = "cold";
    EXPECT_EQ(back.checkpointEverySteps, spec.checkpointEverySteps);
    ASSERT_EQ(back.actions.size(), spec.actions.size());
    for (std::size_t i = 0; i < spec.actions.size(); ++i) {
        SCOPED_TRACE(faultKindName(spec.actions[i].kind));
        expectSameAction(back.actions[i], spec.actions[i]);
    }

    // Keys left out keep their defaults.
    const FaultSpec bare = FaultSpec::fromJson(common::Json::parse(
        R"({"events": [{"type": "thermal_throttle", "at": 3}]})"));
    EXPECT_EQ(bare.checkpointEverySteps, 0u);
    ASSERT_EQ(bare.actions.size(), 1u);
    FaultAction throttle;
    throttle.kind = FaultKind::ThermalThrottle;
    throttle.atStep = 3;
    expectSameAction(bare.actions[0], throttle);
}

TEST(FaultSpec, UnknownTypeInJsonIsFatal)
{
    const auto j = common::Json::parse(
        R"({"events": [{"type": "quantum_flux", "at": 3}]})");
    EXPECT_THROW(FaultSpec::fromJson(j), FatalError);
}

TEST(FaultSpec, EmptyDetection)
{
    FaultSpec spec;
    EXPECT_TRUE(spec.empty());
    spec.checkpointEverySteps = 5;
    EXPECT_FALSE(spec.empty());
}

TEST(FaultSpec, ValidateAcceptsTheFullSchedule)
{
    EXPECT_EQ(fullSpec().validate(4, 2), "");
}

TEST(FaultSpec, ValidateCatchesBadSchedules)
{
    {
        FaultSpec spec = fullSpec();
        spec.actions[0].node = 4; // fleet has nodes 0..3
        EXPECT_NE(spec.validate(4, 2), "");
    }
    {
        FaultSpec spec = fullSpec();
        spec.actions[3].service = 2; // services 0..1
        EXPECT_NE(spec.validate(4, 2), "");
    }
    {
        FaultSpec spec = fullSpec();
        spec.actions[1].durationSteps = 0; // throttle needs a window
        EXPECT_NE(spec.validate(4, 2), "");
    }
    {
        FaultSpec spec = fullSpec();
        spec.actions[0].recovery = "lukewarm";
        EXPECT_NE(spec.validate(4, 2), "");
    }
    {
        FaultSpec spec = fullSpec();
        spec.actions[2].sigma = 0.0; // noise without sigma or staleness
        spec.actions[2].staleProb = 0.0;
        EXPECT_NE(spec.validate(4, 2), "");
    }
    {
        FaultSpec spec = fullSpec();
        spec.actions[2].staleProb = 1.5; // probability out of range
        EXPECT_NE(spec.validate(4, 2), "");
    }
    {
        FaultSpec spec = fullSpec();
        spec.actions[3].multiplier = 0.0; // surge must scale something
        EXPECT_NE(spec.validate(4, 2), "");
    }
}

TEST(FaultInjector, ExpandsTheScheduleIntoTimedTransitions)
{
    const FaultInjector injector(fullSpec(), 42);

    const auto throttle_start = at(injector, 5);
    ASSERT_EQ(throttle_start.size(), 1u);
    EXPECT_EQ(throttle_start[0].kind, FaultEventKind::ThrottleStart);
    EXPECT_EQ(throttle_start[0].node, 0);
    EXPECT_EQ(throttle_start[0].value, 1.0); // max DVFS index

    const auto throttle_end = at(injector, 13);
    ASSERT_EQ(throttle_end.size(), 1u);
    EXPECT_EQ(throttle_end[0].kind, FaultEventKind::ThrottleEnd);

    const auto crash = at(injector, 20);
    ASSERT_EQ(crash.size(), 1u);
    EXPECT_EQ(crash[0].kind, FaultEventKind::NodeCrash);
    EXPECT_EQ(crash[0].node, 1);

    const auto restart = at(injector, 35);
    ASSERT_EQ(restart.size(), 1u);
    EXPECT_EQ(restart[0].kind, FaultEventKind::NodeRestart);
    EXPECT_EQ(restart[0].note, "warm");

    const auto surge_start = at(injector, 12);
    ASSERT_EQ(surge_start.size(), 1u);
    EXPECT_EQ(surge_start[0].kind, FaultEventKind::SurgeStart);
    EXPECT_EQ(surge_start[0].service, 1);
    EXPECT_EQ(surge_start[0].value, 1.5);

    EXPECT_TRUE(at(injector, 3).empty());
    EXPECT_TRUE(at(injector, 36).empty());
}

TEST(FaultInjector, CrashWithoutRestartNeverComesBack)
{
    FaultSpec spec;
    FaultAction crash;
    crash.kind = FaultKind::NodeCrash;
    crash.atStep = 4;
    crash.node = 0;
    crash.restartAfterSteps = 0;
    spec.actions.push_back(crash);

    const FaultInjector injector(spec, 1);
    EXPECT_EQ(at(injector, 4).size(), 1u);
    for (std::size_t step = 5; step < 50; ++step)
        EXPECT_TRUE(at(injector, step).empty()) << "step " << step;
}

TEST(FaultInjector, PmcNoiseSeedsAreDerivedAndReproducible)
{
    FaultSpec spec;
    for (std::size_t i = 0; i < 2; ++i) {
        FaultAction noise;
        noise.kind = FaultKind::PmcNoise;
        noise.atStep = 3 + i * 10;
        noise.node = i;
        noise.durationSteps = 4;
        noise.sigma = 0.2;
        spec.actions.push_back(noise);
    }

    const FaultInjector a(spec, 7);
    const FaultInjector b(spec, 7);
    const FaultInjector c(spec, 8);
    const auto first_a = at(a, 3);
    const auto second_a = at(a, 13);
    ASSERT_EQ(first_a.size(), 1u);
    ASSERT_EQ(second_a.size(), 1u);
    EXPECT_NE(first_a[0].seed, 0u);
    // Distinct actions draw from distinct noise streams...
    EXPECT_NE(first_a[0].seed, second_a[0].seed);
    // ...the same schedule at the same seed replays identically...
    EXPECT_EQ(first_a[0], at(b, 3)[0]);
    // ...and a different base seed shifts every derived seed.
    EXPECT_NE(first_a[0].seed, at(c, 3)[0].seed);
}
