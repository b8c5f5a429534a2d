/** @file Tests for harness::SimProfile share reporting, the agent
 * phase counters, the SimProfileSink share budget, and strict parsing
 * of the profiling flags (tools' --sim-profile /
 * --profile-max-share). */

#include <gtest/gtest.h>

#include "common/flags.hh"
#include "common/sim_counters.hh"
#include "core/twig_manager.hh"
#include "harness/engine.hh"
#include "harness/sim_profile.hh"
#include "services/microbench.hh"
#include "services/tailbench.hh"

using namespace twig;
using common::simprof::Phase;

namespace {

/** Zero all counters, then credit @p cycles to @p phase. */
void
credit(Phase phase, std::uint64_t cycles)
{
    common::simprof::counter(phase).cycles.fetch_add(cycles);
    common::simprof::counter(phase).calls.fetch_add(1);
}

/** Build a snapshot with a known distribution: dispatch 60%,
 * draws 30%, quantile 10%. */
harness::SimProfile
knownDistribution()
{
    common::simprof::resetAll();
    credit(Phase::Dispatch, 600);
    credit(Phase::Draws, 300);
    credit(Phase::Quantile, 100);
    return harness::SimProfile::snapshot();
}

/** A fast-preset Twig-S manager with a hand-set Eq. 2 model, so the
 * counter tests skip the profiling campaign. */
std::unique_ptr<core::TwigManager>
quickTwig(std::size_t steps)
{
    const sim::MachineConfig machine;
    const auto profile = services::masstree();
    core::TwigServiceSpec spec;
    spec.name = profile.name;
    spec.qosTargetMs = profile.qosTargetMs;
    spec.maxLoadRps = profile.maxLoadRps;
    spec.powerModel = core::ServicePowerModel(11.0, 0.9, 2.3);
    return std::make_unique<core::TwigManager>(
        core::TwigConfig::fast(steps), machine,
        services::calibrateCounterMaxima(machine),
        std::vector<core::TwigServiceSpec>{spec}, 7);
}

/** Run @p twig through a fixed-seed @p steps-interval engine run of
 * Masstree at 50 % load. */
void
runTwigS(core::TwigManager &twig, std::size_t steps)
{
    harness::ScenarioSpec spec;
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    load.fraction = 0.5;
    spec.services.push_back(load);
    spec.manager = "twig";
    spec.steps = steps;
    spec.seed = 11;
    harness::EngineOptions opts;
    opts.managerOverride = &twig;
    harness::Engine(opts).run(spec);
}

/** Run the parser over an argv-style array. */
common::FlagParser::Result
parseArgs(std::vector<const char *> argv, bool *sim_profile,
          double *max_share)
{
    common::FlagParser parser;
    parser.addBool("--sim-profile", sim_profile, "breakdown");
    parser.addDouble("--profile-max-share", max_share, "budget");
    argv.insert(argv.begin(), "prog");
    return parser.parse(static_cast<int>(argv.size()),
                        const_cast<char **>(argv.data()));
}

} // namespace

TEST(SimProfileShares, SharePctMatchesDistribution)
{
    const auto prof = knownDistribution();
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Dispatch), 60.0);
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Draws), 30.0);
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Quantile), 10.0);
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Arrivals), 0.0);
    common::simprof::resetAll();
}

TEST(SimProfileShares, EmptyProfileHasZeroShares)
{
    common::simprof::resetAll();
    const auto prof = harness::SimProfile::snapshot();
    EXPECT_DOUBLE_EQ(prof.sharePct(Phase::Dispatch), 0.0);
    EXPECT_TRUE(prof.phasesAbove(0.0).empty());
}

TEST(SimProfileShares, PhasesAboveIsStrictAndOrdered)
{
    const auto prof = knownDistribution();
    // Strictly above: a threshold equal to a phase's share does not
    // flag it.
    EXPECT_TRUE(prof.phasesAbove(60.0).empty());

    const auto over25 = prof.phasesAbove(25.0);
    ASSERT_EQ(over25.size(), 2u);
    EXPECT_EQ(over25[0], Phase::Dispatch);
    EXPECT_EQ(over25[1], Phase::Draws);

    EXPECT_EQ(prof.phasesAbove(5.0).size(), 3u);
    EXPECT_EQ(prof.phasesAbove(100.0).size(), 0u);
    common::simprof::resetAll();
}

TEST(SimProfileCounters, NothingRecordsWhenOff)
{
    auto twig = quickTwig(80);
    common::simprof::resetAll();
    common::simprof::setEnabled(false);
    runTwigS(*twig, 80);
    for (std::size_t i = 0; i < common::simprof::kNumPhases; ++i) {
        const auto &c = common::simprof::counter(static_cast<Phase>(i));
        EXPECT_EQ(c.cycles.load(), 0u) << common::simprof::phaseName(
            static_cast<Phase>(i));
        EXPECT_EQ(c.calls.load(), 0u) << common::simprof::phaseName(
            static_cast<Phase>(i));
    }
}

TEST(SimProfileCounters, TwigSRunCountsAgentPhases)
{
    constexpr std::size_t kSteps = 80;
    auto twig = quickTwig(kSteps);
    harness::SimProfile::reset();
    harness::SimProfile::enable();
    runTwigS(*twig, kSteps);
    harness::SimProfile::disable();
    const auto prof = harness::SimProfile::snapshot();
    common::simprof::resetAll();

    // Interval s closes transition s; with the replay below capacity
    // it then holds s transitions.
    const rl::BdqLearnerConfig &cfg = twig->learner().config();
    std::uint64_t gradient_steps = 0;
    for (std::size_t s = 1; s < kSteps; ++s) {
        if (s >= cfg.minReplayBeforeTraining && s % cfg.trainEvery == 0)
            gradient_steps += cfg.gradientStepsPerTrain;
    }
    ASSERT_GT(gradient_steps, 0u);
    EXPECT_EQ(prof.phase(Phase::Adam).calls, gradient_steps);
    EXPECT_EQ(prof.phase(Phase::TrainForward).calls, gradient_steps);
    EXPECT_EQ(prof.phase(Phase::Backward).calls, gradient_steps);
    EXPECT_EQ(prof.phase(Phase::Decide).calls, kSteps);
    EXPECT_EQ(prof.phase(Phase::Map).calls, kSteps);
    EXPECT_EQ(prof.phase(Phase::Monitor).calls, kSteps);

    // The simulator's total and shares still cover only its own six
    // phases.
    EXPECT_GT(prof.phase(Phase::Adam).cycles, 0u);
    std::uint64_t sim_cycles = 0;
    double sim_share = 0.0;
    for (std::size_t i = 0; i < common::simprof::kNumSimPhases; ++i) {
        sim_cycles += prof.phase(static_cast<Phase>(i)).cycles;
        sim_share += prof.sharePct(static_cast<Phase>(i));
    }
    EXPECT_EQ(prof.totalCycles(), sim_cycles);
    EXPECT_NEAR(sim_share, 100.0, 1e-9);
}

TEST(SimProfileSinkBudget, FlagsPhasesOverBudgetAtEnd)
{
    harness::SimProfileSink sink(50.0);
    harness::ScenarioSpec spec;
    spec.steps = 1;
    sink.begin(spec, {}); // resets + enables the counters
    credit(Phase::Dispatch, 900);
    credit(Phase::Quantile, 100);
    sink.end();
    EXPECT_TRUE(sink.exceeded());
    common::simprof::resetAll();
}

TEST(SimProfileSinkBudget, DefaultBudgetNeverFlags)
{
    harness::SimProfileSink sink;
    harness::ScenarioSpec spec;
    spec.steps = 1;
    sink.begin(spec, {});
    credit(Phase::Dispatch, 1000); // 100% share
    sink.end();
    EXPECT_FALSE(sink.exceeded());
    common::simprof::resetAll();
}

TEST(ProfileFlags, ParsesBudgetValue)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--sim-profile", "--profile-max-share",
                                "42.5"},
                               &sim_profile, &max_share);
    EXPECT_TRUE(res.ok());
    EXPECT_TRUE(sim_profile);
    EXPECT_DOUBLE_EQ(max_share, 42.5);
}

TEST(ProfileFlags, RejectsNonNumericBudget)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--profile-max-share", "lots"},
                               &sim_profile, &max_share);
    EXPECT_FALSE(res.ok());
    EXPECT_NE(res.error.find("--profile-max-share"), std::string::npos);
    EXPECT_DOUBLE_EQ(max_share, 100.0); // untouched on error
}

TEST(ProfileFlags, RejectsMissingBudgetValue)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--profile-max-share"}, &sim_profile,
                               &max_share);
    EXPECT_FALSE(res.ok());
}

TEST(ProfileFlags, RejectsTrailingGarbageInNumber)
{
    bool sim_profile = false;
    double max_share = 100.0;
    const auto res = parseArgs({"--profile-max-share", "40%"},
                               &sim_profile, &max_share);
    EXPECT_FALSE(res.ok());
}

TEST(SimProfileSinkScope, CountsOnlyTheMeasuredSegment)
{
    // --sim-profile labels its table with the final segment's steps,
    // so a run with an event must count the same simulator work as a
    // no-event run of that segment: not the segment before the event.
    constexpr std::size_t kSteps = 20;
    auto arrival_calls = [](const harness::ScenarioSpec &spec) {
        harness::SimProfileSink sink;
        harness::EngineOptions opts;
        opts.sinks.push_back(&sink);
        harness::Engine(opts).run(spec);
        const auto prof = harness::SimProfile::snapshot();
        common::simprof::resetAll();
        return prof.phase(Phase::Arrivals).calls;
    };
    harness::ScenarioSpec plain;
    harness::ServiceLoadSpec load;
    load.service = "masstree";
    load.pattern = "fixed";
    load.fraction = 0.5;
    plain.services.push_back(load);
    plain.manager = "static";
    plain.steps = kSteps;
    harness::ScenarioSpec with_event = plain;
    with_event.events.emplace_back().afterSteps = 15;

    const auto measured = arrival_calls(plain);
    EXPECT_GE(measured, kSteps);
    EXPECT_EQ(arrival_calls(with_event), measured);
}
