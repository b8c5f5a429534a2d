/**
 * @file
 * Table III reproduction: the runtime overhead of Twig's components,
 * read from the control interval's own per-phase counters
 * (common::simprof) while paper-preset Twig runs.
 *
 * Paper (per 1 s decision epoch, CPU path):
 *   gradient descent computation ........ 48 ms (CPU) / 25 ms (GPU)
 *   gather and pre-process PMCs .........  2 ms
 *   PMC data size per service ........... 352 B/s
 *   core allocation & DVFS change .......  7 ms (mostly sysfs)
 *   total (CPU) ......................... 57 ms, < 5 % of the epoch
 *
 * Two runs go through the scenario engine, each the run `twig_sim
 * --service masstree [--service moses] --paper --sim-profile`
 * performs: Twig-S on Masstree and Twig-C on Masstree + Moses, with
 * the paper-sized network (512/256 trunk, 128-unit heads, minibatch
 * 64). Over the measured segment the phase counters give, per
 * interval:
 *   - gradient step: train forward + backward + Adam + replay + target
 *     sync, divided by the gradient steps taken (one per interval once
 *     the replay holds a minibatch);
 *   - PMC gather: the monitor phase (smoothing, normalisation, joint
 *     state, reward);
 *   - decide: BDQ action selection;
 *   - map: core IDs and DVFS from the resource requests. A simulator
 *     has no sysfs writes, to which the paper charges most of its 7 ms.
 * Cycles convert to ms against steady_clock over the same segment.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "common/sim_counters.hh"
#include "harness/engine.hh"
#include "harness/sim_profile.hh"
#include "sim/pmc.hh"

using namespace twig;

namespace {

using common::simprof::Phase;

/** Phase-counter snapshot of the measured segment, with the
 * cycle-to-ms rate of the same stretch of wall time. */
class SegmentCounters : public harness::RecordSink
{
  public:
    void
    begin(const harness::ScenarioSpec &,
          const std::vector<sim::ServiceProfile> &) override
    {
        harness::SimProfile::enable();
        before_ = harness::SimProfile::snapshot();
        wallStart_ = std::chrono::steady_clock::now();
        cycleStart_ = common::simprof::now();
    }

    void record(const harness::StepRecord &) override { ++intervals_; }

    void
    end() override
    {
        const std::uint64_t cycles = common::simprof::now() - cycleStart_;
        const std::chrono::duration<double, std::milli> wall =
            std::chrono::steady_clock::now() - wallStart_;
        profile_ = harness::SimProfile::snapshot().since(before_);
        harness::SimProfile::disable();
        msPerCycle_ = wall.count() / static_cast<double>(cycles);
    }

    std::size_t intervals() const { return intervals_; }

    std::uint64_t
    calls(Phase p) const
    {
        return profile_.phase(p).calls;
    }

    /** Milliseconds spent in @p phases over the segment. */
    double
    ms(std::initializer_list<Phase> phases) const
    {
        std::uint64_t cycles = 0;
        for (const Phase p : phases)
            cycles += profile_.phase(p).cycles;
        return static_cast<double>(cycles) * msPerCycle_;
    }

  private:
    harness::SimProfile before_;
    harness::SimProfile profile_;
    std::chrono::steady_clock::time_point wallStart_;
    std::uint64_t cycleStart_ = 0;
    double msPerCycle_ = 0.0;
    std::size_t intervals_ = 0;
};

void
printRow(const char *component, double ms, const char *paper)
{
    std::printf("  %-24s %10.4f ms   %s\n", component, ms, paper);
}

/** Run one paper-preset Twig over @p services and print its Table III
 * rows. */
void
runCase(const char *label, const std::vector<std::string> &services,
        std::size_t steps, std::uint64_t seed)
{
    harness::ScenarioSpec spec;
    spec.name = "tab3";
    for (const auto &name : services) {
        harness::ServiceLoadSpec s;
        s.service = name;
        spec.services.push_back(s);
    }
    spec.manager = "twig";
    spec.paper = true;
    spec.steps = steps;
    spec.seed = seed;

    SegmentCounters counters;
    harness::EngineOptions opts;
    opts.sinks.push_back(&counters);
    harness::Engine(opts).run(spec);

    const double intervals = static_cast<double>(counters.intervals());
    const std::uint64_t grad_steps = counters.calls(Phase::Adam);
    const double grad_ms =
        counters.ms({Phase::TrainForward, Phase::Backward, Phase::Adam,
                     Phase::Replay, Phase::TargetSync}) /
        static_cast<double>(grad_steps);
    const double monitor_ms = counters.ms({Phase::Monitor}) / intervals;
    const double decide_ms = counters.ms({Phase::Decide}) / intervals;
    const double map_ms = counters.ms({Phase::Map}) / intervals;
    const double total_ms = grad_ms + monitor_ms + decide_ms + map_ms;

    std::string mix;
    for (const auto &name : services)
        mix += (mix.empty() ? "" : " + ") + name;
    std::printf("\n%s (%s, 50%% load): %zu intervals, %llu gradient "
                "steps\n",
                label, mix.c_str(), counters.intervals(),
                static_cast<unsigned long long>(grad_steps));
    std::printf("  %-24s %13s   %s\n", "component", "measured", "paper");
    printRow("gradient step", grad_ms, "48 ms (CPU)");
    printRow("PMC gather (monitor)", monitor_ms, " 2 ms");
    printRow("decide", decide_ms, "  -");
    printRow("map (cores + DVFS)", map_ms, " 7 ms (mostly sysfs)");
    std::printf("  %-24s %10.4f ms   57 ms (%.2f %% of the 1 s epoch; "
                "paper < 5 %%)\n",
                "total per epoch", total_ms, 100.0 * total_ms / 1000.0);
}

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    flags.parseOrExit(argc, argv);
    const std::size_t steps = full ? 2000 : 200;

    bench::banner("Table III: Twig overhead per 1 s decision epoch, from "
                  "the control interval's counters");
    std::printf("paper: gradient step 48 ms (CPU), PMC gather 2 ms, core "
                "allocation & DVFS 7 ms (sysfs), total 57 ms (<5%%)\n");
    std::printf("PMC payload per service: %zu B/s raw counters (paper: "
                "352 B/s including metadata)\n",
                sim::kNumPmcs * sizeof(double));

    runCase("Twig-S", {"masstree"}, steps, seed);
    runCase("Twig-C", {"masstree", "moses"}, steps, seed);
    return 0;
}
