/**
 * @file
 * Fig. 7 reproduction: learning-time complexity — QoS guarantee over
 * time for Masstree under Twig-S and Hipster. Each curve is one
 * ScenarioSpec run through the scenario engine with a bucketing
 * RecordSink observing every step.
 *
 * Paper setup: Twig's epsilon anneals to 0.1 by 5000 s and Hipster's
 * learning phase ends at 5000 s; each point averages 500 s. Expected
 * shape: Hipster starts higher (its heuristic embeds prior knowledge
 * of the power ordering) but Twig-S crosses 80 % guarantee sooner and
 * ends higher, without any prior system knowledge.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "harness/sweep.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

/** Buckets the per-step QoS outcome into guarantee percentages. */
class CurveSink : public harness::RecordSink
{
  public:
    CurveSink(double target_ms, std::size_t bucket)
        : target_(target_ms), bucket_(bucket)
    {
    }

    void
    record(const harness::StepRecord &rec) override
    {
        met_ += rec.p99Ms[0] <= target_ ? 1 : 0;
        if (++n_ == bucket_) {
            curve_.push_back(100.0 * static_cast<double>(met_) /
                             static_cast<double>(n_));
            met_ = 0;
            n_ = 0;
        }
    }

    const std::vector<double> &curve() const { return curve_; }

  private:
    double target_;
    std::size_t bucket_;
    std::vector<double> curve_;
    std::size_t met_ = 0;
    std::size_t n_ = 0;
};

} // namespace

int
main(int argc, char **argv)
{
    bool full = false;
    std::uint64_t seed = 42;
    std::size_t jobs = 1;
    common::FlagParser flags;
    bench::addRunFlags(flags, &full, &seed);
    bench::addJobsFlag(flags, &jobs);
    flags.parseOrExit(argc, argv);
    // Paper: anneal to 0.1 in 5000 s, 500 s buckets. Compressed: the
    // same fractions of a 1500-step run.
    const std::size_t steps = full ? 10000 : 1500;
    const std::size_t bucket = full ? 500 : 75;
    const auto profile = services::masstree();

    bench::banner("Fig. 7: QoS guarantee over time while learning "
                  "(Masstree @ 50%)");

    // The two curves are independent experiments; fan them across
    // --jobs threads. Both managers watch the same workload (server
    // seeded by --seed), as in the paper's figure.
    harness::SweepOptions sweep_opts;
    sweep_opts.jobs = jobs;
    sweep_opts.baseSeed = seed;
    const harness::ParallelSweep sweep(sweep_opts);
    const auto curves = sweep.map<std::vector<double>>(
        2, [&](std::size_t idx, std::uint64_t run_seed) {
            harness::ScenarioSpec spec;
            spec.name = "fig07";
            harness::ServiceLoadSpec svc;
            svc.service = profile.name;
            svc.fraction = 0.5;
            spec.services.push_back(svc);
            spec.manager = idx == 0 ? "twig" : "hipster";
            spec.paper = full;
            spec.managerSeed = run_seed;
            spec.steps = steps;
            spec.window = steps;
            spec.horizon = steps / 2; // epsilon ~0.1 by mid-run
            spec.seed = seed;

            CurveSink sink(profile.qosTargetMs, bucket);
            harness::EngineOptions opts;
            opts.sinks.push_back(&sink);
            harness::Engine(opts).run(spec);
            return sink.curve();
        });
    const auto &twig_curve = curves[0];
    const auto &hip_curve = curves[1];

    std::printf("%-12s %10s %10s\n", "steps", "Twig-S", "Hipster");
    for (std::size_t i = 0; i < twig_curve.size(); ++i) {
        std::printf("%-12zu %9.1f%% %9.1f%%\n", (i + 1) * bucket,
                    twig_curve[i],
                    i < hip_curve.size() ? hip_curve[i] : 0.0);
    }

    auto tail_mean = [](const std::vector<double> &curve) {
        double s = 0.0;
        const std::size_t q = curve.size() / 2;
        for (std::size_t i = q; i < curve.size(); ++i)
            s += curve[i];
        return s / static_cast<double>(curve.size() - q);
    };
    std::printf("\nsecond-half mean guarantee: Twig-S %.1f%%, Hipster "
                "%.1f%%\n",
                tail_mean(twig_curve), tail_mean(hip_curve));
    std::printf("paper shape: Hipster starts higher (its heuristic "
                "embeds prior knowledge of the\npower ordering and "
                "begins from the safest configuration) but Twig-S "
                "overtakes it\nand holds a higher, more stable "
                "guarantee once epsilon anneals.\n");
    return 0;
}
