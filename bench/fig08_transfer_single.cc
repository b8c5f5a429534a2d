/**
 * @file
 * Fig. 8 reproduction: transfer learning with Twig-S.
 *
 * Paper setup: learn on Masstree for 10 000 s, then transfer the
 * weights (re-initialising the specialised output layers) to Moses,
 * Img-dnn and Xapian in consecutive experiments, each at 50 % of max
 * load, and compare QoS guarantee / tardiness against learning from
 * scratch. The learn-then-swap sequence is a ScenarioSpec event
 * (transfer + new service mix); the scratch run is a plain spec.
 * Expected shape: transfer reaches a high QoS guarantee ~1/3 sooner
 * while ending at similar tardiness (it still learns to minimise
 * energy, not just to over-provision).
 */

#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "harness/engine.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

struct Curve
{
    std::vector<double> qosPct;
    std::vector<double> tardiness;
};

/** Buckets per-step QoS / tardiness of the watched service. */
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
        tard_ += rec.p99Ms[0] / target_;
        if (++n_ == bucket_) {
            curve_.qosPct.push_back(100.0 * met_ / n_);
            curve_.tardiness.push_back(tard_ / n_);
            met_ = n_ = 0;
            tard_ = 0.0;
        }
    }

    const Curve &curve() const { return curve_; }

  private:
    double target_;
    std::size_t bucket_;
    Curve curve_;
    std::size_t met_ = 0;
    std::size_t n_ = 0;
    double tard_ = 0.0;
};

Curve
runSpec(const harness::ScenarioSpec &spec, double target_ms,
        std::size_t bucket)
{
    CurveSink sink(target_ms, bucket);
    harness::EngineOptions opts;
    opts.sinks.push_back(&sink);
    harness::Engine(opts).run(spec);
    return sink.curve();
}

std::size_t
stepsTo(const Curve &c, double pct, std::size_t bucket)
{
    for (std::size_t i = 0; i < c.qosPct.size(); ++i) {
        if (c.qosPct[i] >= pct)
            return (i + 1) * bucket;
    }
    return c.qosPct.size() * bucket;
}

harness::ServiceLoadSpec
halfLoad(const std::string &service)
{
    harness::ServiceLoadSpec svc;
    svc.service = service;
    svc.fraction = 0.5;
    return svc;
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
    const std::size_t learn_steps = full ? 10000 : 1500;
    const std::size_t adapt_steps = full ? 3000 : 600;
    const std::size_t bucket = full ? 300 : 60;

    bench::banner("Fig. 8: Twig-S transfer learning "
                  "(Masstree -> Moses/Img-dnn/Xapian @ 50%)");

    for (const char *target : {"moses", "img-dnn", "xapian"}) {
        const auto target_profile = services::byName(target);

        // (a) Transfer: pre-train on masstree, swap service, keep the
        //     trunk, re-anneal epsilon over a short window.
        harness::ScenarioSpec spec;
        spec.name = "fig08";
        spec.services.push_back(halfLoad("masstree"));
        spec.manager = "twig";
        spec.paper = full;
        spec.managerSeed = seed;
        spec.steps = adapt_steps;
        spec.window = adapt_steps;
        spec.horizon = learn_steps;
        spec.seed = seed + 1; // learning-phase server

        harness::ScenarioEvent swap;
        swap.afterSteps = learn_steps;
        harness::TransferSpec transfer;
        transfer.serviceIndex = 0;
        transfer.service = target;
        transfer.specSeed = seed ^ 5;
        transfer.reexploreSteps = adapt_steps / 6;
        swap.transfers.push_back(transfer);
        swap.services.push_back(halfLoad(target));
        swap.serverSeed = seed + 2; // watched-phase server
        spec.events.push_back(swap);

        const auto transfer_curve =
            runSpec(spec, target_profile.qosTargetMs, bucket);

        // (b) Scratch: a fresh Twig given the same adaptation budget.
        harness::ScenarioSpec scratch_spec;
        scratch_spec.name = "fig08-scratch";
        scratch_spec.services.push_back(halfLoad(target));
        scratch_spec.manager = "twig";
        scratch_spec.paper = full;
        scratch_spec.managerSeed = seed + 3;
        scratch_spec.steps = adapt_steps;
        scratch_spec.window = adapt_steps;
        scratch_spec.horizon = adapt_steps;
        scratch_spec.seed = seed + 2; // same watched workload

        const auto scratch =
            runSpec(scratch_spec, target_profile.qosTargetMs, bucket);

        std::printf("\n--- masstree -> %s ---\n", target);
        std::printf("%-10s %18s %18s\n", "steps",
                    "transfer QoS/tard", "scratch QoS/tard");
        for (std::size_t i = 0; i < transfer_curve.qosPct.size(); ++i) {
            std::printf("%-10zu %10.1f%%/%5.2f %10.1f%%/%5.2f\n",
                        (i + 1) * bucket, transfer_curve.qosPct[i],
                        transfer_curve.tardiness[i],
                        i < scratch.qosPct.size() ? scratch.qosPct[i]
                                                  : 0.0,
                        i < scratch.tardiness.size()
                            ? scratch.tardiness[i]
                            : 0.0);
        }
        const auto t80 = stepsTo(transfer_curve, 80.0, bucket);
        const auto s80 = stepsTo(scratch, 80.0, bucket);
        std::printf("steps to 80%% guarantee: transfer %zu vs scratch "
                    "%zu (%.0f%% faster; paper: ~33%%)\n",
                    t80, s80,
                    s80 > 0 ? 100.0 * (1.0 - static_cast<double>(t80) /
                                                 s80)
                            : 0.0);
    }
    return 0;
}
