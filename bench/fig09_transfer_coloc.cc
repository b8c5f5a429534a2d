/**
 * @file
 * Fig. 9 reproduction: transfer learning with Twig-C.
 *
 * Paper setup: learn with (Moses @ 50%, Masstree @ 20%) colocated,
 * then swap Moses for Xapian (@ 50%) after the learning phase, with
 * and without transfer learning. The swap is a ScenarioSpec event;
 * the no-transfer arm is a plain spec on the post-swap mix. Expected
 * shape: without transfer the QoS guarantee drops and energy spikes
 * until the agent re-learns; with transfer it adapts within tens of
 * steps.
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
    std::vector<double> qosXapian;
    std::vector<double> qosMasstree;
    std::vector<double> powerW;
};

/** Buckets per-step QoS of both services and socket power. */
class PairSink : public harness::RecordSink
{
  public:
    PairSink(double target0_ms, double target1_ms, std::size_t bucket)
        : target0_(target0_ms), target1_(target1_ms), bucket_(bucket)
    {
    }

    void
    record(const harness::StepRecord &rec) override
    {
        met0_ += rec.p99Ms[0] <= target0_ ? 1 : 0;
        met1_ += rec.p99Ms[1] <= target1_ ? 1 : 0;
        power_ += rec.socketPowerW;
        if (++n_ == bucket_) {
            curve_.qosXapian.push_back(100.0 * met0_ / n_);
            curve_.qosMasstree.push_back(100.0 * met1_ / n_);
            curve_.powerW.push_back(power_ / n_);
            met0_ = met1_ = n_ = 0;
            power_ = 0.0;
        }
    }

    const Curve &curve() const { return curve_; }

  private:
    double target0_;
    double target1_;
    std::size_t bucket_;
    Curve curve_;
    std::size_t met0_ = 0;
    std::size_t met1_ = 0;
    std::size_t n_ = 0;
    double power_ = 0.0;
};

harness::ServiceLoadSpec
fixedLoad(const std::string &service, double fraction)
{
    harness::ServiceLoadSpec svc;
    svc.service = service;
    svc.fraction = fraction;
    return svc;
}

Curve
runSpec(const harness::ScenarioSpec &spec, std::size_t bucket)
{
    PairSink sink(services::xapian().qosTargetMs,
                  services::masstree().qosTargetMs, bucket);
    harness::EngineOptions opts;
    opts.sinks.push_back(&sink);
    harness::Engine(opts).run(spec);
    return sink.curve();
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

    bench::banner("Fig. 9: Twig-C transfer learning "
                  "((moses,masstree) -> (xapian,masstree))");

    // With transfer: learn with moses + masstree, then swap moses ->
    // xapian keeping the trunk weights.
    harness::ScenarioSpec spec;
    spec.name = "fig09";
    spec.services.push_back(fixedLoad("moses", 0.5));
    spec.services.push_back(fixedLoad("masstree", 0.2));
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
    transfer.service = "xapian";
    transfer.specSeed = seed ^ 9;
    transfer.reexploreSteps = adapt_steps / 6;
    swap.transfers.push_back(transfer);
    swap.services.push_back(fixedLoad("xapian", 0.5));
    swap.services.push_back(fixedLoad("masstree", 0.2));
    swap.serverSeed = seed + 2; // adaptation-phase server
    spec.events.push_back(swap);

    const auto with_tl = runSpec(spec, bucket);

    // No transfer — a fresh Twig-C learns the pair from scratch over
    // the same window.
    harness::ScenarioSpec scratch;
    scratch.name = "fig09-scratch";
    scratch.services.push_back(fixedLoad("xapian", 0.5));
    scratch.services.push_back(fixedLoad("masstree", 0.2));
    scratch.manager = "twig";
    scratch.paper = full;
    scratch.managerSeed = seed + 3;
    scratch.steps = adapt_steps;
    scratch.window = adapt_steps;
    scratch.horizon = adapt_steps;
    scratch.seed = seed + 2; // same adaptation workload

    const auto without = runSpec(scratch, bucket);

    std::printf("%-8s | %-26s | %-26s\n", "steps",
                "with transfer (xap/mas/W)",
                "no transfer (xap/mas/W)");
    for (std::size_t i = 0; i < with_tl.qosXapian.size(); ++i) {
        std::printf("%-8zu | %6.1f%% %6.1f%% %6.1f | %6.1f%% %6.1f%% "
                    "%6.1f\n",
                    (i + 1) * bucket, with_tl.qosXapian[i],
                    with_tl.qosMasstree[i], with_tl.powerW[i],
                    without.qosXapian[i], without.qosMasstree[i],
                    without.powerW[i]);
    }
    std::printf("\npaper shape: with transfer the agent adapts to the "
                "service change within tens of\nsteps; from scratch "
                "the guarantee starts low and climbs as epsilon "
                "anneals.\n");
    return 0;
}
