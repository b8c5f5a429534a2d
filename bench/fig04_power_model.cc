/**
 * @file
 * Fig. 4 / Eq. 2 reproduction: percentage absolute average error of the
 * per-service power model across load levels, core counts and DVFS
 * states, for Xapian and Masstree (paper: from Tailbench; mean PAAE
 * 5.46 %, 7 % max; model MSE 2.91 mW, R^2 = 0.92 — the paper's mW
 * figure is presumably a typo for W).
 *
 * Reproduction note (also in EXPERIMENTS.md): our simulated ground
 * truth has a load x frequency interaction the additive Eq. 2 cannot
 * express, so the reproduced PAAE sits around 20-30 %. The *shape* —
 * low-double-digit errors, roughly uniform across the profiling grid,
 * good enough to rank allocation costs — is preserved.
 */

#include <cstdio>
#include <map>

#include "bench/bench_util.hh"
#include "common/rng.hh"
#include "core/power_model.hh"
#include "harness/profiling.hh"
#include "services/tailbench.hh"

using namespace twig;

namespace {

void
runService(const std::string &name, std::uint64_t seed, bool full)
{
    const sim::MachineConfig machine;
    const auto profile = services::byName(name);

    harness::PowerProfilingOptions opt;
    if (full)
        opt.intervalsPerConfig = 10;
    const auto samples =
        harness::profileServicePower(profile, machine, opt, seed);

    core::ServicePowerModel model;
    common::Rng rng(seed + 1);
    const auto report = model.fit(samples, rng, full ? 20000 : 4000);

    std::printf("\n--- %s: Eq. 2 fit over %zu profiling points ---\n",
                name.c_str(), samples.size());
    std::printf("coefficients: kappa=%.2f sigma=%.3f omega=%.2f\n",
                model.kappa(), model.sigma(), model.omega());
    std::printf("fit: R^2=%.3f  CV-MSE=%.2f W^2  PAAE=%.2f%% "
                "(paper: R^2=0.92, mean PAAE 5.46%%, max 7%%)\n",
                report.rSquared, report.crossValidationMse,
                report.paaePercent);

    // PAAE per load level / core count / DVFS state (Fig. 4's bars).
    auto paae_of = [&](auto pred) {
        std::map<double, std::pair<double, std::size_t>> acc;
        for (const auto &s : samples) {
            const double p =
                model.predict(s.loadFraction, s.numCores, s.dvfsGhz);
            const double err = s.dynamicPowerW != 0.0
                ? std::abs((p - s.dynamicPowerW) / s.dynamicPowerW)
                : 0.0;
            auto &[sum, n] = acc[pred(s)];
            sum += err;
            ++n;
        }
        return acc;
    };

    std::printf("PAAE by load level:");
    for (const auto &[load, v] : paae_of([](const core::PowerSample &s) {
             return s.loadFraction;
         })) {
        std::printf("  %.0f%%: %.1f%%", 100 * load,
                    100.0 * v.first / v.second);
    }
    std::printf("\nPAAE by DVFS (GHz):");
    for (const auto &[ghz, v] : paae_of([](const core::PowerSample &s) {
             return s.dvfsGhz;
         })) {
        std::printf("  %.1f: %.1f%%", ghz,
                    100.0 * v.first / v.second);
    }
    std::printf("\nPAAE by core count:");
    for (const auto &[cores, v] :
         paae_of([](const core::PowerSample &s) {
             return s.numCores;
         })) {
        std::printf("  %.0f: %.1f%%", cores,
                    100.0 * v.first / v.second);
    }
    std::printf("\n");
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
    bench::banner("Fig. 4: per-service power-model (Eq. 2) estimation "
                  "error (PAAE)");
    runService("xapian", seed, full);
    runService("masstree", seed + 10, full);
    return 0;
}
