/**
 * @file
 * Offline profiling helpers:
 *
 *  * profileServicePower — the paper's Eq. 2 profiling campaign: run
 *    the service at three load levels across alternate core counts and
 *    DVFS states and record the measured dynamic power per
 *    configuration (paper §IV "Power Model/Measurements");
 *  * makeTwigSpec — package a service profile into the spec a
 *    learning Twig needs (QoS target, max load, fitted power model);
 *  * makeDeployedTwigSpec — the same spec without the power model: a
 *    deployed (exploit-only) Twig computes no reward, so it skips the
 *    campaign and the fit, which are nearly all of its setup cost;
 *  * makeBaselineSpec — the slimmer spec the baselines need.
 *
 * A campaign point that saturates is dropped at its first saturated
 * interval; every point runs on its own freshly seeded server, so the
 * samples do not depend on how long a dropped point ran.
 */

#ifndef TWIG_HARNESS_PROFILING_HH
#define TWIG_HARNESS_PROFILING_HH

#include <cstdint>
#include <vector>

#include "baselines/static_manager.hh"
#include "core/power_model.hh"
#include "core/twig_manager.hh"
#include "sim/machine.hh"
#include "sim/service_profile.hh"

namespace twig::harness {

/** Options of the power profiling campaign (paper defaults). */
struct PowerProfilingOptions
{
    /** Load levels as fractions of max load (paper: 20/50/80 %). */
    std::vector<double> loadLevels = {0.2, 0.5, 0.8};
    /** Core counts: "alternate number of cores". */
    std::vector<std::size_t> coreCounts = {2, 4, 6, 8, 10, 12, 14, 16, 18};
    /** DVFS indices: "alternate DVFS states". */
    std::vector<std::size_t> dvfsStates = {0, 2, 4, 6, 8};
    /** Intervals measured per configuration. */
    std::size_t intervalsPerConfig = 4;
};

/** Run the profiling campaign for one service on a private server. */
std::vector<core::PowerSample>
profileServicePower(const sim::ServiceProfile &profile,
                    const sim::MachineConfig &machine,
                    const PowerProfilingOptions &options,
                    std::uint64_t seed);

/**
 * Build the TwigServiceSpec for @p profile: fits the Eq. 2 power model
 * with the paper's random-grid-search + 5-fold-CV procedure over a
 * fresh profiling campaign.
 */
core::TwigServiceSpec makeTwigSpec(const sim::ServiceProfile &profile,
                                   const sim::MachineConfig &machine,
                                   std::uint64_t seed);

/** The TwigServiceSpec for @p profile without a power model (name,
 * QoS target, max load): enough for an exploit-only TwigManager, which
 * refuses to learn from it. */
core::TwigServiceSpec
makeDeployedTwigSpec(const sim::ServiceProfile &profile);

/** Spec for the baseline managers. */
baselines::BaselineServiceSpec
makeBaselineSpec(const sim::ServiceProfile &profile);

} // namespace twig::harness

#endif // TWIG_HARNESS_PROFILING_HH
