/**
 * @file
 * Experiment schedules (compressed to the experiment horizon; full
 * mode restores the paper's time constants) and the offline colocation
 * sweep, shared by the tools, the benches, the scenario engine and the
 * tests. Managers themselves are built by the ManagerRegistry
 * (harness/registry.hh).
 */

#ifndef TWIG_HARNESS_MANAGERS_HH
#define TWIG_HARNESS_MANAGERS_HH

#include <cstddef>
#include <cstdint>

#include "sim/service_profile.hh"

namespace twig::harness {

/** Schedule lengths for one comparison experiment. */
struct Schedule
{
    std::size_t steps;         ///< total run length
    std::size_t summaryWindow; ///< trailing window for metrics
    std::size_t horizon;       ///< learning-schedule horizon

    /** Compressed default or paper-length (full mode). */
    static Schedule
    pick(bool full, std::size_t fast_steps = 900,
         std::size_t fast_window = 150)
    {
        if (full) {
            // Paper: results summarised after the first 10000 s over
            // the last 300 s (600 s for the PARTIES comparison).
            return {10300, 300, 10000};
        }
        return {fast_steps, fast_window, fast_steps};
    }
};

/**
 * One probe of the offline colocation sweep: does load fraction @p f
 * meet both QoS targets under the full static mapping? Each probe is
 * an independent simulation, so the sweep over fractions can fan out.
 */
bool colocationProbePasses(const sim::ServiceProfile &a,
                           const sim::ServiceProfile &b, double f,
                           std::uint64_t seed);

/**
 * The paper's offline colocation sweep: the maximum load fraction (of
 * solo max) each service of a pair can run at when colocated, found by
 * lowering the fraction in 5% steps until the static mapping meets
 * both QoS targets at the pair's "high" (80%) operating point.
 *
 * With @p jobs > 1 every fraction is probed concurrently and the
 * largest passing one is returned — the probes use identical per-
 * fraction seeds either way, so the answer matches the serial walk.
 */
double colocatedMaxFraction(const sim::ServiceProfile &a,
                            const sim::ServiceProfile &b,
                            std::uint64_t seed, std::size_t jobs = 1);

} // namespace twig::harness

#endif // TWIG_HARNESS_MANAGERS_HH
