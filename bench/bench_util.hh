/**
 * @file
 * Shared helpers for the figure/table reproduction benches: the flags
 * most of them read (each bench registers only the ones its code
 * uses) and table printing.
 */

#ifndef TWIG_BENCH_BENCH_UTIL_HH
#define TWIG_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/flags.hh"

namespace twig::bench {

/** --full (paper-length schedules) and --seed (base seed, default 42
 * in every bench). */
inline void
addRunFlags(common::FlagParser &flags, bool *full, std::uint64_t *seed)
{
    flags.addBool("--full", full,
                  "paper-length schedules (hours) instead of the "
                  "compressed ones");
    flags.addCount("--seed", seed,
                   "base seed; per-run seeds derive from (seed, config "
                   "index) (default 42)");
}

/** --jobs: threads for the bench's independent runs. Output is
 * bit-identical at any value: per-run seeds depend only on (seed,
 * config index), never on thread scheduling. */
inline void
addJobsFlag(common::FlagParser &flags, std::size_t *jobs)
{
    flags.addCount("--jobs", jobs,
                   "threads for independent runs; output is identical "
                   "at any N (default 1)",
                   1);
}

/** Print a banner naming the experiment. */
inline void
banner(const std::string &title)
{
    std::printf("\n==== %s ====\n", title.c_str());
}

} // namespace twig::bench

#endif // TWIG_BENCH_BENCH_UTIL_HH
