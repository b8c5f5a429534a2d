/**
 * @file
 * Parallel experiment sweeps.
 *
 * A sweep is a batch of *independent* experiment runs (one per figure
 * point: a service/load/manager combination). Each run gets a
 * deterministic seed derived from (baseSeed, configIndex) only, and
 * results are returned ordered by index — so the output is
 * bit-identical whether the sweep executes serially or on N worker
 * threads (verified by tests/test_sweep.cc).
 *
 * The contract the caller must keep: a task builds its entire world
 * (server, manager, RNGs) from the seed it is handed and touches no
 * shared mutable state.
 */

#ifndef TWIG_HARNESS_SWEEP_HH
#define TWIG_HARNESS_SWEEP_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hh"

namespace twig::harness {

/** Options for ParallelSweep. */
struct SweepOptions
{
    /** Worker threads; <= 1 runs every task inline on the caller. */
    std::size_t jobs = 1;
    /** Base seed mixed into every per-run seed. */
    std::uint64_t baseSeed = 42;
};

/**
 * Fans a batch of independent experiment tasks across a thread pool
 * (or runs them inline when jobs <= 1).
 */
class ParallelSweep
{
  public:
    explicit ParallelSweep(const SweepOptions &opts) : opts_(opts) {}

    const SweepOptions &options() const { return opts_; }

    /**
     * Run fn(index, seed) for every index in [0, count) and return the
     * results ordered by index. T must be default-constructible.
     */
    template <typename T>
    std::vector<T>
    map(std::size_t count,
        const std::function<T(std::size_t, std::uint64_t)> &fn) const
    {
        std::vector<T> results(count);
        forEachIndex(count, [&](std::size_t i) {
            results[i] = fn(i, common::sweepSeed(opts_.baseSeed, i));
        });
        return results;
    }

  private:
    /** Serial (jobs <= 1) or pool-backed index loop. */
    void forEachIndex(std::size_t count,
                      const std::function<void(std::size_t)> &body) const;

    SweepOptions opts_;
};

} // namespace twig::harness

#endif // TWIG_HARNESS_SWEEP_HH
