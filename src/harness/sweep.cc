#include "harness/sweep.hh"

#include "common/thread_pool.hh"

namespace twig::harness {

void
ParallelSweep::forEachIndex(
    std::size_t count, const std::function<void(std::size_t)> &body) const
{
    if (count == 0)
        return;
    if (opts_.jobs <= 1 || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }
    common::ThreadPool pool(std::min(opts_.jobs, count));
    pool.parallelFor(0, count, body);
}

} // namespace twig::harness
