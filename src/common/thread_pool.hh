/**
 * @file
 * A fixed-size worker pool with a mutex/condvar work queue.
 *
 * Used by the experiment harness to fan independent simulation runs
 * across cores (harness/sweep.hh) and by the cluster to step nodes.
 * Determinism is the caller's job: the pool only promises that every
 * index runs exactly once and that exceptions propagate to the caller.
 */

#ifndef TWIG_COMMON_THREAD_POOL_HH
#define TWIG_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace twig::common {

/**
 * Fixed pool of worker threads draining a FIFO queue.
 *
 * The pool is reusable: parallelFor may be called any number of
 * times, from one controlling thread at a time. Destruction joins the
 * workers after the queue drains.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run body(i) for every i in [begin, end), distributing contiguous
     * chunks across the workers, and block until all complete. The
     * calling thread participates, so this also works on a pool whose
     * workers are saturated. Rethrows the first exception thrown by
     * any body invocation.
     */
    void parallelFor(std::size_t begin, std::size_t end,
                     const std::function<void(std::size_t)> &body);

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable helperFinished_;
    bool stopping_ = false;
};

} // namespace twig::common

#endif // TWIG_COMMON_THREAD_POOL_HH
