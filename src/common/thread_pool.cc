#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <exception>

namespace twig::common {

ThreadPool::ThreadPool(std::size_t threads)
{
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t begin, std::size_t end,
                        const std::function<void(std::size_t)> &body)
{
    if (begin >= end)
        return;
    const std::size_t n = end - begin;
    // More chunks than workers so an uneven body still balances; the
    // caller participates, hence the +1.
    const std::size_t chunks =
        std::min(n, 4 * (workers_.size() + 1));
    const std::size_t chunk = (n + chunks - 1) / chunks;

    std::atomic<std::size_t> next{begin};
    std::exception_ptr localError;
    std::mutex errMutex;
    auto drain = [&] {
        for (;;) {
            const std::size_t lo =
                next.fetch_add(chunk, std::memory_order_relaxed);
            if (lo >= end)
                return;
            const std::size_t hi = std::min(lo + chunk, end);
            try {
                for (std::size_t i = lo; i < hi; ++i)
                    body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!localError)
                    localError = std::current_exception();
                return;
            }
        }
    };

    // One helper task per worker; each pulls chunks until exhausted,
    // then counts itself done under the pool's mutex, so the wait
    // below cannot miss the last one. drain() catches every exception,
    // so a helper always gets to count itself.
    const std::size_t helpers = std::min(workers_.size(), chunks - 1);
    std::size_t finished = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < helpers; ++i) {
            queue_.push_back([&] {
                drain();
                std::lock_guard<std::mutex> done(mutex_);
                ++finished;
                helperFinished_.notify_all();
            });
        }
    }
    workAvailable_.notify_all();
    drain();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        helperFinished_.wait(lock, [&] { return finished == helpers; });
    }
    if (localError)
        std::rethrow_exception(localError);
}

} // namespace twig::common
