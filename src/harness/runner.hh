/**
 * @file
 * Experiment runner: drives a Server with a TaskManager through the
 * mapper for N control steps, optionally recording per-step traces
 * (for the mapping-distribution and varying-load figures) and
 * summarising metrics over the trailing window, the way the paper
 * reports results ("we summarise the results over the last 600 s /
 * 300 s").
 */

#ifndef TWIG_HARNESS_RUNNER_HH
#define TWIG_HARNESS_RUNNER_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "core/mapper.hh"
#include "core/task_manager.hh"
#include "harness/metrics.hh"
#include "sim/server.hh"

namespace twig::harness {

/** One step of an experiment trace. */
struct TraceRecord
{
    std::size_t step = 0;
    /** Per-service requested cores / DVFS index for this interval. */
    std::vector<std::size_t> cores;
    std::vector<std::size_t> dvfs;
    std::vector<double> p99Ms;
    std::vector<double> offeredRps;
    double socketPowerW = 0.0;
};

/** Options for ExperimentRunner::run. */
struct RunOptions
{
    /** Total control steps. */
    std::size_t steps = 1000;
    /** Metrics are summarised over the last this-many steps. */
    std::size_t summaryWindow = 300;
    /** Record a per-step trace. */
    bool recordTrace = false;
    /** Optional per-step hook (step, stats) for custom instrumentation;
     * called after every interval. */
    std::function<void(std::size_t, const sim::ServerIntervalStats &)>
        onStep;
};

/** Result of a run. */
struct RunResult
{
    RunMetrics metrics;
    std::vector<TraceRecord> trace;
};

/** Drives one (server, manager) pair. */
class ExperimentRunner
{
  public:
    ExperimentRunner(sim::Server &server, core::TaskManager &manager);

    /** Run the experiment; metrics cover the trailing summary window. */
    RunResult run(const RunOptions &options);

    /** Per-service requests mapped for the interval in progress: read
     * from RunOptions::onStep, the ones that interval ran with. */
    const std::vector<core::ResourceRequest> &
    requests() const
    {
        return requests_;
    }

  private:
    sim::Server &server_;
    core::TaskManager &manager_;
    core::Mapper mapper_;
    std::vector<core::ResourceRequest> requests_;
};

} // namespace twig::harness

#endif // TWIG_HARNESS_RUNNER_HH
