/**
 * @file
 * Experiment runner: drives a Server with a TaskManager through the
 * mapper for N control steps and summarises metrics over the trailing
 * window, the way the paper reports results ("we summarise the results
 * over the last 600 s / 300 s"). Per-step records are the engine's
 * RecordSinks, fed from RunOptions::onStep.
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

/** Options for ExperimentRunner::run. */
struct RunOptions
{
    /** Total control steps. */
    std::size_t steps = 1000;
    /** Metrics are summarised over the last this-many steps. */
    std::size_t summaryWindow = 300;
    /** Optional per-step hook (step, stats) for custom instrumentation;
     * called after every interval. */
    std::function<void(std::size_t, const sim::ServerIntervalStats &)>
        onStep;
};

/** Drives one (server, manager) pair. */
class ExperimentRunner
{
  public:
    ExperimentRunner(sim::Server &server, core::TaskManager &manager);

    /** Run the experiment; metrics cover the trailing summary window. */
    RunMetrics run(const RunOptions &options);

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
