#include "harness/runner.hh"

#include "common/error.hh"

namespace twig::harness {

ExperimentRunner::ExperimentRunner(sim::Server &server,
                                   core::TaskManager &manager)
    : server_(server), manager_(manager), mapper_(server.machine())
{
}

RunMetrics
ExperimentRunner::run(const RunOptions &options)
{
    common::fatalIf(options.steps == 0, "runner: zero steps");
    common::fatalIf(options.summaryWindow == 0,
                    "runner: zero summary window");
    const std::size_t n_svc = server_.numServices();
    common::fatalIf(n_svc == 0, "runner: server hosts no services");

    std::vector<std::string> names;
    std::vector<double> targets;
    for (std::size_t i = 0; i < n_svc; ++i) {
        names.push_back(server_.profile(i).name);
        targets.push_back(server_.profile(i).qosTargetMs);
    }
    MetricsAccumulator acc(names, targets);

    const std::size_t window_start = options.steps > options.summaryWindow
        ? options.steps - options.summaryWindow
        : 0;

    requests_ = manager_.initialRequests(n_svc, server_.machine());
    std::vector<sim::CoreAssignment> assignments;
    std::vector<double> p99(n_svc);
    for (std::size_t step = 0; step < options.steps; ++step) {
        mapper_.mapInto(requests_, assignments);
        const auto &stats = server_.runInterval(assignments);

        if (step >= window_start) {
            for (std::size_t i = 0; i < n_svc; ++i)
                p99[i] = stats.services[i].p99Ms;
            acc.add(p99, stats.socketPowerW,
                    server_.machine().intervalSeconds);
        }

        if (options.onStep)
            options.onStep(step, stats);

        manager_.decideInto(stats, requests_);
    }

    return acc.finish();
}

} // namespace twig::harness
