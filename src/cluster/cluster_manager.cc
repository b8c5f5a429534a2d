#include "cluster/cluster_manager.hh"

#include <algorithm>
#include <utility>

#include "common/error.hh"
#include "common/rng.hh"
#include "common/sim_counters.hh"
#include "core/twig_manager.hh"

namespace twig::cluster {

using common::simprof::now;

double
FleetRunMetrics::avgQosGuaranteePct() const
{
    if (qosGuaranteePct.empty())
        return 0.0;
    double sum = 0.0;
    for (double p : qosGuaranteePct)
        sum += p;
    return sum / static_cast<double>(qosGuaranteePct.size());
}

ClusterManager::ClusterManager(
    const ClusterConfig &cfg, std::vector<sim::ServiceProfile> services,
    std::vector<std::unique_ptr<sim::LoadGenerator>> fleet_loads,
    std::uint64_t seed)
    : cfg_(cfg), slots_(std::move(services), seed),
      fleetLoads_(std::move(fleet_loads)),
      // The router draws from its own derived seed stream so adding
      // policies never perturbs the nodes' randomness (and vice versa).
      router_(cfg.router, common::sweepSeed(seed, 0x5107e5))
{
    common::fatalIf(numServices() == 0, "ClusterManager: no services");
    common::fatalIf(fleetLoads_.size() != numServices(),
                    "ClusterManager: need one fleet load generator per "
                    "service (got ", fleetLoads_.size(), " for ",
                    numServices(), " services)");
    for (const auto &load : fleetLoads_)
        common::fatalIf(!load, "ClusterManager: null load generator");
    for (const auto &svc : slots_.services()) {
        for (auto &slot : recent_)
            slot.push_back(latencyHistogram(svc));
        trailing_.push_back(latencyHistogram(svc));
    }
}

std::size_t
ClusterManager::batchedNodeCount() const
{
    std::size_t count = 0;
    for (std::uint8_t b : nodeBatched_)
        count += b;
    return count;
}

const stats::Histogram &
ClusterManager::intervalHistogram(std::size_t s) const
{
    common::fatalIf(step_ == 0 || s >= numServices(),
                    "ClusterManager::intervalHistogram: bad index (no "
                    "step yet?)");
    return recent_[(step_ - 1) % sim::kQosWindowIntervals][s];
}

void
ClusterManager::rebuildCohorts()
{
    cohortsGeneration_ = slots_.generation();
    cohortsBatched_ = batchedInference_;
    cohorts_.clear();
    nodeBatched_.assign(numNodes(), 0);
    if (!batchedInference_)
        return;

    // Group serving exploit-only TwigManagers by the checksum of their
    // checkpoint, which covers the architecture and every parameter.
    // Exploit-only is the freeze guarantee: no gradient steps, no
    // epsilon draws, so members stay interchangeable for as long as
    // the cohort exists. Checkpointing encodes each network — fine
    // here (membership changes), not per interval.
    std::vector<std::uint64_t> keys;
    std::vector<Cohort> groups;
    for (std::size_t n = 0; n < numNodes(); ++n) {
        if (!slots_.powered(n))
            continue;
        auto *twig =
            dynamic_cast<core::TwigManager *>(&slots_.node(n).manager());
        if (twig == nullptr || !twig->exploitOnly())
            continue; // learning or baseline: decides in-node
        const std::uint64_t key = twig->checkpoint().checksum();
        std::size_t g = keys.size();
        for (std::size_t i = 0; i < keys.size(); ++i) {
            if (keys[i] == key) {
                g = i;
                break;
            }
        }
        if (g == keys.size()) {
            keys.push_back(key);
            groups.emplace_back();
        }
        groups[g].members.push_back(n);
        groups[g].twigs.push_back(twig);
    }
    for (auto &group : groups) {
        if (group.members.size() < 2)
            continue; // a lone replica gains nothing from batching
        for (std::size_t n : group.members)
            nodeBatched_[n] = 1;
        cohorts_.push_back(std::move(group));
    }
}

Node &
ClusterManager::node(std::size_t i)
{
    common::fatalIf(i >= numNodes(), "ClusterManager::node: bad index");
    return slots_.node(i);
}

const FleetIntervalStats &
ClusterManager::step()
{
    const std::size_t num_nodes = numNodes();
    const std::size_t num_services = numServices();
    common::fatalIf(num_nodes == 0, "ClusterManager::step: no nodes");

    // 0. Faults: apply the schedule transitions due this step, then
    //    the periodic checkpoint, all serially — recovery and frame
    //    contents never depend on --jobs. Without an armed schedule
    //    this is a no-op and the step is byte-identical to the
    //    fault-free code.
    slots_.applyFaults(step_);

    // 1. Route: fleet offered load -> per-node shares (serial; the
    //    router's RNG streams must see the same draw sequence at any
    //    --jobs).
    const std::uint64_t t_route = now();
    fleetRps_.resize(num_services);
    for (std::size_t s = 0; s < num_services; ++s)
        fleetRps_[s] = fleetLoads_[s]->rps(step_);
    slots_.applySurge(fleetRps_);

    // 1b. Elastic sizing: retire due drains, then run the decision
    //     rule against the surge-adjusted offered load and the last
    //     interval's trailing fleet p99 (still in fleetStats_) —
    //     serially, before routing, so the router deals this
    //     interval's load across the post-decision fleet shape.
    slots_.applyAutoscale(fleetRps_,
                          step_ > 0 ? &fleetStats_.fleetP99Ms : nullptr);

    // Only serving slots (Active, not crashed) take new load; every
    // other slot routes at weight 0.
    weights_.resize(num_nodes);
    bool any_powered = false;
    for (std::size_t n = 0; n < num_nodes; ++n) {
        weights_[n] =
            slots_.serving(n) ? slots_.node(n).capacityWeight() : 0.0;
        any_powered = any_powered || slots_.powered(n);
    }

    feedback_.qosTargetsMs.clear();
    if (step_ > 0) {
        feedback_.p99MsByNode.resize(num_nodes);
        for (std::size_t n = 0; n < num_nodes; ++n) {
            feedback_.p99MsByNode[n].resize(num_services);
            for (std::size_t s = 0; s < num_services; ++s)
                feedback_.p99MsByNode[n][s] = slots_.node(n).lastP99Ms(s);
        }
        for (const auto &svc : slots_.services())
            feedback_.qosTargetsMs.push_back(svc.qosTargetMs);
    } else {
        feedback_.p99MsByNode.clear();
    }
    router_.routeInto(fleetRps_, weights_, feedback_, shares_);
    double shed_rps = 0.0;
    if (!any_powered) {
        // No slot is powered: the interval's whole offered load is
        // shed (a well-defined record, not NaN shares). A powered fleet
        // that is entirely draining refuses new load on purpose, which
        // is not a shed.
        for (double rps : fleetRps_)
            shed_rps += rps;
        slots_.shed(shed_rps);
    }
    profile_.routeCycles += now() - t_route;

    // 2. Step every powered node. Nodes are sealed seeded worlds, so
    //    the pool schedule cannot change any node's results — only the
    //    order they finish in, which the serial merge below ignores.
    //    Cohort members defer their decisions to the batched pass;
    //    cohorts regroup only when slot membership or the batching
    //    switch changed.
    if (cohortsGeneration_ != slots_.generation() ||
        cohortsBatched_ != batchedInference_)
        rebuildCohorts();
    const std::uint64_t t_step = now();
    for (std::size_t n = 0; n < num_nodes; ++n) {
        slots_.node(n).setDeferDecision(nodeBatched_[n] != 0);
        if (slots_.powered(n))
            slots_.node(n).setOfferedLoad(shares_[n]);
    }
    if (cfg_.jobs > 1 && num_nodes > 1) {
        if (!pool_)
            pool_ = std::make_unique<common::ThreadPool>(cfg_.jobs);
        pool_->parallelFor(0, num_nodes, [this](std::size_t n) {
            if (slots_.powered(n))
                slots_.node(n).stepInterval();
        });
    } else {
        for (std::size_t n = 0; n < num_nodes; ++n) {
            if (slots_.powered(n))
                slots_.node(n).stepInterval();
        }
    }
    profile_.stepCycles += now() - t_step;

    // 2b. Batched inference: per cohort, gather every member's joint
    //     state into one matrix, run ONE fused forward on the first
    //     member's network (all members hold identical parameters by
    //     construction), scatter the per-row greedy actions back.
    //     Serial and in cohort/member order — bit-identical to the
    //     per-node decides it replaces, at any --jobs.
    for (auto &cohort : cohorts_) {
        const std::uint64_t t_gather = now();
        const std::size_t rows = cohort.members.size();
        const std::size_t input_dim =
            cohort.twigs[0]->learner().config().net.inputDim();
        cohort.states.resize(rows, input_dim);
        for (std::size_t i = 0; i < rows; ++i) {
            const std::vector<float> &state =
                cohort.twigs[i]->observeState(
                    slots_.node(cohort.members[i]).managerStats());
            std::copy(state.begin(), state.end(), cohort.states.rowPtr(i));
        }
        profile_.gatherCycles += now() - t_gather;

        const std::uint64_t t_fwd = now();
        cohort.twigs[0]->learner().greedyActionsRows(
            cohort.states, cohort.qScratch, cohort.actions);
        profile_.forwardCycles += now() - t_fwd;

        const std::uint64_t t_scatter = now();
        for (std::size_t i = 0; i < rows; ++i)
            slots_.node(cohort.members[i]).finishDecision(cohort.actions[i]);
        profile_.scatterCycles += now() - t_scatter;
    }
    // In-node decides (non-cohort nodes, or batching off) accumulate
    // their cycles node-locally; fold them into the same measure.
    for (std::size_t n = 0; n < num_nodes; ++n)
        profile_.forwardCycles += slots_.node(n).takeDecideCycles();

    // 3. Merge, serially in slot order: each powered node's power adds
    //    into fleet power, and its latency histograms into this
    //    interval's slot of the fleet ring. Bin counts are integers,
    //    so the merged counts do not depend on the order.
    const std::uint64_t t_merge = now();
    std::vector<stats::Histogram> &merged =
        recent_[step_ % sim::kQosWindowIntervals];
    for (auto &h : merged)
        h.clear();

    FleetIntervalStats &out = fleetStats_;
    out.step = step_;
    out.offeredRps = fleetRps_;
    out.fleetP99Ms.assign(num_services, 0.0);
    out.totalPowerW = 0.0;
    out.nodeUp.resize(num_nodes);
    out.shedRps = shed_rps;
    out.servingNodes = 0;
    out.drainingNodes = 0;
    for (std::size_t n = 0; n < num_nodes; ++n) {
        out.nodeUp[n] = slots_.powered(n) ? 1 : 0;
        if (out.nodeUp[n] == 0)
            continue; // crashed/standby: no samples, no power
        slots_.markServed(n);
        if (slots_.serving(n))
            ++out.servingNodes;
        else
            ++out.drainingNodes;
        const Node &node = slots_.node(n);
        out.totalPowerW += node.lastStats().socketPowerW;
        for (std::size_t s = 0; s < num_services; ++s)
            merged[s].merge(node.intervalHistogram(s));
    }
    // The interval's fault and scale events, and its bill.
    out.costDollars =
        slots_.closeStep(out.nodeUp, out.faultEvents, out.scaleEvents);
    // Fleet p99 over the ring, a short trailing window of intervals
    // (one interval's p99 is a noisy order statistic at realistic
    // rates; slots not yet filled are empty); the next interval's
    // scale decision reads it.
    for (std::size_t s = 0; s < num_services; ++s) {
        trailing_[s].clear();
        for (const auto &slot : recent_)
            trailing_[s].merge(slot[s]);
        out.fleetP99Ms[s] = trailing_[s].quantile(0.99);
    }
    profile_.mergeCycles += now() - t_merge;

    ++step_;
    ++profile_.steps;
    return out;
}

FleetRunResult
ClusterManager::run(
    std::size_t steps, std::size_t summary_window,
    const std::function<void(std::size_t, const FleetIntervalStats &)>
        &on_step)
{
    common::fatalIf(steps == 0, "ClusterManager::run: zero steps");
    common::fatalIf(summary_window == 0 || summary_window > steps,
                    "ClusterManager::run: summary window must be in "
                    "[1, steps]");
    const std::vector<sim::ServiceProfile> &services = slots_.services();
    const std::size_t num_services = services.size();
    const std::size_t window_start = steps - summary_window;

    // Window accumulators: merged histograms for the exact fleet-wide
    // window p99, plus per-interval QoS pass counts.
    std::vector<stats::Histogram> window_hists;
    for (const auto &svc : services)
        window_hists.push_back(latencyHistogram(svc));
    std::vector<std::size_t> qos_ok(num_services, 0);
    double power_sum = 0.0;

    FleetRunResult result;
    result.trace.reserve(steps);
    for (std::size_t t = 0; t < steps; ++t) {
        const FleetIntervalStats &fs = step();
        if (t >= window_start) {
            for (std::size_t s = 0; s < num_services; ++s) {
                window_hists[s].merge(intervalHistogram(s));
                if (fs.fleetP99Ms[s] <= services[s].qosTargetMs)
                    ++qos_ok[s];
            }
            power_sum += fs.totalPowerW;
        }
        if (on_step)
            on_step(t, fs);
        result.trace.push_back(fs);
    }

    FleetRunMetrics &m = result.metrics;
    m.windowSteps = summary_window;
    for (std::size_t s = 0; s < num_services; ++s) {
        m.serviceNames.push_back(services[s].name);
        m.windowP99Ms.push_back(window_hists[s].quantile(0.99));
        m.qosGuaranteePct.push_back(100.0 *
                                    static_cast<double>(qos_ok[s]) /
                                    static_cast<double>(summary_window));
    }
    m.meanPowerW = power_sum / static_cast<double>(summary_window);
    // Fleet energy over the window: mean power x window wall time. All
    // nodes share the control-interval length of the first machine.
    m.energyJoules = power_sum * slots_.node(0).machine().intervalSeconds;
    m.costDollars = slots_.costDollars();
    return result;
}

} // namespace twig::cluster
