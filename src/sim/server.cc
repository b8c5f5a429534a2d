#include "sim/server.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/sim_counters.hh"

namespace twig::sim {

Server::Server(const MachineConfig &machine, std::uint64_t seed)
    : machine_(machine), rng_(seed), interference_(machine),
      pmcModel_(machine, rng_.fork()), rapl_(machine)
{
    common::fatalIf(machine.numCores == 0, "server needs >= 1 core");
}

std::size_t
Server::addService(const ServiceProfile &profile,
                   std::unique_ptr<LoadGenerator> load)
{
    common::fatalIf(!load, "addService: null load generator");
    Hosted h;
    h.profile = profile;
    h.load = std::move(load);
    h.queue = std::make_unique<RequestQueueSim>(
        profile, rng_.fork(), machine_.dvfs.maxGhz, 200000,
        machine_.serviceRateScale);
    services_.push_back(std::move(h));
    prevBusy_.push_back(0.0);
    return services_.size() - 1;
}

void
Server::replaceService(std::size_t idx, const ServiceProfile &profile,
                       std::unique_ptr<LoadGenerator> load)
{
    common::fatalIf(idx >= services_.size(), "replaceService: bad index");
    common::fatalIf(!load, "replaceService: null load generator");
    Hosted &h = services_[idx];
    h.profile = profile;
    h.load = std::move(load);
    h.queue = std::make_unique<RequestQueueSim>(
        profile, rng_.fork(), machine_.dvfs.maxGhz, 200000,
        machine_.serviceRateScale);
    prevBusy_[idx] = 0.0;
}

const ServiceProfile &
Server::profile(std::size_t idx) const
{
    common::fatalIf(idx >= services_.size(), "profile: bad index");
    return services_[idx].profile;
}

const ServerIntervalStats &
Server::runInterval(const std::vector<CoreAssignment> &assignments)
{
    common::fatalIf(assignments.size() != services_.size(),
                    "runInterval: need one assignment per service (got ",
                    assignments.size(), ", have ", services_.size(), ")");

    const double dt = machine_.intervalSeconds;
    const double t0 = static_cast<double>(step_) * dt;

    ServerIntervalStats &out = stats_;
    out.step = step_;
    out.services.resize(services_.size());

    {
        common::simprof::ScopedPhaseTimer timer(
            common::simprof::Phase::Interference);

        // Interference from this interval's joint demand.
        demands_.clear();
        demands_.reserve(services_.size());
        for (std::size_t i = 0; i < services_.size(); ++i) {
            demands_.push_back(
                {&services_[i].profile, services_[i].load->rps(step_)});
        }
        interference_.evaluateInto(demands_, effects_);
    }

    // Per-core bookkeeping for the power model.
    cores_.assign(machine_.numCores,
                  CorePowerState{true, machine_.dvfs.minGhz, 0.0});

    // Work-conserving shared-pool split: co-runners consume pool
    // capacity (estimated from the previous interval's busy time that
    // did not fit on their dedicated cores); each participant keeps at
    // least its fair share of the pool.
    shaped_ = assignments;
    std::size_t participants = 0;
    for (const auto &a : shaped_)
        participants += a.sharedCores.empty() ? 0 : 1;
    for (std::size_t i = 0; i < shaped_.size(); ++i) {
        if (shaped_[i].sharedCores.empty())
            continue;
        const auto pool = static_cast<double>(
            shaped_[i].sharedCores.size());
        double co_demand = 0.0;
        for (std::size_t j = 0; j < shaped_.size(); ++j) {
            if (j == i || assignments[j].sharedCores.empty())
                continue;
            const double ded_capacity = dt *
                static_cast<double>(
                    assignments[j].dedicatedCores.size());
            co_demand +=
                std::max(0.0, prevBusy_[j] - ded_capacity) / dt;
        }
        const double fair = pool /
            static_cast<double>(std::max<std::size_t>(participants, 1));
        shaped_[i].sharedUsableCores =
            std::clamp(pool - co_demand, fair, pool);
    }

    for (std::size_t i = 0; i < services_.size(); ++i) {
        Hosted &svc = services_[i];
        const CoreAssignment &asg = shaped_[i];
        const double rps = demands_[i].offeredRps;

        const QueueIntervalResult &qr = svc.queue->run(
            t0, dt, rps, asg, effects_[i].serviceTimeInflation);

        if (latencySink_)
            latencySink_(i, qr.latenciesMs.data(), qr.latenciesMs.size());

        ServiceIntervalStats &s = out.services[i];
        s.name = svc.profile.name;
        s.offeredRps = rps;
        s.p99Ms = qr.p99Ms;
        s.p99InstantMs = qr.p99InstantMs;
        s.completed = qr.completed;
        s.arrivals = qr.arrivals;
        s.dropped = qr.dropped;
        s.queuedAtEnd = qr.queuedAtEnd;
        s.busyCoreSeconds = qr.busyCoreSeconds;
        s.effectiveCores = asg.effectiveCores();
        s.freqGhz = asg.freqGhz;

        IntervalExecution exec;
        exec.completedRequests = qr.completed;
        exec.busyCoreSeconds = qr.busyCoreSeconds;
        exec.freqGhz = asg.freqGhz;
        exec.llcMissFactor = effects_[i].llcMissFactor;
        s.pmcs = pmcModel_.synthesize(svc.profile, exec);

        // Spread the service's busy time uniformly over its cores and
        // update the physical-core states.
        const double eff = std::max(asg.effectiveCores(), 1e-9);
        const double util =
            std::clamp(qr.busyCoreSeconds / (dt * eff), 0.0, 1.0);
        for (std::size_t core : asg.dedicatedCores) {
            common::fatalIf(core >= machine_.numCores,
                            "assignment references core ", core,
                            " beyond socket");
            cores_[core].freqGhz = std::max(cores_[core].freqGhz,
                                            asg.freqGhz);
            cores_[core].utilization =
                std::clamp(cores_[core].utilization + util, 0.0, 1.0);
        }
        const double share = asg.sharedCores.empty()
            ? 0.0
            : asg.usableSharedCores() /
                static_cast<double>(asg.sharedCores.size());
        for (std::size_t core : asg.sharedCores) {
            common::fatalIf(core >= machine_.numCores,
                            "assignment references core ", core,
                            " beyond socket");
            cores_[core].freqGhz = std::max(cores_[core].freqGhz,
                                            asg.sharedFreqGhz);
            cores_[core].utilization = std::clamp(
                cores_[core].utilization + util * share, 0.0, 1.0);
        }
        prevBusy_[i] = qr.busyCoreSeconds;
    }

    common::simprof::ScopedPhaseTimer power_timer(
        common::simprof::Phase::Power);

    // Ground-truth attribution of dynamic power (diagnostics only).
    const PowerModel &pm = rapl_.model();
    for (std::size_t i = 0; i < services_.size(); ++i) {
        const CoreAssignment &asg = shaped_[i];
        const ServiceIntervalStats &s = out.services[i];
        const double eff = std::max(asg.effectiveCores(), 1e-9);
        const double util =
            std::clamp(s.busyCoreSeconds / (dt * eff), 0.0, 1.0);
        double p = 0.0;
        for (std::size_t n = 0; n < asg.dedicatedCores.size(); ++n) {
            p += pm.corePower({true, asg.freqGhz, util}) -
                pm.corePower({true, machine_.dvfs.minGhz, 0.0});
        }
        const double share = asg.sharedCores.empty()
            ? 0.0
            : asg.usableSharedCores() /
                static_cast<double>(asg.sharedCores.size());
        for (std::size_t n = 0; n < asg.sharedCores.size(); ++n) {
            p += share *
                (pm.corePower({true, asg.sharedFreqGhz, util}) -
                 pm.corePower({true, machine_.dvfs.minGhz, 0.0}));
        }
        out.services[i].attributedPowerW = p;
    }

    rapl_.integrate(cores_, dt);
    out.socketPowerW = rapl_.lastPowerW();
    out.energyJoules = rapl_.energyJoules();

    ++step_;
    return out;
}

} // namespace twig::sim
