#include "baselines/parties.hh"

#include <algorithm>

#include "common/error.hh"

namespace twig::baselines {

Parties::Parties(const PartiesConfig &cfg,
                 const sim::MachineConfig &machine,
                 std::vector<BaselineServiceSpec> specs,
                 std::uint64_t seed)
    : cfg_(cfg), machine_(machine), specs_(std::move(specs)), rng_(seed),
      cores_(specs_.size(), machine.numCores),
      dvfs_(specs_.size(), machine.dvfs.maxIndex()),
      nextReclaim_(specs_.size(), Resource::Cores)
{
    common::fatalIf(specs_.empty(), "parties: no services");
}

void
Parties::upsize(std::size_t svc, Resource r)
{
    if (r == Resource::Cores) {
        if (cores_[svc] < machine_.numCores) {
            ++cores_[svc];
            ++migrations_;
        } else if (dvfs_[svc] < machine_.dvfs.maxIndex()) {
            ++dvfs_[svc]; // cores exhausted: fall back to DVFS
        }
    } else {
        if (dvfs_[svc] < machine_.dvfs.maxIndex()) {
            ++dvfs_[svc];
        } else if (cores_[svc] < machine_.numCores) {
            ++cores_[svc]; // DVFS exhausted: fall back to cores
            ++migrations_;
        }
    }
}

void
Parties::downsize(std::size_t svc, Resource r)
{
    if (r == Resource::Cores) {
        if (cores_[svc] > 1) {
            --cores_[svc];
            ++migrations_;
        }
    } else {
        if (dvfs_[svc] > 0)
            --dvfs_[svc];
    }
}

void
Parties::decideInto(const sim::ServerIntervalStats &stats,
                    std::vector<core::ResourceRequest> &out)
{
    common::fatalIf(stats.services.size() != specs_.size(),
                    "parties: telemetry/spec count mismatch");

    if (step_++ % cfg_.periodSteps != 0) {
        out.resize(specs_.size());
        for (std::size_t i = 0; i < specs_.size(); ++i)
            out[i] = {cores_[i], dvfs_[i]};
        return;
    }

    std::vector<double> tardiness(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i) {
        tardiness[i] =
            stats.services[i].p99Ms / specs_[i].qosTargetMs;
    }

    // Verify pending reclaims: revert any that pushed the service
    // towards violation, and switch that service's preferred resource.
    // A reclaim is verified once; the kept ones need no more watching.
    for (const Adjustment &adj : pending_) {
        if (tardiness[adj.service] >= cfg_.pressureFraction) {
            upsize(adj.service, adj.resource); // revert
            nextReclaim_[adj.service] =
                adj.resource == Resource::Cores ? Resource::Dvfs
                                                : Resource::Cores;
        }
    }
    pending_.clear();

    // Find the most pressured and the most slack service.
    std::size_t worst = 0, best = 0;
    for (std::size_t i = 1; i < specs_.size(); ++i) {
        if (tardiness[i] > tardiness[worst])
            worst = i;
        if (tardiness[i] < tardiness[best])
            best = i;
    }

    if (tardiness[worst] >= cfg_.pressureFraction) {
        // Under pressure: upsize one randomly-chosen resource.
        const Resource r = rng_.bernoulli(0.5) ? Resource::Cores
                                               : Resource::Dvfs;
        upsize(worst, r);
    } else {
        // All services comfortable: reclaim from the one with the most
        // slack, one resource at a time.
        const Resource r = nextReclaim_[best];
        const std::size_t before_cores = cores_[best];
        const std::size_t before_dvfs = dvfs_[best];
        downsize(best, r);
        if (cores_[best] != before_cores || dvfs_[best] != before_dvfs)
            pending_.push_back({best, r});
    }

    out.resize(specs_.size());
    for (std::size_t i = 0; i < specs_.size(); ++i)
        out[i] = {cores_[i], dvfs_[i]};
}

} // namespace twig::baselines
