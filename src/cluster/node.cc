#include "cluster/node.hh"

#include <algorithm>
#include <cmath>

#include "common/error.hh"
#include "common/sim_counters.hh"
#include "core/twig_manager.hh"

namespace twig::cluster {

stats::Histogram
latencyHistogram(const sim::ServiceProfile &svc)
{
    return stats::Histogram(0.0, svc.qosTargetMs * 32.0, 1024);
}

Node::Node(const NodeConfig &cfg, std::unique_ptr<core::TaskManager> manager,
           std::uint64_t seed, const FaultEnv &env)
    : config_(cfg), server_(cfg.machine, seed),
      manager_(std::move(manager)), mapper_(cfg.machine), env_(env),
      faultRng_(env.seed)
{
    common::fatalIf(config_.services.empty(), "Node: hosts no services");
    common::fatalIf(!manager_, "Node: null task manager");

    for (const auto &svc : config_.services) {
        auto load = std::make_unique<RoutedLoad>();
        loads_.push_back(load.get());
        server_.addService(svc, std::move(load));
        intervalHists_.push_back(latencyHistogram(svc));
    }

    server_.setLatencySink(
        [this](std::size_t svc, const double *lat_ms, std::size_t n) {
            for (std::size_t j = 0; j < n; ++j)
                intervalHists_[svc].add(lat_ms[j]);
        });

    requests_ = manager_->initialRequests(config_.services.size(),
                                          config_.machine);
}

const sim::ServiceProfile &
Node::profile(std::size_t svc) const
{
    common::fatalIf(svc >= config_.services.size(),
                    "Node::profile: bad index");
    return config_.services[svc];
}

void
Node::setOfferedLoad(const std::vector<double> &rps)
{
    common::fatalIf(rps.size() != loads_.size(),
                    "Node::setOfferedLoad: need one RPS per service "
                    "(got ", rps.size(), ", have ", loads_.size(), ")");
    for (std::size_t i = 0; i < rps.size(); ++i) {
        common::fatalIf(rps[i] < 0.0,
                        "Node::setOfferedLoad: negative RPS");
        loads_[i]->set(rps[i]);
    }
    loadSet_ = true;
}

void
Node::setFaultEnv(const FaultEnv &env, bool reseed_noise)
{
    env_ = env;
    if (reseed_noise)
        faultRng_.reseed(env.seed);
}

const sim::ServerIntervalStats &
Node::stepInterval()
{
    common::fatalIf(!loadSet_,
                    "Node::stepInterval: offered load never set");
    common::fatalIf(decisionPending_,
                    "Node::stepInterval: previous interval's deferred "
                    "decision never completed (finishDecision)");
    for (auto &h : intervalHists_)
        h.clear();
    // Thermal throttle: the hardware saturates whatever DVFS state
    // the manager asked for. Clamp at map time so the cap also covers
    // the initial all-cores-max requests.
    if (dvfsCapped()) {
        for (auto &req : requests_)
            req.dvfsIndex = std::min(req.dvfsIndex, env_.dvfsCap);
    }
    mapper_.mapInto(requests_, assignments_);
    const sim::ServerIntervalStats &stats = server_.runInterval(assignments_);
    if (env_.telemetryFault) {
        // Perturb before any decide so the fault RNG's draw sequence
        // is the same whether the decision runs in-node or deferred.
        perturbed_ = stats;
        for (std::size_t s = 0; s < perturbed_.services.size(); ++s) {
            auto &pmcs = perturbed_.services[s].pmcs;
            if (havePrevPmcs_ && s < prevPmcs_.size() &&
                faultRng_.bernoulli(env_.staleProb)) {
                pmcs = prevPmcs_[s]; // dropout: stale reading
            } else if (env_.sigma > 0.0) {
                for (auto &counter : pmcs)
                    counter *= std::exp(faultRng_.normal(0.0, env_.sigma));
            }
        }
        managerView_ = &perturbed_;
    } else {
        managerView_ = &stats;
    }
    if (deferDecision_) {
        decisionPending_ = true;
    } else {
        const std::uint64_t t0 = common::simprof::now();
        manager_->decideInto(*managerView_, requests_);
        decideCycles_ += common::simprof::now() - t0;
    }
    // Remember the truthful counters as the next interval's stale-
    // reading source (cheap fixed-size copies).
    if (prevPmcs_.size() != stats.services.size())
        prevPmcs_.resize(stats.services.size());
    for (std::size_t s = 0; s < stats.services.size(); ++s)
        prevPmcs_[s] = stats.services[s].pmcs;
    havePrevPmcs_ = true;
    return stats;
}

const sim::ServerIntervalStats &
Node::managerStats() const
{
    common::fatalIf(managerView_ == nullptr,
                    "Node::managerStats: no interval stepped yet");
    return *managerView_;
}

void
Node::finishDecision(const std::vector<nn::BranchActions> &actions)
{
    common::fatalIf(!decisionPending_,
                    "Node::finishDecision: no deferred decision pending");
    auto *twig = dynamic_cast<core::TwigManager *>(manager_.get());
    common::fatalIf(twig == nullptr,
                    "Node::finishDecision: manager is not a TwigManager");
    twig->applyDecision(actions, requests_);
    decisionPending_ = false;
}

std::uint64_t
Node::takeDecideCycles()
{
    const std::uint64_t cycles = decideCycles_;
    decideCycles_ = 0;
    return cycles;
}

double
Node::lastP99Ms(std::size_t svc) const
{
    const sim::ServerIntervalStats &stats = server_.lastStats();
    if (stats.services.size() <= svc)
        return 0.0;
    return stats.services[svc].p99Ms;
}

const stats::Histogram &
Node::intervalHistogram(std::size_t svc) const
{
    common::fatalIf(svc >= intervalHists_.size(),
                    "Node::intervalHistogram: bad index");
    return intervalHists_[svc];
}

} // namespace twig::cluster
