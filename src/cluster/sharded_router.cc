#include "cluster/sharded_router.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/rng.hh"

namespace twig::cluster {

namespace {

/** Cap on a node's QoS-excess contribution to its domain's headroom
 * (same bound the inner p2c cost uses, so one terrible interval cannot
 * starve a whole domain). */
constexpr double kMaxQosExcess = 2.0;

} // namespace

ShardedRouter::ShardedRouter(const ShardedRouterConfig &cfg,
                             std::uint64_t seed)
    : cfg_(cfg), seed_(seed)
{
    common::fatalIf(cfg_.domains == 0,
                    "ShardedRouter: need at least one domain");
}

void
ShardedRouter::bind(std::size_t nodes)
{
    common::fatalIf(nodes == 0, "ShardedRouter::bind: no nodes");
    if (bound()) {
        common::fatalIf(nodes_ != nodes,
                        "ShardedRouter::bind: fleet resized from ",
                        nodes_, " to ", nodes,
                        " nodes (the partition is fixed at first use)");
        return;
    }
    common::fatalIf(cfg_.domains > nodes, "ShardedRouter::bind: ",
                    cfg_.domains, " domains for ", nodes, " nodes");
    nodes_ = nodes;

    domains_.resize(cfg_.domains);
    for (std::size_t d = 0; d < cfg_.domains; ++d) {
        Domain &dom = domains_[d];
        // Contiguous balanced partition: domain d covers
        // [d*N/D, (d+1)*N/D) — every domain within one node of even.
        dom.first = d * nodes / cfg_.domains;
        dom.count = (d + 1) * nodes / cfg_.domains - dom.first;
        // Domain 0 inherits the caller's seed verbatim so a one-domain
        // fleet replays the flat Router's draw sequence bit for bit;
        // siblings get independent derived streams.
        const std::uint64_t dseed =
            d == 0 ? seed_ : common::sweepSeed(seed_, 0xd0a000 + d);
        dom.router = std::make_unique<Router>(cfg_.router, dseed);
    }
}

std::size_t
ShardedRouter::domainOf(std::size_t n) const
{
    common::fatalIf(!bound(), "ShardedRouter::domainOf: not bound");
    common::fatalIf(n >= nodes_, "ShardedRouter::domainOf: bad node");
    return n * cfg_.domains / nodes_;
}

const Domain &
ShardedRouter::domain(std::size_t d) const
{
    common::fatalIf(!bound(), "ShardedRouter::domain: not bound");
    common::fatalIf(d >= domains_.size(),
                    "ShardedRouter::domain: bad index");
    return domains_[d];
}

void
ShardedRouter::routeInto(const std::vector<double> &fleet_rps,
                         const std::vector<double> &weights,
                         const RouterFeedback &feedback,
                         std::vector<std::vector<double>> &out)
{
    common::fatalIf(weights.empty(), "ShardedRouter::route: no nodes");
    bind(weights.size());
    common::fatalIf(weights.size() != nodes_,
                    "ShardedRouter::route: ", weights.size(),
                    " weights for a ", nodes_, "-node partition");

    // A single domain is the flat router: forward the fleet vectors
    // verbatim (no slicing arithmetic in the way of bit-identity).
    if (domains_.size() == 1) {
        domains_[0].router->routeInto(fleet_rps, weights, feedback, out);
        return;
    }

    const std::size_t num_services = fleet_rps.size();
    out.resize(nodes_);
    for (auto &row : out)
        row.assign(num_services, 0.0);

    // Level 1 — the domain split, one service at a time. Weight =
    // live capacity x QoS headroom: a domain whose members sat
    // above target last interval takes proportionally less of this
    // one. Pure arithmetic, no draws: the split can never perturb the
    // inner routers' RNG streams.
    for (std::size_t d = 0; d < domains_.size(); ++d)
        domains_[d].rps.assign(num_services, 0.0);
    domainWeight_.resize(domains_.size());
    for (std::size_t s = 0; s < num_services; ++s) {
        double total = 0.0;
        for (std::size_t d = 0; d < domains_.size(); ++d) {
            const Domain &dom = domains_[d];
            double capacity = 0.0;
            double excess_sum = 0.0;
            std::size_t live = 0;
            for (std::size_t i = 0; i < dom.count; ++i) {
                const std::size_t n = dom.first + i;
                if (weights[n] == 0.0)
                    continue;
                ++live;
                capacity += weights[n];
                if (n < feedback.p99MsByNode.size() &&
                    s < feedback.p99MsByNode[n].size() &&
                    s < feedback.qosTargetsMs.size() &&
                    feedback.qosTargetsMs[s] > 0.0) {
                    const double tardiness = feedback.p99MsByNode[n][s] /
                        feedback.qosTargetsMs[s];
                    excess_sum += std::clamp(tardiness - 1.0, 0.0,
                                             kMaxQosExcess);
                }
            }
            // headroom in (0, 1]: 1 with every member on target (or
            // before any feedback), shrinking as the domain's mean
            // QoS excess grows. A domain whose members all weigh 0
            // weighs nothing — its share renormalises onto the
            // siblings below.
            const double mean_excess = live > 0
                ? excess_sum / static_cast<double>(live)
                : 0.0;
            domainWeight_[d] =
                live > 0 ? capacity / (1.0 + mean_excess) : 0.0;
            total += domainWeight_[d];
        }
        // Every weight 0: no domain takes load (rps stays 0).
        if (total <= 0.0)
            continue;
        for (std::size_t d = 0; d < domains_.size(); ++d)
            domains_[d].rps[s] = fleet_rps[s] * domainWeight_[d] / total;
    }

    // Level 2 — each domain deals its slice across its members with
    // the configured policy, from its own RNG stream. A domain whose
    // members all weigh 0 got no slice above, and its inner router
    // deals nothing (and draws nothing) for it.
    for (std::size_t d = 0; d < domains_.size(); ++d) {
        Domain &dom = domains_[d];
        dom.weights.resize(dom.count);
        for (std::size_t i = 0; i < dom.count; ++i)
            dom.weights[i] = weights[dom.first + i];
        dom.feedback.qosTargetsMs = feedback.qosTargetsMs;
        if (feedback.p99MsByNode.empty()) {
            dom.feedback.p99MsByNode.clear();
        } else {
            dom.feedback.p99MsByNode.resize(dom.count);
            for (std::size_t i = 0; i < dom.count; ++i)
                dom.feedback.p99MsByNode[i] =
                    feedback.p99MsByNode[dom.first + i];
        }
        dom.router->routeInto(dom.rps, dom.weights, dom.feedback,
                              dom.shares);
        for (std::size_t i = 0; i < dom.count; ++i)
            out[dom.first + i] = dom.shares[i];
    }
}

} // namespace twig::cluster
