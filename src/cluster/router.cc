#include "cluster/router.hh"

#include <algorithm>

#include "common/error.hh"

namespace twig::cluster {

namespace {

/** Cap on a node's QoS excess, in units of its target: it bounds the
 * node's two-choices cost term (in fair-shares of load) and its share
 * of its domain's headroom, so one terrible interval cannot starve a
 * node or a whole domain into a load/idle oscillation. */
constexpr double kMaxQosExcess = 2.0;

} // namespace

RoutingPolicy
routingPolicyByName(const std::string &name)
{
    if (name == "static")
        return RoutingPolicy::Static;
    if (name == "wrr")
        return RoutingPolicy::WeightedRoundRobin;
    if (name == "p2c-latency")
        return RoutingPolicy::PowerOfTwoLatency;
    common::fatal("unknown routing policy: ", name,
                  " (want static | wrr | p2c-latency)");
}

const char *
routingPolicyName(RoutingPolicy policy)
{
    switch (policy) {
    case RoutingPolicy::Static:
        return "static";
    case RoutingPolicy::WeightedRoundRobin:
        return "wrr";
    case RoutingPolicy::PowerOfTwoLatency:
        return "p2c-latency";
    }
    common::panic("routingPolicyName: bad enum value");
}

Router::Router(const RouterConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), seed_(seed)
{
    common::fatalIf(cfg_.domains == 0, "Router: need at least one domain");
}

void
Router::bind(std::size_t nodes)
{
    if (nodes_ != 0) {
        common::fatalIf(nodes_ != nodes, "Router: fleet resized from ",
                        nodes_, " to ", nodes,
                        " nodes (the partition is fixed at first use)");
        return;
    }
    common::fatalIf(cfg_.domains > nodes, "Router: ", cfg_.domains,
                    " domains for ", nodes, " nodes");
    nodes_ = nodes;
    domains_.resize(cfg_.domains);
    for (std::size_t d = 0; d < cfg_.domains; ++d) {
        Domain &dom = domains_[d];
        // Contiguous balanced partition: domain d covers
        // [d*N/D, (d+1)*N/D) — every domain within one node of even.
        dom.first = d * nodes / cfg_.domains;
        dom.count = (d + 1) * nodes / cfg_.domains - dom.first;
        // Domain 0 draws from the router's own seed, so a one-domain
        // fleet replays the flat router's draw sequence bit for bit;
        // siblings get independent derived streams.
        dom.rng.reseed(d == 0 ? seed_
                              : common::sweepSeed(seed_, 0xd0a000 + d));
    }
    wrrCredit_.assign(nodes, 0.0);
    fair_.assign(nodes, 0.0);
    dealt_.assign(nodes, 0.0);
}

void
Router::routeInto(const std::vector<double> &fleet_rps,
                  const std::vector<double> &weights,
                  const RouterFeedback &feedback,
                  std::vector<std::vector<double>> &out)
{
    common::fatalIf(weights.empty(), "Router::routeInto: no nodes");
    for (double w : weights)
        common::fatalIf(w < 0.0, "Router::routeInto: negative weight");
    for (double rps : fleet_rps)
        common::fatalIf(rps < 0.0,
                        "Router::routeInto: negative fleet RPS");
    bind(weights.size());

    const std::size_t services = fleet_rps.size();
    out.resize(nodes_);
    for (auto &row : out)
        row.assign(services, 0.0);

    // QoS excess: how far above its target a node's previous-interval
    // p99 sat, in units of the target (0 for meeting nodes and before
    // any feedback exists), bounded by kMaxQosExcess.
    excess_.assign(nodes_ * services, 0.0);
    const std::size_t reported =
        std::min(nodes_, feedback.p99MsByNode.size());
    for (std::size_t n = 0; n < reported; ++n) {
        const auto &p99s = feedback.p99MsByNode[n];
        for (std::size_t s = 0; s < services; ++s) {
            if (s < p99s.size() && s < feedback.qosTargetsMs.size() &&
                feedback.qosTargetsMs[s] > 0.0) {
                const double tardiness =
                    p99s[s] / feedback.qosTargetsMs[s];
                excess_[n * services + s] =
                    std::clamp(tardiness - 1.0, 0.0, kMaxQosExcess);
            }
        }
    }

    // A single domain deals the fleet RPS verbatim: no split
    // arithmetic in the way of bit identity with a flat router.
    const bool split = domains_.size() > 1;
    if (split)
        splitAcrossDomains(fleet_rps, weights);
    for (Domain &dom : domains_) {
        const std::vector<double> &rps = split ? dom.rps : fleet_rps;
        switch (cfg_.policy) {
        case RoutingPolicy::Static:
            dealStatic(dom, rps, weights, out);
            continue;
        case RoutingPolicy::WeightedRoundRobin:
            dealWrr(dom, rps, weights, out);
            continue;
        case RoutingPolicy::PowerOfTwoLatency:
            dealP2c(dom, rps, weights, out);
            continue;
        }
        common::panic("Router::routeInto: bad policy enum");
    }
}

void
Router::splitAcrossDomains(const std::vector<double> &fleet_rps,
                           const std::vector<double> &weights)
{
    // One service at a time. Weight = live capacity x QoS headroom: a
    // domain whose members sat above target last interval takes
    // proportionally less of this one. Pure arithmetic, no draws: the
    // split can never perturb the domains' RNG streams.
    const std::size_t services = fleet_rps.size();
    for (Domain &dom : domains_)
        dom.rps.assign(services, 0.0);
    domainWeight_.resize(domains_.size());
    for (std::size_t s = 0; s < services; ++s) {
        double total = 0.0;
        for (std::size_t d = 0; d < domains_.size(); ++d) {
            const Domain &dom = domains_[d];
            double capacity = 0.0;
            double excess_sum = 0.0;
            std::size_t live = 0;
            for (std::size_t n = dom.first; n < dom.first + dom.count;
                 ++n) {
                if (weights[n] == 0.0)
                    continue;
                ++live;
                capacity += weights[n];
                excess_sum += excess_[n * services + s];
            }
            // Headroom in (0, 1]: 1 with every member on target (or
            // before any feedback), shrinking as the domain's mean QoS
            // excess grows. A domain whose members all weigh 0 weighs
            // nothing: its share renormalises onto the siblings.
            domainWeight_[d] = live > 0
                ? capacity /
                    (1.0 + excess_sum / static_cast<double>(live))
                : 0.0;
            total += domainWeight_[d];
        }
        // Every weight 0: no domain takes load (rps stays 0).
        if (total <= 0.0)
            continue;
        for (std::size_t d = 0; d < domains_.size(); ++d)
            domains_[d].rps[s] = fleet_rps[s] * domainWeight_[d] / total;
    }
}

void
Router::dealStatic(const Domain &dom, const std::vector<double> &rps,
                   const std::vector<double> &weights,
                   std::vector<std::vector<double>> &out)
{
    // Equal split among the positive-weight members; their capacities
    // are ignored by design.
    const std::size_t end = dom.first + dom.count;
    std::size_t live = 0;
    for (std::size_t n = dom.first; n < end; ++n)
        live += weights[n] > 0.0;
    if (live == 0)
        return;
    for (std::size_t s = 0; s < rps.size(); ++s) {
        const double share = rps[s] / static_cast<double>(live);
        for (std::size_t n = dom.first; n < end; ++n) {
            if (weights[n] > 0.0)
                out[n][s] = share;
        }
    }
}

void
Router::dealWrr(const Domain &dom, const std::vector<double> &rps,
                const std::vector<double> &weights,
                std::vector<std::vector<double>> &out)
{
    const std::size_t end = dom.first + dom.count;
    // Only positive-weight members earn credit or count toward the
    // total weight, so a weight-0 node's share re-normalises onto the
    // rest. Its credit is held at 0: when it takes load again it
    // re-enters the interleaving without a stale credit advantage.
    double weight_sum = 0.0;
    for (std::size_t n = dom.first; n < end; ++n) {
        if (weights[n] == 0.0)
            wrrCredit_[n] = 0.0;
        weight_sum += weights[n];
    }
    if (weight_sum == 0.0)
        return;

    for (std::size_t s = 0; s < rps.size(); ++s) {
        const double quantum =
            rps[s] / static_cast<double>(kQuantaPerService);
        // Smooth weighted round-robin (nginx-style): every quantum
        // each member earns its weight in credit and the richest one
        // is charged the total weight. Credits persist across
        // intervals so the interleaving stays smooth at every scale.
        for (std::size_t q = 0; q < kQuantaPerService; ++q) {
            std::size_t best = end;
            for (std::size_t n = dom.first; n < end; ++n) {
                if (weights[n] == 0.0)
                    continue;
                wrrCredit_[n] += weights[n];
                if (best == end || wrrCredit_[n] > wrrCredit_[best])
                    best = n;
            }
            wrrCredit_[best] -= weight_sum;
            out[best][s] += quantum;
        }
    }
}

void
Router::dealP2c(Domain &dom, const std::vector<double> &rps,
                const std::vector<double> &weights,
                std::vector<std::vector<double>> &out)
{
    liveIdx_.clear();
    for (std::size_t n = dom.first; n < dom.first + dom.count; ++n) {
        if (weights[n] > 0.0)
            liveIdx_.push_back(n);
    }
    if (liveIdx_.empty())
        return;
    // A single positive-weight member takes everything: two-choices
    // needs two candidates, and uniformInt(0) below would be undefined.
    if (liveIdx_.size() == 1) {
        out[liveIdx_[0]] = rps;
        return;
    }

    double weight_sum = 0.0;
    for (std::size_t n : liveIdx_)
        weight_sum += weights[n];

    const std::size_t services = rps.size();
    const std::size_t live = liveIdx_.size();
    for (std::size_t s = 0; s < services; ++s) {
        const double quantum =
            rps[s] / static_cast<double>(kQuantaPerService);
        // Cost = QoS excess + quanta dealt in units of the member's
        // fair share (capacity-proportional among the live members):
        // the dealt/fair ratio makes the load half dimensionless and
        // comparable to the QoS half.
        for (std::size_t n : liveIdx_) {
            fair_[n] = static_cast<double>(kQuantaPerService) *
                weights[n] / weight_sum;
            dealt_[n] = 0.0;
        }
        auto cost = [&](std::size_t n) {
            return excess_[n * services + s] + dealt_[n] / fair_[n];
        };
        for (std::size_t q = 0; q < kQuantaPerService; ++q) {
            const std::size_t a = liveIdx_[dom.rng.uniformInt(live)];
            std::size_t bi = dom.rng.uniformInt(live - 1);
            // Second choice distinct from the first (by live index, so
            // the draw sequence with every weight positive matches the
            // pre-health router bit for bit).
            std::size_t b = liveIdx_[bi];
            if (b >= a) {
                ++bi;
                b = liveIdx_[bi];
            }
            const std::size_t pick = cost(a) <= cost(b) ? a : b;
            dealt_[pick] += 1.0;
            out[pick][s] += quantum;
        }
    }
}

} // namespace twig::cluster
