#include "cluster/router.hh"

#include <algorithm>

#include "common/error.hh"

namespace twig::cluster {

namespace {

/** Cap on the per-node QoS-excess cost term of the two-choices
 * policy, in fair-shares of load (see routeP2c). */
constexpr double kMaxQosPenalty = 2.0;

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
    : cfg_(cfg), rng_(seed)
{
}

std::vector<std::vector<double>>
Router::route(const std::vector<double> &fleet_rps,
              const std::vector<double> &weights,
              const RouterFeedback &feedback)
{
    std::vector<std::vector<double>> out;
    routeInto(fleet_rps, weights, feedback, out);
    return out;
}

void
Router::routeInto(const std::vector<double> &fleet_rps,
                  const std::vector<double> &weights,
                  const RouterFeedback &feedback,
                  std::vector<std::vector<double>> &out)
{
    common::fatalIf(weights.empty(), "Router::route: no nodes");
    for (double w : weights)
        common::fatalIf(w < 0.0, "Router::route: negative weight");
    for (double rps : fleet_rps)
        common::fatalIf(rps < 0.0, "Router::route: negative fleet RPS");

    out.resize(weights.size());
    for (auto &row : out)
        row.assign(fleet_rps.size(), 0.0);

    switch (cfg_.policy) {
    case RoutingPolicy::Static:
        routeStaticInto(fleet_rps, weights, out);
        return;
    case RoutingPolicy::WeightedRoundRobin:
        routeWrrInto(fleet_rps, weights, out);
        return;
    case RoutingPolicy::PowerOfTwoLatency:
        routeP2cInto(fleet_rps, weights, feedback, out);
        return;
    }
    common::panic("Router::route: bad policy enum");
}

void
Router::routeStaticInto(const std::vector<double> &fleet_rps,
                        const std::vector<double> &weights,
                        std::vector<std::vector<double>> &out)
{
    // Equal split among the positive-weight nodes; their capacities
    // are ignored by design.
    const auto live = static_cast<std::size_t>(
        std::count_if(weights.begin(), weights.end(),
                      [](double w) { return w > 0.0; }));
    if (live == 0)
        return;
    for (std::size_t s = 0; s < fleet_rps.size(); ++s) {
        const double share = fleet_rps[s] / static_cast<double>(live);
        for (std::size_t n = 0; n < weights.size(); ++n)
            out[n][s] = weights[n] > 0.0 ? share : 0.0;
    }
}

void
Router::routeWrrInto(const std::vector<double> &fleet_rps,
                     const std::vector<double> &weights,
                     std::vector<std::vector<double>> &out)
{
    const std::size_t nodes = weights.size();
    if (wrrCredit_.size() != nodes)
        wrrCredit_.resize(nodes, 0.0);
    // Only positive-weight nodes earn credit or count toward the total
    // weight, so a weight-0 node's share re-normalises onto the rest.
    // Its credit is held at 0: when it takes load again it re-enters
    // the interleaving without a stale credit advantage.
    double weight_sum = 0.0;
    for (std::size_t n = 0; n < nodes; ++n) {
        if (weights[n] == 0.0)
            wrrCredit_[n] = 0.0;
        weight_sum += weights[n];
    }
    if (weight_sum == 0.0)
        return;

    for (std::size_t s = 0; s < fleet_rps.size(); ++s) {
        const double quantum =
            fleet_rps[s] / static_cast<double>(kQuantaPerService);
        // Smooth weighted round-robin (nginx-style): every quantum
        // each node earns its weight in credit and the richest node
        // is charged the total weight. Credits persist across
        // intervals so the interleaving stays smooth at every scale.
        for (std::size_t q = 0; q < kQuantaPerService; ++q) {
            std::size_t best = nodes;
            for (std::size_t n = 0; n < nodes; ++n) {
                if (weights[n] == 0.0)
                    continue;
                wrrCredit_[n] += weights[n];
                if (best == nodes || wrrCredit_[n] > wrrCredit_[best])
                    best = n;
            }
            wrrCredit_[best] -= weight_sum;
            out[best][s] += quantum;
        }
    }
}

void
Router::routeP2cInto(const std::vector<double> &fleet_rps,
                     const std::vector<double> &weights,
                     const RouterFeedback &feedback,
                     std::vector<std::vector<double>> &out)
{
    const std::size_t nodes = weights.size();
    liveIdx_.clear();
    for (std::size_t n = 0; n < nodes; ++n) {
        if (weights[n] > 0.0)
            liveIdx_.push_back(n);
    }
    if (liveIdx_.empty())
        return;
    // A single positive-weight replica takes everything: two-choices
    // needs two candidates, and uniformInt(0) below would be undefined.
    if (liveIdx_.size() == 1) {
        out[liveIdx_[0]] = fleet_rps;
        return;
    }

    double weight_sum = 0.0;
    for (std::size_t n : liveIdx_)
        weight_sum += weights[n];

    for (std::size_t s = 0; s < fleet_rps.size(); ++s) {
        const double quantum =
            fleet_rps[s] / static_cast<double>(kQuantaPerService);
        // QoS-excess part of the cost: how far above its target a
        // node's previous-interval p99 sat, in units of the target
        // (0 for meeting nodes and before any feedback exists),
        // bounded so one terrible interval cannot starve a node into
        // a load/idle oscillation.
        penalty_.assign(nodes, 0.0);
        for (std::size_t n = 0;
             n < std::min(nodes, feedback.p99MsByNode.size()); ++n) {
            const auto &p99s = feedback.p99MsByNode[n];
            if (s < p99s.size() && s < feedback.qosTargetsMs.size() &&
                feedback.qosTargetsMs[s] > 0.0) {
                const double tardiness =
                    p99s[s] / feedback.qosTargetsMs[s];
                penalty_[n] =
                    std::clamp(tardiness - 1.0, 0.0, kMaxQosPenalty);
            }
        }
        // Fair share of this service's quanta per node (capacity-
        // proportional among the live nodes); the dealt/fair ratio
        // makes the load half of the cost dimensionless and
        // comparable to the QoS half.
        fair_.assign(nodes, 0.0);
        for (std::size_t n : liveIdx_)
            fair_[n] = static_cast<double>(kQuantaPerService) *
                weights[n] / weight_sum;
        dealt_.assign(nodes, 0.0);
        const std::size_t live = liveIdx_.size();
        for (std::size_t q = 0; q < kQuantaPerService; ++q) {
            const std::size_t a = liveIdx_[rng_.uniformInt(live)];
            std::size_t bi = rng_.uniformInt(live - 1);
            // Second choice distinct from the first (by live index, so
            // the draw sequence with every weight positive matches the
            // pre-health router bit for bit).
            std::size_t b = liveIdx_[bi];
            if (b >= a) {
                ++bi;
                b = liveIdx_[bi];
            }
            auto cost = [&](std::size_t n) {
                return penalty_[n] + dealt_[n] / fair_[n];
            };
            const std::size_t pick = cost(a) <= cost(b) ? a : b;
            dealt_[pick] += 1.0;
            out[pick][s] += quantum;
        }
    }
}

} // namespace twig::cluster
