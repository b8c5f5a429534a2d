/**
 * @file
 * Replica routing: splits each service's fleet-wide offered RPS across
 * the nodes that host a replica, once per control interval.
 *
 * Three policies, in increasing awareness:
 *
 *  * Static — equal split, the naive front-end that knows nothing
 *    about the fleet. Overloads small nodes in heterogeneous fleets.
 *  * WeightedRoundRobin — smooth weighted round-robin over discrete
 *    load quanta, weights proportional to node capacity. Capacity-
 *    aware but latency-blind: it cannot react to interference or a
 *    struggling manager.
 *  * PowerOfTwoLatency — power-of-two-choices with latency feedback:
 *    each quantum samples two candidate nodes and goes to the one
 *    with the lower cost (previous-interval QoS tardiness plus the
 *    capacity-relative load already dealt this interval). The classic
 *    two-choices result gives near-best balance with O(1) state per
 *    decision.
 *
 * Routing is a pure, serial function of (policy state, fleet load,
 * feedback): it draws from its own seeded RNG and never depends on
 * thread scheduling, so cluster runs stay bit-identical at any
 * --jobs count.
 *
 * Routing weights carry every lifecycle decision: the router keeps no
 * health state. A node with weight 0 gets no new load and drops out of
 * every normalisation, so the nodes with positive weight absorb its
 * share; all-zero weights give all-zero shares. Whether a zero means
 * "crashed", "parked" or "draining" — and whether the interval's load
 * was therefore shed — is decided by the caller (the fleet's
 * SlotTable), not here.
 */

#ifndef TWIG_CLUSTER_ROUTER_HH
#define TWIG_CLUSTER_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"

namespace twig::cluster {

/** Replica-selection policy of the fleet front-end. */
enum class RoutingPolicy
{
    Static,
    WeightedRoundRobin,
    PowerOfTwoLatency,
};

/** Parse "static" | "wrr" | "p2c-latency" (FatalError otherwise). */
RoutingPolicy routingPolicyByName(const std::string &name);

/** Short name of @p policy (inverse of routingPolicyByName). */
const char *routingPolicyName(RoutingPolicy policy);

/** Discrete load quanta dealt per service per interval by the
 * quantum-based policies; more quanta = finer split (one quantum of
 * per-node noise is 100/quanta percent of the service's load, so this
 * stays large relative to a routing domain's node count). */
inline constexpr std::size_t kQuantaPerService = 256;

/** Router configuration. */
struct RouterConfig
{
    RoutingPolicy policy = RoutingPolicy::Static;
};

/** Per-interval feedback the router sees from the fleet. */
struct RouterFeedback
{
    /** p99MsByNode[node][service]: previous-interval tail latency;
     * empty before the first interval. */
    std::vector<std::vector<double>> p99MsByNode;
    /** QoS target per service (tardiness normalisation). */
    std::vector<double> qosTargetsMs;
};

/** Splits fleet load across replicas; owns the policy state. */
class Router
{
  public:
    Router(const RouterConfig &cfg, std::uint64_t seed);

    const RouterConfig &config() const { return cfg_; }

    /**
     * Split each service's fleet RPS across @p weights.size() nodes.
     *
     * @param fleet_rps  offered fleet load per service
     * @param weights    routing weight per node (>= 0; 0 = no new
     *                   load, > 0 = capacity share)
     * @param feedback   latency feedback (PowerOfTwoLatency only)
     * @return per-node, per-service RPS ([node][service]); each
     *         service's column sums to its fleet RPS, or is all zero
     *         when every weight is 0.
     */
    std::vector<std::vector<double>>
    route(const std::vector<double> &fleet_rps,
          const std::vector<double> &weights,
          const RouterFeedback &feedback);

    /** As route(), writing into @p out ([node][service], rewritten in
     * full; no allocation once capacities are warm). */
    void routeInto(const std::vector<double> &fleet_rps,
                   const std::vector<double> &weights,
                   const RouterFeedback &feedback,
                   std::vector<std::vector<double>> &out);

  private:
    void routeStaticInto(const std::vector<double> &fleet_rps,
                         const std::vector<double> &weights,
                         std::vector<std::vector<double>> &out);
    void routeWrrInto(const std::vector<double> &fleet_rps,
                      const std::vector<double> &weights,
                      std::vector<std::vector<double>> &out);
    void routeP2cInto(const std::vector<double> &fleet_rps,
                      const std::vector<double> &weights,
                      const RouterFeedback &feedback,
                      std::vector<std::vector<double>> &out);

    RouterConfig cfg_;
    common::Rng rng_;
    /** Smooth-WRR credit per node (persists across intervals; held at
     * 0 while the node's weight is 0). */
    std::vector<double> wrrCredit_;
    // Per-interval scratch of the two-choices policy.
    std::vector<double> penalty_;
    std::vector<double> fair_;
    std::vector<double> dealt_;
    /** Indices of positive-weight nodes (two-choices sampling
     * scratch). */
    std::vector<std::size_t> liveIdx_;
};

} // namespace twig::cluster

#endif // TWIG_CLUSTER_ROUTER_HH
