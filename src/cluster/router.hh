/**
 * @file
 * Replica routing: splits each service's fleet-wide offered RPS across
 * the nodes that host a replica, once per control interval, in two
 * levels. The nodes are partitioned into contiguous routing *domains*;
 * each service's RPS is first split across the domains by capacity
 * (the members' summed weights) times QoS headroom, then each domain
 * deals its slice to its members with the configured policy:
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
 * Why two levels: one flat deal is O(quanta x nodes) from one shared
 * RNG stream — fine at 8 nodes, a serial bottleneck at 512. Domains
 * keep every deal small and give the fleet a natural unit of failure
 * containment.
 *
 * Determinism: routing is a pure, serial function of (policy state,
 * fleet load, feedback), so cluster runs stay bit-identical at any
 * --jobs count. The domain split is arithmetic with no draws, so the
 * domains' RNG streams never shift with domain count or weight changes
 * elsewhere. Domain 0 draws from the router's seed itself and domain
 * d > 0 from sweepSeed(seed, 0xd0a000 + d); with one domain the fleet
 * RPS is dealt verbatim, so a one-domain fleet routes exactly as the
 * flat router that preceded the domains.
 *
 * Routing weights carry every lifecycle decision: the router keeps no
 * health state. A node with weight 0 gets no new load and drops out of
 * every normalisation, so the nodes with positive weight absorb its
 * share; a domain whose members all weigh 0 gets no slice, which
 * renormalises onto its siblings; all-zero weights give all-zero
 * shares. Whether a zero means "crashed", "parked" or "draining" — and
 * whether the interval's load was therefore shed — is decided by the
 * caller (the fleet's SlotTable), not here.
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
    /** How each domain deals its slice across its members. */
    RoutingPolicy policy = RoutingPolicy::Static;
    /** Routing domains (at least 1, at most the node count). */
    std::size_t domains = 1;
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

    /**
     * Split each service's fleet RPS across @p weights.size() nodes.
     * The first call fixes the fleet size and the domain partition
     * (domain d covers nodes [d*N/D, (d+1)*N/D)); a later call with
     * another node count, or more domains than nodes, is fatal.
     *
     * @param fleet_rps  offered fleet load per service
     * @param weights    routing weight per node (>= 0; 0 = no new
     *                   load, > 0 = capacity share)
     * @param feedback   latency feedback (domain split and
     *                   PowerOfTwoLatency)
     * @param out        per-node, per-service RPS ([node][service],
     *                   rewritten in full; no allocation once
     *                   capacities are warm). Each service's column
     *                   sums to its fleet RPS, or is all zero when
     *                   every weight is 0.
     */
    void routeInto(const std::vector<double> &fleet_rps,
                   const std::vector<double> &weights,
                   const RouterFeedback &feedback,
                   std::vector<std::vector<double>> &out);

  private:
    /** One routing domain: nodes [first, first + count), its own RNG
     * stream and its slice of each service's RPS. */
    struct Domain
    {
        std::size_t first = 0;
        std::size_t count = 0;
        common::Rng rng;
        std::vector<double> rps; ///< [service]; unused with one domain
    };

    void bind(std::size_t nodes);
    void splitAcrossDomains(const std::vector<double> &fleet_rps,
                            const std::vector<double> &weights);
    void dealStatic(const Domain &dom, const std::vector<double> &rps,
                    const std::vector<double> &weights,
                    std::vector<std::vector<double>> &out);
    void dealWrr(const Domain &dom, const std::vector<double> &rps,
                 const std::vector<double> &weights,
                 std::vector<std::vector<double>> &out);
    void dealP2c(Domain &dom, const std::vector<double> &rps,
                 const std::vector<double> &weights,
                 std::vector<std::vector<double>> &out);

    RouterConfig cfg_;
    std::uint64_t seed_;
    /** Fleet size; 0 until the first routeInto. */
    std::size_t nodes_ = 0;
    std::vector<Domain> domains_;
    /** Bounded QoS excess of node n for service s this interval, at
     * [n * services + s]; read by the domain split and the
     * two-choices cost. */
    std::vector<double> excess_;
    /** Smooth-WRR credit per node (persists across intervals; held at
     * 0 while the node's weight is 0). */
    std::vector<double> wrrCredit_;
    /** Per-domain split weight of one service (scratch). */
    std::vector<double> domainWeight_;
    // Per-interval scratch of the two-choices policy, per node.
    std::vector<double> fair_;
    std::vector<double> dealt_;
    /** Positive-weight nodes of the domain being dealt. */
    std::vector<std::size_t> liveIdx_;
};

} // namespace twig::cluster

#endif // TWIG_CLUSTER_ROUTER_HH
