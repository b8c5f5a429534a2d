/**
 * @file
 * Two-level fleet routing: the node list is partitioned into
 * contiguous routing *domains*, each behind its own inner Router. Per
 * interval the front-end first splits every service's fleet RPS across
 * the domains — deterministically, weighted by each domain's capacity
 * (its members' summed weights) times its QoS headroom (no RNG at this
 * level) — then each domain's inner Router deals its slice across its
 * member nodes with the configured policy (static / WRR /
 * power-of-two-choices).
 *
 * Why two levels: a single flat router is O(quanta x nodes) with one
 * shared RNG stream — fine at 8 nodes, a serial bottleneck at 512.
 * Domains keep every inner router small and give the fleet a natural
 * unit of failure containment.
 *
 * Determinism and compatibility:
 *
 *  * The domain split is pure arithmetic on (capacity, previous
 *    interval p99) — no draws — so the inner routers' RNG streams
 *    never shift with domain count or weight changes elsewhere.
 *  * With domains == 1 the single inner Router receives the fleet
 *    vectors verbatim and is seeded with exactly the seed a flat
 *    Router would get, so a one-domain fleet routes bit-identically to
 *    one flat Router (asserted by the cluster tests).
 *
 * Weights: the front-end keeps no health state. routeInto takes one
 * routing weight per node, with the flat Router's contract — 0 means
 * "no new load", > 0 is the node's capacity share. A domain whose
 * members all weigh 0 gets no slice: its share renormalises onto the
 * sibling domains. All-zero weights give all-zero shares; the caller
 * (ClusterManager, whose SlotTable owns each slot's lifecycle) decides
 * whether that interval's load was shed.
 */

#ifndef TWIG_CLUSTER_SHARDED_ROUTER_HH
#define TWIG_CLUSTER_SHARDED_ROUTER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/router.hh"

namespace twig::cluster {

/** One routing domain: a contiguous slice of the fleet behind its own
 * inner Router, plus per-interval routing scratch. */
struct Domain
{
    /** Global index of the first member node. */
    std::size_t first = 0;
    /** Member count (members are first .. first + count - 1). */
    std::size_t count = 0;
    std::unique_ptr<Router> router;

    // Per-interval scratch (reused; steady-state routing is
    // allocation-free once capacities are warm).
    std::vector<double> rps;                  ///< [service] slice
    std::vector<double> weights;              ///< [count]
    RouterFeedback feedback;                  ///< sliced rows
    std::vector<std::vector<double>> shares;  ///< [count][service]
};

/** ShardedRouter configuration. */
struct ShardedRouterConfig
{
    /** Inner per-domain router policy. */
    RouterConfig router;
    /** Routing domains; 1 degenerates to the flat router exactly. */
    std::size_t domains = 1;
};

/** The two-level fleet front-end (see file comment). */
class ShardedRouter
{
  public:
    /** @p seed seeds domain 0's inner router directly (flat-path
     * compatibility); sibling domains derive their own streams. */
    ShardedRouter(const ShardedRouterConfig &cfg, std::uint64_t seed);

    const ShardedRouterConfig &config() const { return cfg_; }
    std::size_t numDomains() const { return cfg_.domains; }

    /**
     * Fix the fleet size and build the domain partition (contiguous,
     * balanced: domain d covers [d*N/D, (d+1)*N/D)). Called implicitly
     * by the first routeInto; idempotent for the same @p nodes, fatal
     * on a resize or when domains > nodes.
     */
    void bind(std::size_t nodes);
    bool bound() const { return nodes_ != 0; }

    /** Domain owning node @p n (after bind). */
    std::size_t domainOf(std::size_t n) const;
    /** Domain @p d (after bind). */
    const Domain &domain(std::size_t d) const;
    /**
     * Split each service's fleet RPS across @p weights.size() nodes:
     * domain split by capacity x QoS headroom, then the inner routers.
     * Same contract as Router::routeInto — @p out is [node][service],
     * rewritten in full; all zero when every weight is 0.
     */
    void routeInto(const std::vector<double> &fleet_rps,
                   const std::vector<double> &weights,
                   const RouterFeedback &feedback,
                   std::vector<std::vector<double>> &out);

  private:
    ShardedRouterConfig cfg_;
    std::uint64_t seed_;
    /** Fleet size; 0 until bind. */
    std::size_t nodes_ = 0;
    std::vector<Domain> domains_;
    /** Per-domain split weight scratch ([domain], per service). */
    std::vector<double> domainWeight_;
};

} // namespace twig::cluster

#endif // TWIG_CLUSTER_SHARDED_ROUTER_HH
