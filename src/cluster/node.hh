/**
 * @file
 * One replica of the simulated fleet: a sim::Server plus its own task
 * manager (Twig-C or a baseline) and mapper, stepped one control
 * interval at a time by the ClusterManager.
 *
 * The node's services draw their offered load from RoutedLoad
 * generators whose RPS the Router sets before every interval — the
 * single-node simulator is reused unchanged; only the load source
 * differs from the standalone harness. Each interval the node also
 * fills one latency histogram per service (via the server's latency
 * sink), binned by latencyHistogram(), so the ClusterManager can merge
 * per-node histograms into exact fleet-wide tail latency without
 * shipping raw samples.
 *
 * Determinism: a node's whole world (server, queues, manager) is
 * seeded at construction and consumes randomness only inside
 * stepInterval(). Nodes share no mutable state, so the ClusterManager
 * may step them on any number of threads with bit-identical results.
 */

#ifndef TWIG_CLUSTER_NODE_HH
#define TWIG_CLUSTER_NODE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "core/mapper.hh"
#include "core/task_manager.hh"
#include "nn/bdq.hh"
#include "sim/loadgen.hh"
#include "sim/machine.hh"
#include "sim/server.hh"
#include "sim/service_profile.hh"
#include "stats/histogram.hh"

namespace twig::cluster {

/** Load generator whose RPS is set externally before each interval. */
class RoutedLoad : public sim::LoadGenerator
{
  public:
    double rps(std::size_t) const override { return rps_; }
    void set(double rps) { rps_ = rps; }

  private:
    double rps_ = 0.0;
};

/** An empty latency histogram for @p svc: [0, 32 x QoS target) in
 * 1024 bins (latencies beyond clamp into the last bin). Every node and
 * the fleet bin a service this way, so their histograms merge. */
stats::Histogram latencyHistogram(const sim::ServiceProfile &svc);

/** Construction parameters of one node. */
struct NodeConfig
{
    sim::MachineConfig machine;
    /** Service replicas this node hosts (same order fleet-wide). */
    std::vector<sim::ServiceProfile> services;
};

/** A slot's environmental fault state; it outlives a node rebuild. */
struct FaultEnv
{
    /** Thermal throttle: the hardware's DVFS ladder is capped at
     * dvfsCap (clamped to the ladder). The manager keeps requesting
     * whatever it wants; the delivered frequency silently saturates —
     * exactly how firmware-level thermal management looks to software.
     */
    bool throttled = false;
    std::size_t dvfsCap = 0;
    /** Telemetry fault: the PMC vectors the *manager* observes carry
     * multiplicative log-normal noise (per-counter factor
     * exp(N(0, sigma^2))) and, with probability staleProb per service
     * per interval, are replaced by the previous interval's readings.
     * Ground truth (latency histograms, power, router feedback) is
     * untouched. Draws come from a node-private RNG seeded with seed,
     * so runs stay bit-identical at any --jobs count. */
    bool telemetryFault = false;
    double sigma = 0.0;
    double staleProb = 0.0;
    std::uint64_t seed = 0;
};

/** One fleet replica: server + manager + mapper + latency histograms. */
class Node
{
  public:
    /**
     * @param cfg      machine and hosted services
     * @param manager  the node's task manager (ownership transfers)
     * @param seed     seeds the node's private simulation randomness
     * @param env      the slot's environmental faults (noise RNG
     *                 seeded from it)
     */
    Node(const NodeConfig &cfg, std::unique_ptr<core::TaskManager> manager,
         std::uint64_t seed, const FaultEnv &env = {});

    std::size_t numServices() const { return config_.services.size(); }
    const sim::MachineConfig &machine() const { return config_.machine; }
    const sim::ServiceProfile &profile(std::size_t svc) const;

    core::TaskManager &manager() { return *manager_; }
    const core::TaskManager &manager() const { return *manager_; }

    /** Routing weight: the machine's serving capacity. */
    double capacityWeight() const { return config_.machine.capacity(); }

    /** Set next interval's offered load, one RPS per service. */
    void setOfferedLoad(const std::vector<double> &rps);

    /** Apply the slot's updated fault environment (spec-validated);
     * @p reseed_noise restarts the noise RNG from env.seed (a PMC-noise
     * fault starting). */
    void setFaultEnv(const FaultEnv &env, bool reseed_noise);
    bool dvfsCapped() const
    {
        return env_.throttled && env_.dvfsCap < machine().dvfs.maxIndex();
    }

    /**
     * Advance one control interval: map the pending resource requests,
     * run the server, then ask the manager for the next interval's
     * requests. Offered load must have been set first.
     *
     * With deferred decisions armed (setDeferDecision), the manager is
     * NOT consulted: the interval ends with the decision pending and
     * the owner must complete it via finishDecision() before the next
     * stepInterval. The cluster's batched-inference path uses this
     * seam to gather every replica's state and run one fused BDQ
     * forward instead of per-node passes.
     */
    const sim::ServerIntervalStats &stepInterval();

    /** Defer manager decisions to the owner (see stepInterval). */
    void setDeferDecision(bool on) { deferDecision_ = on; }

    /** The interval telemetry the manager observes: the truthful stats
     * unless a telemetry fault is armed, then the perturbed copy —
     * exactly what the in-node decide path feeds decideInto. Valid
     * after stepInterval until the next one. */
    const sim::ServerIntervalStats &managerStats() const;

    /** Complete a deferred interval with externally chosen actions
     * (the manager must be a TwigManager whose observeState already
     * ran this interval — the cluster's batched scatter). */
    void finishDecision(const std::vector<nn::BranchActions> &actions);

    /** Cycles the manager's in-node decide consumed since the last
     * takeDecideCycles (rdtsc; measurement only, never control). */
    std::uint64_t takeDecideCycles();

    /** Telemetry of the most recent interval (borrowed from the
     * server's interval scratch; overwritten by the next step). */
    const sim::ServerIntervalStats &lastStats() const
    {
        return server_.lastStats();
    }

    /** Trailing-window p99 of service @p svc in the last interval
     * (0 before the first step) — the router's latency feedback. */
    double lastP99Ms(std::size_t svc) const;

    /** Latency histogram of service @p svc over the *last interval
     * only* (reset at the start of every stepInterval). */
    const stats::Histogram &intervalHistogram(std::size_t svc) const;

    std::size_t step() const { return server_.step(); }

  private:
    NodeConfig config_;
    sim::Server server_;
    std::unique_ptr<core::TaskManager> manager_;
    core::Mapper mapper_;
    /** Owned by server_; set by setOfferedLoad. */
    std::vector<RoutedLoad *> loads_;
    std::vector<core::ResourceRequest> requests_;
    std::vector<sim::CoreAssignment> assignments_;
    std::vector<stats::Histogram> intervalHists_;
    bool loadSet_ = false;

    // --- deferred-decision seam (cluster batched inference) ----------
    bool deferDecision_ = false;
    bool decisionPending_ = false;
    /** What the manager observes this interval (truthful stats or the
     * telemetry-fault perturbed copy); set by stepInterval. */
    const sim::ServerIntervalStats *managerView_ = nullptr;
    /** In-node decide cycles since the last takeDecideCycles. */
    std::uint64_t decideCycles_ = 0;

    // --- fault surfaces (src/faults) ---------------------------------
    FaultEnv env_;
    common::Rng faultRng_;
    /** Last truthful PMC vectors (stale-reading source). */
    std::vector<sim::PmcVector> prevPmcs_;
    bool havePrevPmcs_ = false;
    /** Manager-visible copy of the interval stats under a telemetry
     * fault (the returned ground truth stays exact). */
    sim::ServerIntervalStats perturbed_;
};

} // namespace twig::cluster

#endif // TWIG_CLUSTER_NODE_HH
