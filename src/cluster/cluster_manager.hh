/**
 * @file
 * Fleet orchestration: N replica nodes behind a two-level Router,
 * stepped in lockstep one control interval at a time.
 *
 * The per-interval loop is:
 *
 *   1. sample the fleet-level load generators (one per service) and
 *      let the Router split each service's RPS — first across routing
 *      domains (deterministic, weighted by capacity x QoS headroom),
 *      then across each domain's replicas;
 *   2. step every powered node — in parallel on a common::ThreadPool
 *      when jobs > 1, bit-identical to serial stepping because nodes
 *      share no mutable state and all routing/merging stays on the
 *      caller;
 *   3. batched inference: replicas running the *same frozen policy*
 *      (equal checkpoint checksums, exploit-only) form cohorts; each
 *      cohort's joint states are gathered into one [n x inputDim]
 *      matrix and pushed through a single batched BDQ forward — one
 *      fused GEMM per layer instead of n tiny ones — then the per-row
 *      argmax actions scatter back to the nodes.
 *      Bit-identical to per-node forwards (the GEMM accumulates each
 *      output row independently in a fixed order); nodes outside any
 *      cohort (training managers, baselines, singletons) decide
 *      in-node as before;
 *   4. merge: one serial pass over the slots adds each powered node's
 *      power into fleet power and its latency histograms into the
 *      fleet's histogram of the interval, one slot of a
 *      sim::kQosWindowIntervals ring; the fleet p99 is the quantile of
 *      the ring's sum. Bin counts are integers, so the result does not
 *      depend on merge order or routing domains.
 *
 * Replica lifecycle — slot records, fault recovery, checkpoint frames
 * and elastic sizing — lives in the SlotTable (cluster/slot_table.hh),
 * whose policies step() calls serially before routing.
 */

#ifndef TWIG_CLUSTER_CLUSTER_MANAGER_HH
#define TWIG_CLUSTER_CLUSTER_MANAGER_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cluster/node.hh"
#include "cluster/router.hh"
#include "cluster/slot_table.hh"
#include "common/thread_pool.hh"
#include "sim/loadgen.hh"
#include "sim/machine.hh"
#include "sim/service_profile.hh"
#include "stats/histogram.hh"

namespace twig::core {
class TwigManager;
}

namespace twig::cluster {

/** Fleet configuration. */
struct ClusterConfig
{
    /** Routing policy and domains of the front-end. */
    RouterConfig router;
    /** Worker threads for node stepping; <= 1 steps serially. The
     * fleet metrics are bit-identical either way. */
    std::size_t jobs = 1;
};

/** Cycle totals of the fleet control loop's phases (rdtsc via
 * common/sim_counters.hh; measurement only — nothing reads them for
 * control). Summed over steps since the last reset. In-node decides
 * run inside the node-stepping phase, so their cycles appear in both
 * stepCycles (wall) and forwardCycles (the apples-to-apples inference
 * measure the scale-out bench compares batched against). */
struct FleetPhaseProfile
{
    std::uint64_t routeCycles = 0;   ///< fleet load -> per-node shares
    std::uint64_t stepCycles = 0;    ///< node serve (incl. in-node decide)
    std::uint64_t gatherCycles = 0;  ///< batched: state-row gather
    std::uint64_t forwardCycles = 0; ///< decide: batched GEMM / in-node
    std::uint64_t scatterCycles = 0; ///< batched: action scatter
    std::uint64_t mergeCycles = 0;   ///< histogram merge + window p99
    std::uint64_t steps = 0;
};

/** Fleet-wide telemetry for one control interval. Node telemetry has
 * one home, the node: read node(n).lastStats() while the interval is
 * current (run()'s on_step, or right after step()). */
struct FleetIntervalStats
{
    std::size_t step = 0;
    /** Fleet offered load per service (before routing). */
    std::vector<double> offeredRps;
    /** p99 per service over the fleet-wide completions of the last
     * three intervals (merged per-node histograms). */
    std::vector<double> fleetP99Ms;
    /** Sum of node socket powers, W (unpowered slots contribute 0). */
    double totalPowerW = 0.0;
    /** 1 per slot powered this interval (stepped, merged, billed). */
    std::vector<std::uint8_t> nodeUp;
    /** Fleet RPS dropped because no slot was powered (0 otherwise —
     * the well-defined "shed" record). */
    double shedRps = 0.0;
    /** Fault-subsystem events that fired this interval, in application
     * order (empty without a fault schedule). */
    std::vector<faults::FaultEvent> faultEvents;
    /** Elastic-sizing actions this interval (empty without an
     * autoscaler). */
    std::vector<ScaleEvent> scaleEvents;
    /** Powered slots taking new load this interval (== powered slots
     * without an autoscaler). */
    std::size_t servingNodes = 0;
    /** Slots draining toward retirement this interval. */
    std::size_t drainingNodes = 0;
    /** Cumulative fleet bill through this interval, $ (0 without a
     * cost model). */
    double costDollars = 0.0;
};

/** Fleet outcome over a run's trailing summary window. */
struct FleetRunMetrics
{
    std::vector<std::string> serviceNames;
    /** p99 per service over all window completions fleet-wide
     * (merge-then-quantile, not an average of averages). */
    std::vector<double> windowP99Ms;
    /** Percentage of window intervals whose fleet p99 met the QoS
     * target, per service. */
    std::vector<double> qosGuaranteePct;
    double meanPowerW = 0.0;
    double energyJoules = 0.0;
    std::size_t windowSteps = 0;
    /** Total fleet bill over the whole run (not just the window), $
     * (0 without a cost model). */
    double costDollars = 0.0;

    double avgQosGuaranteePct() const;
};

/** Result of ClusterManager::run. */
struct FleetRunResult
{
    FleetRunMetrics metrics;
    /** Per-step fleet-level telemetry (always recorded; one entry per
     * step, under 1 KB at 512 nodes). */
    std::vector<FleetIntervalStats> trace;
};

/** Drives an N-node fleet: route, step (possibly parallel), merge. */
class ClusterManager
{
  public:
    using ManagerFactory = SlotTable::ManagerFactory;

    /**
     * @param cfg          fleet configuration
     * @param services     the service set every replica hosts
     * @param fleet_loads  fleet-level offered load, one generator per
     *                     service (aggregate RPS across all replicas)
     * @param seed         base seed; per-node seeds derive from it
     */
    ClusterManager(const ClusterConfig &cfg,
                   std::vector<sim::ServiceProfile> services,
                   std::vector<std::unique_ptr<sim::LoadGenerator>>
                       fleet_loads,
                   std::uint64_t seed);

    /** Add a replica (SlotTable::add). Returns the node index. */
    std::size_t addNode(const sim::MachineConfig &machine,
                        const ManagerFactory &factory,
                        const rl::Checkpoint *donor = nullptr)
    {
        return slots_.add(machine, factory, donor);
    }

    std::size_t numNodes() const { return slots_.size(); }
    std::size_t numServices() const { return slots_.services().size(); }
    Node &node(std::size_t i);

    /** Replica lifecycle: faults, elastic sizing, billing. */
    SlotTable &slots() { return slots_; }

    /** Batch the BDQ forward passes of identical exploit-only replicas
     * into one fused GEMM per cohort per interval (on by default).
     * Bit-identical to per-node forwards either way; the bench turns
     * it off for the timing comparison. */
    void setBatchedInference(bool on) { batchedInference_ = on; }

    /** Number of replicas deciding through a batched cohort in the
     * last stepped interval (0 before the first step). */
    std::size_t batchedNodeCount() const;

    /** The fleet's latency histogram of service @p s over the last
     * stepped interval: every powered node's, merged. */
    const stats::Histogram &intervalHistogram(std::size_t s) const;

    const FleetPhaseProfile &phaseProfile() const { return profile_; }
    void resetPhaseProfile() { profile_ = FleetPhaseProfile{}; }

    /** Advance the whole fleet one control interval. The returned
     * reference points at a member scratch that the next step
     * overwrites; copy it if you need it to persist. */
    const FleetIntervalStats &step();

    /**
     * Run @p steps intervals; metrics summarise the trailing
     * @p summary_window. @p on_step (optional) observes every interval
     * while its node telemetry is current.
     */
    FleetRunResult
    run(std::size_t steps, std::size_t summary_window,
        const std::function<void(std::size_t, const FleetIntervalStats &)>
            &on_step = {});

  private:
    /** A batched-inference cohort: serving replicas whose managers run
     * the same frozen policy (equal checkpoint checksums,
     * exploit-only). One batched forward per interval on the first
     * member's network serves them all. */
    struct Cohort
    {
        std::vector<std::size_t> members; ///< node indices, ascending
        std::vector<core::TwigManager *> twigs; ///< parallel to members
        // Per-interval scratch (reused; no steady-state allocation).
        nn::Matrix states;   ///< [members x inputDim] gathered rows
        nn::BdqOutput qScratch;
        std::vector<std::vector<nn::BranchActions>> actions;
    };

    /** Regroup powered replicas into batched-inference cohorts. */
    void rebuildCohorts();

    ClusterConfig cfg_;
    /** Every slot's record and node (the only place slot health and
     * elastic state live). */
    SlotTable slots_;
    std::vector<std::unique_ptr<sim::LoadGenerator>> fleetLoads_;
    /** The two-level front-end. */
    Router router_;
    /** Created on first parallel step (jobs > 1). */
    std::unique_ptr<common::ThreadPool> pool_;
    std::size_t step_ = 0;
    /** The fleet's latency histograms of the last
     * sim::kQosWindowIntervals intervals: interval t is
     * recent_[t % kQosWindowIntervals][service]. */
    std::array<std::vector<stats::Histogram>, sim::kQosWindowIntervals>
        recent_;
    /** Per service: the sum of recent_'s slots (fleetP99Ms). */
    std::vector<stats::Histogram> trailing_;

    // --- batched inference -------------------------------------------
    bool batchedInference_ = true;
    std::vector<Cohort> cohorts_;
    /** Slot generation and batching switch the cohorts were grouped
     * at; either changing regroups them. */
    std::uint64_t cohortsGeneration_ = 0;
    bool cohortsBatched_ = false;
    /** Per node: 1 when a cohort decides for it this interval. */
    std::vector<std::uint8_t> nodeBatched_;

    FleetPhaseProfile profile_;

    // Per-step scratch, reused so steady-state fleet stepping does not
    // allocate (see tests/test_alloc.cc).
    FleetIntervalStats fleetStats_;
    std::vector<double> fleetRps_;
    std::vector<double> weights_;
    RouterFeedback feedback_;
    std::vector<std::vector<double>> shares_;
};

} // namespace twig::cluster

#endif // TWIG_CLUSTER_CLUSTER_MANAGER_HH
