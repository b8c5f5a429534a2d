/**
 * @file
 * Fleet orchestration: N replica nodes behind a two-level
 * ShardedRouter, stepped in lockstep one control interval at a time.
 *
 * The per-interval loop is:
 *
 *   1. sample the fleet-level load generators (one per service) and
 *      let the ShardedRouter split each service's RPS — first across
 *      routing domains (deterministic, weighted by capacity x QoS
 *      headroom), then across each domain's replicas;
 *   2. step every powered node — in parallel on a common::ThreadPool
 *      when jobs > 1, bit-identical to serial stepping because nodes
 *      share no mutable state and all routing/merging stays on the
 *      caller;
 *   3. batched inference: replicas running the *same frozen policy*
 *      (equal architecture + parameter fingerprints, exploit-only)
 *      form cohorts; each cohort's joint states are gathered into one
 *      [n x inputDim] matrix and pushed through a single batched BDQ
 *      forward — one fused GEMM per layer instead of n tiny ones —
 *      then the per-row argmax actions scatter back to the nodes.
 *      Bit-identical to per-node forwards (the GEMM accumulates each
 *      output row independently in a fixed order); nodes outside any
 *      cohort (training managers, baselines, singletons) decide
 *      in-node as before;
 *   4. merge the per-node latency histograms hierarchically — node ->
 *      domain (parallel per domain) -> fleet — which is *exactly* the
 *      flat merge because histogram merging is bin-wise integer
 *      addition; sum node power into fleet power.
 *
 * Replicas added with a checkpoint path are warm-started: the
 * checkpointed BDQ is restored into the new node's TwigManager
 * (rl/checkpoint.hh), so a scale-out event starts from a trained
 * policy instead of exploring from scratch.
 *
 * Slot lifecycle has one owner: the slot table here. Each slot's
 * record (sized by addNode) holds its elastic state — Active, Draining
 * or Standby; Active on fleets without an autoscaler — and a crashed
 * flag, and everything else is derived from it:
 *
 *   - a slot is *powered* — stepped, merged and billed — when it is
 *     neither crashed nor standby;
 *   - it takes new load when it is also Active: every other slot gets
 *     routing weight 0, which the routers read as "no new load" (they
 *     keep no health state of their own);
 *   - a fault restart clears the crashed flag and never changes the
 *     elastic state, and a crashed slot is neither serving nor
 *     activatable;
 *   - an interval with no powered slot sheds its whole offered load
 *     (a LoadShed event and shedRps), while a fleet that is powered
 *     but entirely draining refuses new load without a shed.
 *
 * Elastic sizing (src/autoscale): setAutoscaler parks the slots above
 * the initial count in standby. Each interval the Autoscaler's
 * decision rule runs serially before routing; scale-out activates
 * standby slots through the warm-restore spawn path crash recovery
 * uses (a virgin slot keeps its donor-checkpoint policy, a previously
 * retired one restores the frame saved when its drain began),
 * scale-in drains first — weight 0 while the backlog flushes and
 * histograms keep merging exactly — then retires the slot back to
 * standby. Decisions are pure functions of the step sequence, so
 * autoscaled runs replay bit-identically at any --jobs, and every
 * powered interval is billed against the attached $/node-hour
 * CostModel.
 */

#ifndef TWIG_CLUSTER_CLUSTER_MANAGER_HH
#define TWIG_CLUSTER_CLUSTER_MANAGER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "autoscale/cost_model.hh"
#include "cluster/node.hh"
#include "cluster/router.hh"
#include "cluster/sharded_router.hh"
#include "common/thread_pool.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_spec.hh"
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
    RouterConfig router;
    /** Worker threads for node stepping; <= 1 steps serially. The
     * fleet metrics are bit-identical either way. */
    std::size_t jobs = 1;
    /** Routing domains of the two-level front-end; 1 degenerates to
     * the flat router exactly (must not exceed the node count). */
    std::size_t domains = 1;
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

/** One elastic-sizing action on the scale-event stream. */
struct ScaleEvent
{
    enum class Kind
    {
        /** Standby slot activated (warm spawn). */
        ScaleOut,
        /** Serving slot stopped taking new load; backlog flushing. */
        DrainStart,
        /** Drained slot left the fleet (back to standby). */
        Retire,
    };
    std::size_t step = 0;
    Kind kind = Kind::ScaleOut;
    std::size_t node = 0;
    /** Worst-service utilisation at decision time. */
    double utilization = 0.0;
    /** Worst-service trailing tardiness at decision time. */
    double tardiness = 0.0;

    bool operator==(const ScaleEvent &) const = default;
};

/** Short name of @p kind ("scale_out" | "drain_start" | "retire"). */
const char *scaleEventKindName(ScaleEvent::Kind kind);

/** Fleet-wide telemetry for one control interval. */
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
    /** Per-node telemetry (node order is stable). An unpowered slot's
     * entry is its last powered interval; check nodeUp. */
    std::vector<sim::ServerIntervalStats> nodes;
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
    /** Per-step fleet telemetry (always recorded; one entry per step). */
    std::vector<FleetIntervalStats> trace;
};

/** Drives an N-node fleet: route, step (possibly parallel), merge. */
class ClusterManager
{
  public:
    /** Builds a node's task manager from its machine and services. */
    using ManagerFactory = std::function<std::unique_ptr<core::TaskManager>(
        const sim::MachineConfig &machine,
        const std::vector<sim::ServiceProfile> &services,
        std::uint64_t seed)>;

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

    /**
     * Add a replica. @p factory builds its manager; a non-empty
     * @p warm_start_checkpoint restores that BDQ checkpoint into the
     * manager (which must be a TwigManager of matching architecture).
     * Returns the node index.
     */
    std::size_t addNode(const sim::MachineConfig &machine,
                        const ManagerFactory &factory,
                        const std::string &warm_start_checkpoint = "");

    std::size_t numNodes() const { return nodes_.size(); }
    std::size_t numServices() const { return services_.size(); }
    Node &node(std::size_t i);
    const sim::ServiceProfile &service(std::size_t s) const;

    /**
     * Arm a fault schedule (src/faults). Must be called after every
     * replica has been added — the spec is validated against the fleet
     * shape (FatalError on a bad schedule) — and may come before or
     * after setAutoscaler. The schedule's transitions are applied
     * serially at the top of each step(); recovery outcomes and
     * periodic checkpoints appear on the fault-event stream
     * (FleetIntervalStats::faultEvents and faultLog()).
     */
    void setFaults(const faults::FaultSpec &spec);

    /** All fault events so far, in application order. */
    const std::vector<faults::FaultEvent> &faultLog() const
    {
        return faultLog_;
    }

    /**
     * Attach elastic fleet sizing. Call after every slot has been
     * added (numNodes() must equal cfg.maxNodes — the partition is
     * fixed, slots park instead of disappearing) and before the first
     * step. Slots [initial_active, maxNodes) start in standby: no
     * routing weight, not stepped, not billed.
     *
     * @param cfg                  decision rule (validated; fatal on a
     *                             malformed block)
     * @param rated_fleet_rps      per-service fleet RPS the *full*
     *                             (maxNodes) fleet is rated for — the
     *                             utilisation denominator
     * @param dollars_per_node_hour hourly rate per slot (empty =
     *                             $1/h each)
     * @param initial_active       slots serving at step 0 (must lie in
     *                             [minNodes, maxNodes])
     */
    void setAutoscaler(const autoscale::AutoscaleConfig &cfg,
                       std::vector<double> rated_fleet_rps,
                       std::vector<double> dollars_per_node_hour,
                       std::size_t initial_active);

    /** Attach $/node-hour billing to a *static* fleet (the autoscaler
     * attaches its own). Empty = $1/h per replica. Every powered
     * replica is billed each interval; crashed ones are not. */
    void setCostModel(std::vector<double> dollars_per_node_hour);

    bool autoscaled() const { return autoscaler_ != nullptr; }

    /** All elastic-sizing actions so far, in application order. */
    const std::vector<ScaleEvent> &scaleLog() const { return scaleLog_; }

    /** Cumulative fleet bill, $ (0 without a cost model). */
    double costDollars() const
    {
        return costModel_ ? costModel_->totalDollars() : 0.0;
    }

    /** Whether slot @p n is currently powered — stepped, merged and
     * billed: false for crashed and standby slots, true for draining
     * ones. */
    bool isNodeUp(std::size_t n) const;

    /** Batch the BDQ forward passes of identical exploit-only replicas
     * into one fused GEMM per cohort per interval (on by default).
     * Bit-identical to per-node forwards either way; the bench turns
     * it off for the timing comparison. */
    void setBatchedInference(bool on);

    /** Number of replicas deciding through a batched cohort in the
     * last stepped interval (0 before the first step). */
    std::size_t batchedNodeCount() const;

    /** Domain @p d's merged interval histogram for service @p s from
     * the last step (tests). */
    const stats::Histogram &domainHistogram(std::size_t d,
                                            std::size_t s) const;

    const FleetPhaseProfile &phaseProfile() const { return profile_; }
    void resetPhaseProfile() { profile_ = FleetPhaseProfile{}; }

    /** Advance the whole fleet one control interval. The returned
     * reference points at a member scratch that the next step
     * overwrites; copy it if you need it to persist. */
    const FleetIntervalStats &step();

    /**
     * Run @p steps intervals; metrics summarise the trailing
     * @p summary_window. @p on_step (optional) observes every interval.
     */
    FleetRunResult
    run(std::size_t steps, std::size_t summary_window,
        const std::function<void(std::size_t, const FleetIntervalStats &)>
            &on_step = {});

  private:
    /** Elastic state of a fleet slot (see the file comment). */
    enum class SlotState : std::uint8_t
    {
        Active,   ///< taking new load (unless crashed)
        Draining, ///< weight 0, flushing backlog toward retirement
        Standby,  ///< parked: not stepped, not billed
    };

    /** One fleet slot's lifecycle record and rebuild recipe. */
    struct NodeSlot
    {
        sim::MachineConfig machine;
        ManagerFactory factory;
        /** Rebuild count; salts the reborn node's derived seed. */
        std::size_t incarnation = 0;
        SlotState state = SlotState::Active;
        /** Down after a node_crash until its restart. */
        bool crashed = false;
        /** Step at which a draining slot retires (valid while
         * Draining). */
        std::size_t drainDeadline = 0;
        /** Powered for at least one interval: reactivation restores
         * its drain-time frame instead of keeping the virgin donor
         * policy. */
        bool everServed = false;
        /** Last checkpoint frame: u64 FNV-1a checksum followed by the
         * framed BDQ checkpoint ("" = none yet). */
        std::string frame;
        // Environmental fault state that survives a node rebuild (a
        // restarted node is still in the hot rack / behind the same
        // flaky monitor).
        bool throttled = false;
        std::size_t dvfsCap = 0;
        bool telemetryFault = false;
        double faultSigma = 0.0;
        double faultStaleProb = 0.0;
        std::uint64_t faultSeed = 0;

        /** Stepped, merged and billed. */
        bool powered() const
        {
            return !crashed && state != SlotState::Standby;
        }
        /** Takes new load. */
        bool serving() const
        {
            return !crashed && state == SlotState::Active;
        }
    };

    /** A batched-inference cohort: serving replicas whose managers run
     * the same frozen policy (equal architecture + parameter
     * fingerprints, exploit-only). One batched forward per interval on
     * the first member's network serves them all. */
    struct Cohort
    {
        std::vector<std::size_t> members; ///< node indices, ascending
        std::vector<core::TwigManager *> twigs; ///< parallel to members
        // Per-interval scratch (reused; no steady-state allocation).
        nn::Matrix states;   ///< [members x inputDim] gathered rows
        nn::BdqOutput qScratch;
        std::vector<std::vector<nn::BranchActions>> actions;
    };

    std::vector<LatencyBinning> binnings() const;
    /** Regroup serving replicas into batched-inference cohorts. */
    void rebuildCohorts();
    /** Apply the schedule transitions due at the current step. */
    void applyFaultEvents();
    /** Periodic checksummed in-memory BDQ frames of serving replicas. */
    void saveCheckpointFrames();
    /** One checksummed in-memory BDQ frame of replica @p n (emits the
     * CheckpointSaved event); no-op for managers without a policy. */
    void saveFrame(std::size_t n);
    /** Rebuild replica @p n after a crash; @p recovery is "warm" or
     * "cold". Emits the recovery-outcome events. */
    void rebuildNode(std::size_t n, const std::string &recovery);

    // --- elastic sizing (src/autoscale) -------------------------------
    /** Retire due drains, evaluate the decision rule, apply the
     * action. Serial, before routing; uses the current interval's
     * offered load and the previous interval's trailing p99. */
    void applyAutoscale();
    /** Activate standby slot @p n (warm spawn; see file comment). */
    void activateNode(std::size_t n, const autoscale::ScaleDecision &d);
    /** Begin draining serving slot @p n. */
    void drainNode(std::size_t n, const autoscale::ScaleDecision &d);
    /** Retire drained slot @p n back to standby. */
    void retireNode(std::size_t n);
    /** Capability-weighted share of full-fleet capacity held by the
     * serving slots, optionally excluding the @p excluding_victims
     * highest-indexed ones (the hypothetical scale-in). */
    double servingCapacityFraction(std::size_t excluding_victims) const;

    ClusterConfig cfg_;
    std::vector<sim::ServiceProfile> services_;
    std::vector<std::unique_ptr<sim::LoadGenerator>> fleetLoads_;
    /** The two-level front-end. */
    ShardedRouter router_;
    std::vector<std::unique_ptr<Node>> nodes_;
    /** Lifecycle record and rebuild recipe per node (sized by
     * addNode; the only place slot health and elastic state live). */
    std::vector<NodeSlot> slots_;
    /** Created on first parallel step (jobs > 1). */
    std::unique_ptr<common::ThreadPool> pool_;
    std::uint64_t seed_;
    std::size_t step_ = 0;
    /** Scratch: merged per-service histograms for the current interval. */
    std::vector<stats::Histogram> mergedScratch_;
    /** Hierarchical-merge scratch: per-domain per-service histograms. */
    std::vector<std::vector<stats::Histogram>> domainScratch_;
    /** Last kQosWindowIntervals interval histograms per service
     * (recent_[svc] is ordered oldest first). */
    std::vector<std::vector<stats::Histogram>> recent_;

    // --- batched inference -------------------------------------------
    bool batchedInference_ = true;
    std::vector<Cohort> cohorts_;
    /** Cohorts need regrouping (topology or policy-freeze changed). */
    bool cohortsDirty_ = true;
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
    /** Trailing-window merge accumulator per service. */
    std::vector<stats::Histogram> trailingScratch_;

    // --- fault subsystem (src/faults) --------------------------------
    /** Armed schedule (null without faults; the no-fault step path is
     * byte-identical to the pre-fault code). */
    std::unique_ptr<faults::FaultInjector> injector_;
    /** Active load-surge multiplier per service (1.0 = none). */
    std::vector<double> surgeMult_;
    /** Events fired during the current step (scratch). */
    std::vector<faults::FaultEvent> stepEvents_;
    /** Full event stream across the run. */
    std::vector<faults::FaultEvent> faultLog_;

    // --- elastic sizing (src/autoscale) -------------------------------
    /** Decision rule (null without setAutoscaler; the non-autoscaled
     * step path is byte-identical to the pre-autoscale code). */
    std::unique_ptr<autoscale::Autoscaler> autoscaler_;
    /** $/node-hour billing (attached with the autoscaler). */
    std::unique_ptr<autoscale::CostModel> costModel_;
    /** Per-service fleet RPS the full fleet is rated for. */
    std::vector<double> ratedFleetRps_;
    /** Previous interval's trailing-window fleet p99 per service. */
    std::vector<double> lastTrailingP99_;
    /** Cached QoS targets (signal scratch). */
    std::vector<double> qosTargets_;
    /** Scale events fired during the current step (scratch). */
    std::vector<ScaleEvent> scaleStepEvents_;
    /** Full scale-event stream across the run. */
    std::vector<ScaleEvent> scaleLog_;
};

} // namespace twig::cluster

#endif // TWIG_CLUSTER_CLUSTER_MANAGER_HH
