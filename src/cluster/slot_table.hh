/**
 * @file
 * The fleet's slot table: every slot's record and node, checkpoint
 * frames and rebuilds, and the two lifecycle policies
 * ClusterManager::step() calls before routing — fault application and
 * elastic sizing. Routing sees it only through one weight per node.
 *
 * Replicas added with a donor checkpoint are warm-started: its BDQ is
 * restored into the new node's TwigManager (rl/checkpoint.hh), so a
 * scale-out event starts from a trained policy instead of exploring
 * from scratch. Failover frames are the same checkpoint bytes.
 *
 * Slot lifecycle has one owner: this table. Each slot's record (sized
 * by add) holds its elastic state — Active, Draining or Standby;
 * Active on fleets without an autoscaler — and a crashed flag, and
 * everything else is derived from it:
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
 *     (a LoadShed event, its last, and shedRps), while a fleet that
 *     is powered but entirely draining refuses new load without a
 *     shed;
 *   - a change to the powered set or a node rebuild bumps
 *     generation(), on which batched-inference cohorts regroup.
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
 * autoscaled runs replay bit-identically at any --jobs.
 *
 * Billing (setCostModel) is the table's own: each slot has an hourly
 * rate, and every interval the powered slots' rates add up, in slot
 * order, into one sum that adds into the running bill — deterministic
 * arithmetic over the step sequence, so the bill replays bit for bit,
 * and a static fleet's bill is exactly nodes x rate x wall-time.
 */

#ifndef TWIG_CLUSTER_SLOT_TABLE_HH
#define TWIG_CLUSTER_SLOT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "cluster/node.hh"
#include "faults/fault_injector.hh"
#include "faults/fault_spec.hh"
#include "sim/machine.hh"
#include "sim/service_profile.hh"

namespace twig::rl {
class Checkpoint;
}

namespace twig::cluster {

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

/** Every fleet slot's lifecycle record, node and policies. */
class SlotTable
{
  public:
    /** Builds a node's task manager from its machine and services. */
    using ManagerFactory = std::function<std::unique_ptr<core::TaskManager>(
        const sim::MachineConfig &machine,
        const std::vector<sim::ServiceProfile> &services,
        std::uint64_t seed)>;

    /** @param seed the fleet's base seed; node, rebuild and fault
     * seeds derive from it. */
    SlotTable(std::vector<sim::ServiceProfile> services, std::uint64_t seed)
        : services_(std::move(services)), seed_(seed)
    {
    }

    /**
     * Add a slot, Active and up. @p factory builds its manager and is
     * kept as the slot's rebuild recipe; a non-null @p donor is
     * restored into the manager (which must be a TwigManager of
     * matching architecture). Returns the slot index.
     */
    std::size_t add(const sim::MachineConfig &machine,
                    const ManagerFactory &factory,
                    const rl::Checkpoint *donor = nullptr);

    std::size_t size() const { return nodes_.size(); }
    const std::vector<sim::ServiceProfile> &services() const
    {
        return services_;
    }
    /** The services' QoS targets, in service order. */
    std::vector<double> qosTargetsMs() const;
    /** Slot @p n's current node (unchecked; rebuilt after a crash). */
    Node &node(std::size_t n) { return *nodes_[n]; }
    /** Slot @p n's last checkpoint frame ("" = none yet; unchecked). */
    const std::string &frame(std::size_t n) const { return slots_[n].frame; }

    // Unchecked per-slot lifecycle: powered = stepped, merged and
    // billed; serving = takes new load (powered and not draining).
    bool powered(std::size_t n) const { return slots_[n].powered(); }
    bool serving(std::size_t n) const { return slots_[n].serving(); }
    std::uint64_t generation() const { return generation_; }

    /**
     * Arm a fault schedule. Must be called after every slot has been
     * added — the spec is validated against the fleet shape
     * (FatalError on a bad schedule) — and may come before or after
     * setAutoscaler. Transitions are applied by applyFaults; recovery
     * outcomes and periodic checkpoints appear on the fault-event
     * stream (FleetIntervalStats::faultEvents).
     */
    void setFaults(const faults::FaultSpec &spec);

    /**
     * Attach elastic fleet sizing. Call after every slot has been
     * added (size() must equal cfg.maxNodes — the partition is fixed,
     * slots park instead of disappearing) and before the first step.
     * Slots [initial_active, maxNodes) start in standby: no routing
     * weight, not stepped, not billed.
     *
     * @param cfg             decision rule (validated; fatal on a
     *                        malformed block)
     * @param rated_fleet_rps per-service fleet RPS the *full*
     *                        (maxNodes) fleet is rated for — the
     *                        utilisation denominator
     * @param initial_active  slots serving at step 0 (must lie in
     *                        [minNodes, maxNodes])
     */
    void setAutoscaler(const autoscale::AutoscaleConfig &cfg,
                       std::vector<double> rated_fleet_rps,
                       std::size_t initial_active);

    /** Bill the fleet: one non-negative $/node-hour rate per slot
     * (empty = $1/h each). Every powered slot is billed each interval;
     * standby and crashed ones are not. Unbilled without this call. */
    void setCostModel(std::vector<double> dollars_per_node_hour);

    /** Cumulative fleet bill, $ (0 for an unbilled fleet). */
    double costDollars() const { return bill_; }

    // The step() hooks, in call order.
    /** Open interval @p step: schedule transitions, then frames. */
    void applyFaults(std::size_t step);
    /** Scale @p fleet_rps by the active load surges. */
    void applySurge(std::vector<double> &fleet_rps) const;
    /** Retire due drains, decide on this interval's offered load and
     * the last interval's trailing p99 (null at step 0), apply. */
    void applyAutoscale(const std::vector<double> &fleet_rps,
                        const std::vector<double> *trailing_p99_ms);
    /** Close the interval whose powered slots @p node_up marks: mark
     * them served, record a LoadShed of @p shed_rps when none is,
     * copy the interval's events out and bill it; returns the
     * cumulative bill. */
    double closeStep(const std::vector<std::uint8_t> &node_up,
                     double shed_rps,
                     std::vector<faults::FaultEvent> &fault_events,
                     std::vector<ScaleEvent> &scale_events);

  private:
    /** Elastic state of a fleet slot (see the file comment). */
    enum class SlotState : std::uint8_t
    {
        Active,   ///< taking new load (unless crashed)
        Draining, ///< weight 0, flushing backlog toward retirement
        Standby,  ///< parked: not stepped, not billed
    };

    /** One fleet slot's lifecycle record and rebuild recipe. */
    struct Slot
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
        /** Last checkpoint frame, rl::Checkpoint bytes ("" = none
         * yet); raw, so a checkpoint_corrupt fault can damage it. */
        std::string frame;
        FaultEnv env;

        bool powered() const
        {
            return !crashed && state != SlotState::Standby;
        }
        bool serving() const
        {
            return !crashed && state == SlotState::Active;
        }
    };

    /** Set slot @p n's elastic state and crashed flag, bumping the
     * generation when its powered flag changes. */
    void setLifecycle(std::size_t n, SlotState state, bool crashed);
    /** Checkpoint slot @p n's policy into its frame (emits the
     * CheckpointSaved event); no-op for managers without a policy. */
    void saveFrame(std::size_t n);
    /** Rebuild slot @p n's node; @p recovery is "warm" or "cold".
     * Emits the recovery-outcome events. */
    void rebuildNode(std::size_t n, const std::string &recovery);
    /** Append a fault event of @p kind on slot @p n to this step. */
    faults::FaultEvent &emit(faults::FaultEventKind kind, std::int64_t n);

    std::vector<sim::ServiceProfile> services_;
    std::uint64_t seed_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::vector<Slot> slots_;
    std::uint64_t generation_ = 0;
    /** Interval in progress (set by applyFaults). */
    std::size_t step_ = 0;
    bool started_ = false;
    /** This step's events (scratch). */
    std::vector<faults::FaultEvent> stepEvents_;
    std::vector<ScaleEvent> scaleStepEvents_;

    /** Armed schedule (null without faults). */
    std::unique_ptr<faults::FaultInjector> injector_;
    /** Active load-surge multiplier per service (1.0 = none). */
    std::vector<double> surgeMult_;

    /** Decision rule (null without setAutoscaler). */
    std::unique_ptr<autoscale::Autoscaler> autoscaler_;
    /** $/node-hour per slot (empty = unbilled) and the running bill. */
    std::vector<double> rates_;
    double bill_ = 0.0;
    /** Scale-in victims of the current decision (scratch). */
    std::vector<std::size_t> victims_;
};

} // namespace twig::cluster

#endif // TWIG_CLUSTER_SLOT_TABLE_HH
