/**
 * @file
 * Elastic fleet sizing: the decision rule that turns fleet QoS
 * headroom and trailing-window tail latency into scale-out / scale-in
 * actions.
 *
 * The Autoscaler is a deterministic state machine evaluated once per
 * control interval, before routing:
 *
 *  * **Utilisation** is the primary signal: the worst per-service
 *    ratio of offered RPS to the rated capacity of the currently
 *    serving slice of the fleet (capability-weighted, so a gen2 node
 *    counts for more than a gen1). QoS headroom is `1 - utilisation`.
 *  * **Hysteresis bands**: scale OUT when utilisation exceeds
 *    `hiUtilization`, scale IN only when the fleet would still sit
 *    below `loUtilization` *after* retiring the step — the bands never
 *    overlap, so the fleet cannot oscillate on a flat load.
 *  * **Tail-latency override**: sustained trailing-window p99 above
 *    `outTardiness x QoS` forces a scale-out regardless of modelled
 *    utilisation (interference or a mis-rated class shows up here
 *    first), and vetoes any scale-in.
 *  * **Persistence + cooldown**: a signal must hold for
 *    `persistIntervals` consecutive intervals to fire, and after any
 *    action the scaler sleeps `cooldownIntervals` — warm-spawned
 *    replicas (PR 5 checkpoint-restore path) need zero intervals to
 *    converge, but the trailing p99 window needs time to reflect the
 *    new capacity.
 *
 * Nothing here draws randomness; decisions depend only on the step
 * sequence of inputs, so an autoscaled run replays bit-identically at
 * any `--jobs` count.
 */

#ifndef TWIG_AUTOSCALE_AUTOSCALER_HH
#define TWIG_AUTOSCALE_AUTOSCALER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hh"

namespace twig::autoscale {

/** Tunables of the scaling decision rule (scenario `autoscale` block). */
struct AutoscaleConfig
{
    /** Fewest nodes allowed to serve. */
    std::size_t minNodes = 1;
    /** Fleet slots provisioned; the static-provisioning reference. */
    std::size_t maxNodes = 1;
    /** Scale out when worst-service utilisation exceeds this. */
    double hiUtilization = 0.75;
    /** Scale in only when post-retirement utilisation stays below
     * this (must be < hiUtilization: the hysteresis gap). */
    double loUtilization = 0.55;
    /** Scale out when trailing p99 / QoS target exceeds this,
     * whatever the modelled utilisation says. */
    double outTardiness = 1.0;
    /** Consecutive intervals a signal must hold before firing. */
    std::size_t persistIntervals = 2;
    /** Intervals to sleep after any action (must be >= 1). */
    std::size_t cooldownIntervals = 10;
    /** Nodes activated per scale-out (flash crowds want > 1). */
    std::size_t outStepNodes = 1;
    /** Nodes drained per scale-in. */
    std::size_t inStepNodes = 1;
    /** Intervals a retiring node keeps flushing its backlog (weight 0,
     * still merging histograms) before leaving the fleet. */
    std::size_t drainIntervals = 2;

    /** Structural validation; returns an error message or "". */
    std::string validate() const;

    static AutoscaleConfig fromJson(const common::Json &j);
};

/** What changes between decisions: the fleet's shape and this
 * interval's load and tail (one control interval). */
struct FleetSignal
{
    /** Slots currently serving new load (up, not draining/standby). */
    std::size_t serving = 0;
    /** Parked slots available for activation. */
    std::size_t standby = 0;
    /** Capability-weighted share of full-fleet capacity now serving. */
    double servingCapacityFraction = 1.0;
    /** Ditto after hypothetically draining `inStepNodes` victims. */
    double capacityFractionAfterScaleIn = 1.0;
    /** Current interval's offered fleet RPS per service. */
    const std::vector<double> *offeredRps = nullptr;
    /** Previous interval's trailing-window fleet p99 per service
     * (nullptr / empty before the first interval completes). */
    const std::vector<double> *trailingP99Ms = nullptr;
};

/** One scaling action (count == 0 never escapes decide()). */
struct ScaleDecision
{
    enum class Kind { None, Out, In };
    Kind kind = Kind::None;
    /** Nodes to activate (Out) or drain (In). */
    std::size_t count = 0;
    /** Worst-service utilisation that drove the decision. */
    double utilization = 0.0;
    /** Worst-service trailing tardiness (p99 / target; 0 = no data). */
    double tardiness = 0.0;
};

/** The per-fleet decision state machine. */
class Autoscaler
{
  public:
    /**
     * @param cfg            decision rule (validated; fatal on a
     *                       malformed block)
     * @param rated_rps      per-service fleet RPS the *full* (maxNodes)
     *                       fleet is rated for — the utilisation
     *                       denominator; each must be > 0
     * @param qos_targets_ms per-service QoS target, one per rated RPS
     */
    Autoscaler(const AutoscaleConfig &cfg, std::vector<double> rated_rps,
               std::vector<double> qos_targets_ms);

    const AutoscaleConfig &config() const { return cfg_; }

    /** Evaluate one interval; call exactly once per step, in step
     * order. */
    ScaleDecision decide(const FleetSignal &sig);

    /** Worst-service utilisation of @p sig at @p capacity_fraction of
     * the rated fleet (exposed for tests). */
    double worstUtilization(const FleetSignal &sig,
                            double capacity_fraction) const;
    /** Worst-service trailing tardiness of @p sig (0 = no data). */
    double worstTardiness(const FleetSignal &sig) const;

  private:
    AutoscaleConfig cfg_;
    std::vector<double> ratedRps_;
    std::vector<double> qosTargetsMs_;
    std::size_t hiStreak_ = 0;
    std::size_t loStreak_ = 0;
    std::size_t cooldown_ = 0;
};

} // namespace twig::autoscale

#endif // TWIG_AUTOSCALE_AUTOSCALER_HH
