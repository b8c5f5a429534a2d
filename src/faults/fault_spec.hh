/**
 * @file
 * Declarative fault schedule: the disturbances a run must survive —
 * node crashes with warm/cold recovery, thermal DVFS throttling, PMC
 * telemetry noise/dropout, load surges and checkpoint corruption — as
 * a plain value type read from JSON (strictly: an unknown key is
 * fatal), embedded in a harness::ScenarioSpec under the "faults" key
 * or given as a standalone --faults file.
 *
 * A FaultSpec is pure schedule: every action names its trigger step
 * and (where applicable) duration, node, service and parameters. The
 * FaultInjector (fault_injector.hh) expands the schedule into timed
 * transition events; the cluster layer applies them. Nothing in this
 * file draws randomness — the only stochastic fault (PMC noise) gets
 * a splitmix-derived seed at injection time, so a fault scenario is
 * bit-reproducible at a fixed seed and any --jobs count.
 */

#ifndef TWIG_FAULTS_FAULT_SPEC_HH
#define TWIG_FAULTS_FAULT_SPEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace twig::faults {

/** The fault taxonomy a schedule can draw from. */
enum class FaultKind
{
    /** Replica removed from routing; optionally restarts later, warm
     * (from its last periodic BDQ checkpoint) or cold. */
    NodeCrash,
    /** A node's DVFS ladder is capped for a window: the hardware
     * silently delivers at most maxDvfsIndex regardless of what the
     * manager requests. */
    ThermalThrottle,
    /** Monitor features degrade for a window: multiplicative
     * log-normal noise on every PMC and/or stale (previous-interval)
     * readings. Only the manager's view is perturbed; the simulated
     * ground truth stays exact. */
    PmcNoise,
    /** Transient fleet-level RPS multiplier on one service. */
    LoadSurge,
    /** One bit of the node's stored checkpoint frame is flipped; a
     * later warm restore must detect the damage and fall back to a
     * cold start instead of crashing. */
    CheckpointCorrupt,
};

/** Parse a fault-kind name; FatalError listing the valid set
 * otherwise (the registry-style error surface). */
FaultKind faultKindByName(const std::string &name);

/** Short name of @p kind (inverse of faultKindByName). */
const char *faultKindName(FaultKind kind);

/** One scheduled fault. Unused fields keep their defaults. */
struct FaultAction
{
    FaultKind kind = FaultKind::NodeCrash;
    /** Control step the fault fires at. */
    std::size_t atStep = 0;
    /** Target node (all kinds except LoadSurge). */
    std::size_t node = 0;
    /** Target service (LoadSurge only). */
    std::size_t service = 0;
    /** Steps the condition lasts (ThermalThrottle / PmcNoise /
     * LoadSurge). */
    std::size_t durationSteps = 0;
    /** NodeCrash: steps until the replica restarts; 0 = never. */
    std::size_t restartAfterSteps = 0;
    /** NodeCrash: "warm" (restore last checkpoint) | "cold". */
    std::string recovery = "warm";
    /** ThermalThrottle: highest DVFS index the capped node may run. */
    std::size_t maxDvfsIndex = 0;
    /** PmcNoise: sigma of the per-counter log-normal multiplier. */
    double sigma = 0.0;
    /** PmcNoise: per-service probability of a stale reading. */
    double staleProb = 0.0;
    /** LoadSurge: RPS multiplier while active. */
    double multiplier = 1.0;

    /** Read event @p index of a schedule (the index names it in
     * errors); a key its kind does not read is fatal. */
    static FaultAction fromJson(const common::Json &j, std::size_t index);
};

/** A complete fault schedule for one run. */
struct FaultSpec
{
    /** Periodic per-node BDQ checkpoint cadence in steps (0 = no
     * periodic checkpoints; warm recovery then degrades to cold). */
    std::size_t checkpointEverySteps = 0;
    std::vector<FaultAction> actions;

    /** True when the spec schedules nothing at all. */
    bool
    empty() const
    {
        return actions.empty() && checkpointEverySteps == 0;
    }

    /**
     * Structural validation against the fleet shape. Returns an error
     * message or the empty string.
     *
     * @param num_nodes    replica count of the hosting scenario
     * @param num_services service count of the hosting scenario
     */
    std::string validate(std::size_t num_nodes,
                         std::size_t num_services) const;

    static FaultSpec fromJson(const common::Json &j);
    /** Parse a fault-schedule file (fatal on malformed input). */
    static FaultSpec fromFile(const std::string &path);
};

} // namespace twig::faults

#endif // TWIG_FAULTS_FAULT_SPEC_HH
