/**
 * @file
 * Declarative experiment specification: everything one run of the
 * simulator needs — machine, service mix, load patterns, manager +
 * knobs, schedule, seeds, mid-run events, topology — as a plain value
 * type read from JSON. Specs are read, never written, and the readers
 * are strict: a key a block does not know is fatal, naming the key and
 * the block, so a misspelled key never runs a default. One
 * ScenarioSpec describes a run on either topology (a single
 * sim::Server or an N-node fleet); the scenario Engine
 * (harness/engine.hh) executes it, and the scenarios/ directory ships
 * one JSON file per paper figure.
 *
 * Events partition a run into segments: each event first runs the
 * preceding segment for `afterSteps` control intervals, then fires —
 * optionally transferring the Twig manager to new services (the
 * fig. 8/9 transfer-learning swap) and/or starting a fresh server with
 * a new service mix / load / seed (the fig. 11 load change). Metrics,
 * traces and sinks cover the final segment only, the way the paper
 * summarises runs over a trailing window.
 */

#ifndef TWIG_HARNESS_SCENARIO_HH
#define TWIG_HARNESS_SCENARIO_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "autoscale/autoscaler.hh"
#include "autoscale/node_class.hh"
#include "common/json.hh"
#include "faults/fault_spec.hh"
#include "harness/registry.hh"

namespace twig::harness {

/** One hosted service and the load pattern driving it. */
struct ServiceLoadSpec
{
    /** Catalogue name (services::byName). */
    std::string service;
    /** fixed | diurnal | step | ramp | trace. */
    std::string pattern = "fixed";
    /** Operating ("high") load fraction of the effective max. */
    double fraction = 0.5;
    /** Scales the profile's max RPS (e.g. a colocated max fraction). */
    double maxScale = 1.0;
    /** Absolute peak RPS override; > 0 wins over maxScale and skips
     * the fleet capacity scaling on the cluster topology. */
    double maxRps = 0.0;
    /** Low fraction for diurnal/step/ramp/trace; < 0 picks the
     * pattern's conventional default (0.4 x fraction for diurnal and
     * trace, max(0.1, 0.4 x fraction) for step, 0.25 x fraction for
     * ramp). */
    double lowFraction = -1.0;
    /** Pattern period in steps; 0 picks the conventional default
     * (steps/4 diurnal, max(steps/50, 1) step, the segment length for
     * ramp and trace). */
    std::size_t periodSteps = 0;
    /** Multiplicative increment of the step pattern. */
    double changeFactor = 0.2;
    /** CSV file + column replayed by the trace pattern. */
    std::string tracePath;
    std::string traceColumn;

    /** Read entry @p index of a services list (the index names it in
     * errors); a key its pattern does not read is fatal. */
    static ServiceLoadSpec fromJson(const common::Json &j,
                                    std::size_t index);
};

/** Transfer-learning swap applied to a TwigManager (paper §IV). */
struct TransferSpec
{
    /** Managed-service slot whose spec is swapped. */
    std::size_t serviceIndex = 0;
    /** Catalogue name of the incoming service. */
    std::string service;
    /** Seed of the incoming service's Eq. 2 profiling fit. */
    std::uint64_t specSeed = 0;
    /** Epsilon re-annealing window after the swap. */
    std::size_t reexploreSteps = 50;

    static TransferSpec fromJson(const common::Json &j);
};

/** A mid-run event; see the file comment for segment semantics. */
struct ScenarioEvent
{
    /** Steps the segment before this event runs (its own server; no
     * metrics). */
    std::size_t afterSteps = 0;
    /** Manager-side transfers fired at the boundary (twig only). */
    std::vector<TransferSpec> transfers;
    /** New service mix for the next segment; empty keeps the previous
     * mix (the next segment still starts on a fresh server). */
    std::vector<ServiceLoadSpec> services;
    /** Seed of the next segment's server (default: the scenario
     * seed). */
    std::optional<std::uint64_t> serverSeed;

    static ScenarioEvent fromJson(const common::Json &j);
};

/** A complete declarative experiment. */
struct ScenarioSpec
{
    std::string name;
    std::string description;

    /** single | cluster. */
    std::string topology = "single";

    /** Cores of the (reference) node; hetero fleets cut odd nodes to
     * 6 cores like the scale-out experiments. */
    std::size_t machineCores = 18;

    /** Initial service mix (segment 0). */
    std::vector<ServiceLoadSpec> services;

    std::string manager = "twig";
    ManagerKnobs knobs;
    /** Paper-length time constants (TwigConfig::paper etc.). */
    bool paper = false;
    /** Manager seed (default: seed + 1, the tools' convention). */
    std::optional<std::uint64_t> managerSeed;

    /** Steps of the final (measured) segment. */
    std::size_t steps = 2000;
    /** Trailing metrics window; 0 = steps/6 on the single topology,
     * steps/4 (clamped to steps) on the cluster. */
    std::size_t window = 0;
    /** Learning-schedule horizon; 0 = steps. */
    std::size_t horizon = 0;

    /** Server seed (single) / fleet base seed (cluster). */
    std::uint64_t seed = 42;

    std::vector<ScenarioEvent> events;

    // --- cluster topology only ---------------------------------------
    std::size_t nodes = 4;
    /** Alternate full-size and 6-core nodes. */
    bool hetero = false;
    /** static | wrr | p2c-latency. */
    std::string policy = "p2c-latency";
    /** Routing domains of the two-level front-end; 1 = flat-equivalent
     * single domain (must not exceed the node count). */
    std::size_t domains = 1;
    /** Warm-start BDQ checkpoint for every node; "{cores}" expands to
     * the node's core count (per-shape donors). Implies exploit-only
     * twig nodes. */
    std::string checkpoint;
    /** Fault schedule the run must survive (src/faults); empty = no
     * faults and a step loop byte-identical to a fault-free run. */
    faults::FaultSpec faults;
    /** User-defined node capability classes, referenced by id from
     * `fleet` (the built-in catalogue is always available and may not
     * be shadowed). */
    std::vector<autoscale::NodeClass> nodeClasses;
    /** Per-slot class ids: slot n is provisioned as
     * fleet[n % fleet.size()]. Empty = homogeneous reference nodes
     * (or hetero's 18/6 alternation). */
    std::vector<std::string> fleetClasses;
    /** Elastic sizing block (src/autoscale). When present `nodes` is
     * the *initial* active count and the fleet provisions
     * autoscale->maxNodes slots (the rest start in standby). */
    std::optional<autoscale::AutoscaleConfig> autoscale;

    /** Provisioned fleet slots: autoscale->maxNodes with an autoscale
     * block, `nodes` without. */
    std::size_t totalNodes() const
    {
        return autoscale ? autoscale->maxNodes : nodes;
    }

    /** Effective metrics window / learning horizon. */
    std::size_t resolvedWindow() const;
    std::size_t resolvedHorizon() const { return horizon ? horizon : steps; }

    /** The service mix of the final (measured) segment. */
    const std::vector<ServiceLoadSpec> &finalServices() const;

    /**
     * Structural validation against @p registry: topology, manager
     * name + single-service rule, patterns and load values (finite;
     * fraction and max_scale > 0, max_rps >= 0), events. Returns an
     * error message or the empty string. Service names are checked by
     * the engine (services::byName) to keep this layer catalogue-free.
     */
    std::string validate(const ManagerRegistry &registry) const;

    static ScenarioSpec fromJson(const common::Json &j);
    /** Parse a scenario file (fatal on malformed input). */
    static ScenarioSpec fromFile(const std::string &path);
};

} // namespace twig::harness

#endif // TWIG_HARNESS_SCENARIO_HH
