/**
 * @file
 * Deterministic fault injection: expands a FaultSpec's schedule into
 * timed transition events (crash at t, restart at t + r, throttle
 * start at t / end at t + d, ...) that the cluster layer applies at
 * the start of each control interval, and records everything that
 * happened as a stream of FaultEvent records.
 *
 * Determinism contract: the event timeline is a pure function of the
 * FaultSpec — the injector never draws randomness while running. The
 * one stochastic fault (PMC noise) receives a splitmix-derived seed
 * computed from (injector seed, action index) at schedule-expansion
 * time; the noise itself is drawn inside the target node's own sealed
 * RNG. A fault scenario therefore replays bit-identically at a fixed
 * seed and any --jobs count.
 */

#ifndef TWIG_FAULTS_FAULT_INJECTOR_HH
#define TWIG_FAULTS_FAULT_INJECTOR_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "faults/fault_spec.hh"

namespace twig::faults {

/** Everything that can appear on the fault-event stream: schedule
 * transitions (from the injector) and recovery outcomes (from the
 * cluster layer). */
enum class FaultEventKind
{
    // Injector-driven schedule transitions.
    NodeCrash,
    NodeRestart,
    ThrottleStart,
    ThrottleEnd,
    PmcNoiseStart,
    PmcNoiseEnd,
    SurgeStart,
    SurgeEnd,
    CheckpointCorrupt,
    // Cluster-layer recovery outcomes.
    CheckpointSaved,
    WarmRestore,
    ColdRestart,
    CorruptDetected,
    LoadShed,
};

/** Stable name of @p kind (event-trace vocabulary). */
const char *faultEventKindName(FaultEventKind kind);

/** One record on the fault-event stream. */
struct FaultEvent
{
    std::size_t step = 0;
    FaultEventKind kind = FaultEventKind::NodeCrash;
    /** Target node, -1 when not node-scoped. */
    std::int64_t node = -1;
    /** Target service, -1 when not service-scoped. */
    std::int64_t service = -1;
    /** Kind-specific scalar: DVFS cap, noise sigma, surge multiplier,
     * shed RPS, ... (0 when unused). */
    double value = 0.0;
    /** Second kind-specific scalar (PmcNoiseStart: staleProb). */
    double aux = 0.0;
    /** Derived RNG seed (PmcNoiseStart only; 0 otherwise). */
    std::uint64_t seed = 0;
    /** Free-form detail ("warm" | "cold" recovery, error text of a
     * rejected checkpoint, ...). */
    std::string note;

    bool operator==(const FaultEvent &other) const = default;
};

/**
 * The schedule expander. Construction walks the spec once and indexes
 * every transition by trigger step; eventsAt() is then a cheap lookup
 * the cluster layer calls at the top of each interval.
 */
class FaultInjector
{
  public:
    /**
     * @param spec validated fault schedule (see FaultSpec::validate)
     * @param seed base seed of the derived per-action noise seeds
     */
    FaultInjector(FaultSpec spec, std::uint64_t seed);

    const FaultSpec &spec() const { return spec_; }

    /** Append the transition events due exactly at @p step to @p out,
     * in schedule order. PmcNoiseStart events carry their derived
     * noise seed in FaultEvent::seed. */
    void eventsAt(std::size_t step, std::vector<FaultEvent> &out) const;

  private:
    FaultSpec spec_;
    std::uint64_t seed_;
    /** All transitions, sorted by (step, schedule order). */
    std::vector<FaultEvent> timeline_;
};

} // namespace twig::faults

#endif // TWIG_FAULTS_FAULT_INJECTOR_HH
