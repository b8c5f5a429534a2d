/**
 * @file
 * Per-phase cycle counters for one control interval.
 *
 * The simulator's per-interval work splits into six phases — arrival
 * generation, FCFS dispatch, service-time sampling, windowed-quantile
 * maintenance, interference evaluation, and power accounting. The
 * agent's splits into eight: PMC smoothing and state building,
 * decision, replay, train forward, backward, Adam, target sync, and
 * core mapping. Each phase brackets itself with a ScopedPhaseTimer;
 * every phase is a leaf (no timed phase runs inside another), so the
 * phases of one interval add up without double counting. The
 * accumulated cycles and call counts are read out and reported by
 * harness::SimProfile (src/harness/sim_profile.hh), which is the
 * user-facing facade.
 *
 * This low-level half lives in common so src/sim, src/nn, src/rl and
 * src/core can depend on it without a dependency on harness.
 *
 * Counting is off by default. When disabled, a timer costs one relaxed
 * atomic load and a branch; when enabled, two timestamp reads and two
 * relaxed atomic adds. Counters are global and atomic so fleet nodes
 * stepping on a thread pool aggregate into the same totals.
 */

#ifndef TWIG_COMMON_SIM_COUNTERS_HH
#define TWIG_COMMON_SIM_COUNTERS_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace twig::common::simprof {

/** The instrumented phases of one control interval: the simulator's
 * six, then the agent's. */
enum class Phase : std::size_t
{
    Arrivals = 0,   ///< Poisson draw + arrival times + backlog append
    Dispatch,       ///< FCFS dispatch onto the logical core set
    Draws,          ///< log-normal service-time sampling (batched)
    Quantile,       ///< QoS window maintenance + p99 selection
    Interference,   ///< shared-resource contention evaluation
    Power,          ///< per-core bookkeeping + attribution + RAPL
    Monitor,        ///< PMC smoothing, joint state, reward, transition
    Decide,         ///< BDQ action selection for the next interval
    Replay,         ///< replay insert, minibatch sample, priorities
    TrainForward,   ///< online + target forward, TD targets, loss grad
    Backward,       ///< backprop through the online network
    Adam,           ///< Adam update of every layer
    TargetSync,     ///< target-network parameter copy
    Map,            ///< core IDs + DVFS from the resource requests
    NumPhases
};

inline constexpr std::size_t kNumPhases =
    static_cast<std::size_t>(Phase::NumPhases);

/** Phases [0, kNumSimPhases) are the simulator's; the rest the
 * agent's. */
inline constexpr std::size_t kNumSimPhases =
    static_cast<std::size_t>(Phase::Monitor);

/** Short lowercase name of @p phase (JSON keys, table rows). */
const char *phaseName(Phase phase);

/** Cycle/call totals of one phase. */
struct PhaseCounter
{
    std::atomic<std::uint64_t> cycles{0};
    std::atomic<std::uint64_t> calls{0};
};

/** Global counter of @p phase. */
PhaseCounter &counter(Phase phase);

/** Whether timers record (off by default). */
bool enabled();
void setEnabled(bool on);

/** Zero every phase counter. */
void resetAll();

/** Timestamp in cycles (TSC on x86-64, steady_clock ticks elsewhere). */
inline std::uint64_t
now()
{
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

/** RAII bracket accumulating into one phase's counter. */
class ScopedPhaseTimer
{
  public:
    explicit ScopedPhaseTimer(Phase phase)
        : active_(enabled()), phase_(phase),
          start_(active_ ? now() : 0)
    {
    }

    ~ScopedPhaseTimer() { stop(); }

    /** Close the bracket before the scope ends; later calls and the
     * destructor then record nothing. */
    void
    stop()
    {
        if (!active_)
            return;
        active_ = false;
        PhaseCounter &c = counter(phase_);
        c.cycles.fetch_add(now() - start_, std::memory_order_relaxed);
        c.calls.fetch_add(1, std::memory_order_relaxed);
    }

    ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
    ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

  private:
    bool active_;
    Phase phase_;
    std::uint64_t start_;
};

} // namespace twig::common::simprof

#endif // TWIG_COMMON_SIM_COUNTERS_HH
