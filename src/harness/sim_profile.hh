/**
 * @file
 * harness::SimProfile — the user-facing view of the per-phase cycle
 * counters of a control interval (common/sim_counters.hh): the
 * simulator's six phases and the agent's.
 *
 * Usage pattern (bench/fig_sim_throughput, tools/twig_sim
 * --sim-profile):
 *
 *   SimProfile::enable();
 *   const SimProfile before = SimProfile::snapshot();
 *   ... run intervals ...
 *   const SimProfile delta = SimProfile::snapshot().since(before);
 *   delta.print(stdout);          // simulator phase table
 *   delta.printInterval(stdout, wall_cycles); // + agent, unattributed
 *   delta.writeJson(f, "    ");   // {"arrivals": {...}, ...}
 *
 * totalCycles(), sharePct(), phasesAbove(), print() and writeJson()
 * cover the simulator phases only, so their shares read the same
 * whether or not an agent ran alongside.
 */

#ifndef TWIG_HARNESS_SIM_PROFILE_HH
#define TWIG_HARNESS_SIM_PROFILE_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/sim_counters.hh"

namespace twig::harness {

/** Snapshot of the per-phase simulation cycle counters. */
class SimProfile
{
  public:
    /** Cycle/call totals of one phase (plain, copyable). */
    struct PhaseTotals
    {
        std::uint64_t cycles = 0;
        std::uint64_t calls = 0;
    };

    /** Start recording (counters keep their current totals). */
    static void enable() { common::simprof::setEnabled(true); }
    static void disable() { common::simprof::setEnabled(false); }

    /** Zero every counter. */
    static void reset() { common::simprof::resetAll(); }

    /** Read the current totals. */
    static SimProfile snapshot();

    /** This snapshot minus an earlier one (per-phase deltas). */
    SimProfile since(const SimProfile &earlier) const;

    const PhaseTotals &
    phase(common::simprof::Phase p) const
    {
        return totals_[static_cast<std::size_t>(p)];
    }

    /** Sum of the simulator phases' cycles. */
    std::uint64_t totalCycles() const;

    /** Share of totalCycles() spent in simulator phase @p p, in
     * percent (0 when no cycles were recorded at all). */
    double sharePct(common::simprof::Phase p) const;

    /** Simulator phases whose share of totalCycles() strictly exceeds
     * @p share_pct (tools' --profile-max-share budget check). */
    std::vector<common::simprof::Phase>
    phasesAbove(double share_pct) const;

    /** Aligned simulator-phase table (cycles, calls, share of
     * totalCycles()). */
    void print(std::FILE *out) const;

    /**
     * Aligned control-interval table: every phase, simulator and
     * agent, then an `unattributed` row (@p wall_cycles minus the sum
     * of all phases), each with its share of @p wall_cycles. Phases
     * recorded on several threads at once can sum past the wall
     * time; unattributed is then negative.
     */
    void printInterval(std::FILE *out, std::uint64_t wall_cycles) const;

    /**
     * JSON object mapping simulator phase name to {"cycles": N,
     * "calls": N}; every line is prefixed with @p indent.
     */
    void writeJson(std::FILE *out, const std::string &indent) const;

  private:
    std::array<PhaseTotals, common::simprof::kNumPhases> totals_{};
};

} // namespace twig::harness

#endif // TWIG_HARNESS_SIM_PROFILE_HH
