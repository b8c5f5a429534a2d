#include "harness/sim_profile.hh"

namespace twig::harness {

namespace simprof = common::simprof;

namespace {

void
printHeader(std::FILE *out)
{
    std::fprintf(out, "  %-14s %14s %10s %7s\n", "phase", "cycles", "calls",
                 "share");
}

double
pctOf(double part, std::uint64_t whole)
{
    return whole > 0 ? 100.0 * part / static_cast<double>(whole) : 0.0;
}

/** Row of phase @p i with its share of @p whole cycles. */
void
printRow(std::FILE *out, std::size_t i, const SimProfile::PhaseTotals &t,
         std::uint64_t whole)
{
    std::fprintf(out, "  %-14s %14llu %10llu %6.2f%%\n",
                 simprof::phaseName(static_cast<simprof::Phase>(i)),
                 static_cast<unsigned long long>(t.cycles),
                 static_cast<unsigned long long>(t.calls),
                 pctOf(static_cast<double>(t.cycles), whole));
}

} // namespace

SimProfile
SimProfile::snapshot()
{
    SimProfile prof;
    for (std::size_t i = 0; i < simprof::kNumPhases; ++i) {
        const simprof::PhaseCounter &c =
            simprof::counter(static_cast<simprof::Phase>(i));
        prof.totals_[i].cycles = c.cycles.load(std::memory_order_relaxed);
        prof.totals_[i].calls = c.calls.load(std::memory_order_relaxed);
    }
    return prof;
}

SimProfile
SimProfile::since(const SimProfile &earlier) const
{
    SimProfile delta;
    for (std::size_t i = 0; i < simprof::kNumPhases; ++i) {
        delta.totals_[i].cycles =
            totals_[i].cycles - earlier.totals_[i].cycles;
        delta.totals_[i].calls = totals_[i].calls - earlier.totals_[i].calls;
    }
    return delta;
}

std::uint64_t
SimProfile::totalCycles() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < simprof::kNumSimPhases; ++i)
        total += totals_[i].cycles;
    return total;
}

double
SimProfile::sharePct(common::simprof::Phase p) const
{
    return pctOf(static_cast<double>(phase(p).cycles), totalCycles());
}

std::vector<common::simprof::Phase>
SimProfile::phasesAbove(double share_pct) const
{
    std::vector<simprof::Phase> out;
    for (std::size_t i = 0; i < simprof::kNumSimPhases; ++i) {
        const auto p = static_cast<simprof::Phase>(i);
        if (sharePct(p) > share_pct)
            out.push_back(p);
    }
    return out;
}

void
SimProfile::print(std::FILE *out) const
{
    const std::uint64_t total = totalCycles();
    printHeader(out);
    for (std::size_t i = 0; i < simprof::kNumSimPhases; ++i)
        printRow(out, i, totals_[i], total);
}

void
SimProfile::printInterval(std::FILE *out, std::uint64_t wall_cycles) const
{
    printHeader(out);
    std::uint64_t timed = 0;
    for (std::size_t i = 0; i < simprof::kNumPhases; ++i) {
        timed += totals_[i].cycles;
        printRow(out, i, totals_[i], wall_cycles);
    }
    const double rest =
        static_cast<double>(wall_cycles) - static_cast<double>(timed);
    std::fprintf(out, "  %-14s %14.0f %10s %6.2f%%\n", "unattributed",
                 rest, "", pctOf(rest, wall_cycles));
    std::fprintf(out, "  %-14s %14llu %10s %6.2f%%\n", "wall",
                 static_cast<unsigned long long>(wall_cycles), "",
                 wall_cycles > 0 ? 100.0 : 0.0);
}

void
SimProfile::writeJson(std::FILE *out, const std::string &indent) const
{
    std::fprintf(out, "%s{\n", indent.c_str());
    for (std::size_t i = 0; i < simprof::kNumSimPhases; ++i) {
        const PhaseTotals &t = totals_[i];
        std::fprintf(out, "%s  \"%s\": {\"cycles\": %llu, \"calls\": %llu}%s\n",
                     indent.c_str(),
                     simprof::phaseName(static_cast<simprof::Phase>(i)),
                     static_cast<unsigned long long>(t.cycles),
                     static_cast<unsigned long long>(t.calls),
                     i + 1 < simprof::kNumSimPhases ? "," : "");
    }
    std::fprintf(out, "%s}", indent.c_str());
}

} // namespace twig::harness
