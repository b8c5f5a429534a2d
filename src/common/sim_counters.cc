#include "common/sim_counters.hh"

#include <array>

namespace twig::common::simprof {

namespace {

std::array<PhaseCounter, kNumPhases> g_counters;
std::atomic<bool> g_enabled{false};

} // namespace

const char *
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Arrivals:
        return "arrivals";
    case Phase::Dispatch:
        return "dispatch";
    case Phase::Draws:
        return "draws";
    case Phase::Quantile:
        return "quantile";
    case Phase::Interference:
        return "interference";
    case Phase::Power:
        return "power";
    case Phase::Monitor:
        return "monitor";
    case Phase::Decide:
        return "decide";
    case Phase::Replay:
        return "replay";
    case Phase::TrainForward:
        return "train_forward";
    case Phase::Backward:
        return "backward";
    case Phase::Adam:
        return "adam";
    case Phase::TargetSync:
        return "target_sync";
    case Phase::Map:
        return "map";
    case Phase::NumPhases:
        break;
    }
    return "?";
}

PhaseCounter &
counter(Phase phase)
{
    return g_counters[static_cast<std::size_t>(phase)];
}

bool
enabled()
{
    return g_enabled.load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    g_enabled.store(on, std::memory_order_relaxed);
}

void
resetAll()
{
    for (PhaseCounter &c : g_counters) {
        c.cycles.store(0, std::memory_order_relaxed);
        c.calls.store(0, std::memory_order_relaxed);
    }
}

} // namespace twig::common::simprof
