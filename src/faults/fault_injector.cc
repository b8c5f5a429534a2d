#include "faults/fault_injector.hh"

#include <algorithm>

#include "common/error.hh"
#include "common/rng.hh"

namespace twig::faults {

const char *
faultEventKindName(FaultEventKind kind)
{
    switch (kind) {
    case FaultEventKind::NodeCrash:
        return "node_crash";
    case FaultEventKind::NodeRestart:
        return "node_restart";
    case FaultEventKind::ThrottleStart:
        return "throttle_start";
    case FaultEventKind::ThrottleEnd:
        return "throttle_end";
    case FaultEventKind::PmcNoiseStart:
        return "pmc_noise_start";
    case FaultEventKind::PmcNoiseEnd:
        return "pmc_noise_end";
    case FaultEventKind::SurgeStart:
        return "surge_start";
    case FaultEventKind::SurgeEnd:
        return "surge_end";
    case FaultEventKind::CheckpointCorrupt:
        return "checkpoint_corrupt";
    case FaultEventKind::CheckpointSaved:
        return "checkpoint_saved";
    case FaultEventKind::WarmRestore:
        return "warm_restore";
    case FaultEventKind::ColdRestart:
        return "cold_restart";
    case FaultEventKind::CorruptDetected:
        return "corrupt_detected";
    case FaultEventKind::LoadShed:
        return "load_shed";
    }
    common::panic("faultEventKindName: bad enum value");
}

FaultInjector::FaultInjector(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed)
{
    for (std::size_t i = 0; i < spec_.actions.size(); ++i) {
        const FaultAction &a = spec_.actions[i];
        FaultEvent ev;
        ev.node = a.kind == FaultKind::LoadSurge
            ? -1
            : static_cast<std::int64_t>(a.node);
        ev.service = a.kind == FaultKind::LoadSurge
            ? static_cast<std::int64_t>(a.service)
            : -1;
        switch (a.kind) {
        case FaultKind::NodeCrash: {
            ev.step = a.atStep;
            ev.kind = FaultEventKind::NodeCrash;
            ev.note = a.recovery;
            timeline_.push_back(ev);
            if (a.restartAfterSteps != 0) {
                FaultEvent restart = ev;
                restart.step = a.atStep + a.restartAfterSteps;
                restart.kind = FaultEventKind::NodeRestart;
                timeline_.push_back(restart);
            }
            break;
        }
        case FaultKind::ThermalThrottle: {
            ev.step = a.atStep;
            ev.kind = FaultEventKind::ThrottleStart;
            ev.value = static_cast<double>(a.maxDvfsIndex);
            timeline_.push_back(ev);
            FaultEvent end = ev;
            end.step = a.atStep + a.durationSteps;
            end.kind = FaultEventKind::ThrottleEnd;
            end.value = 0.0;
            timeline_.push_back(end);
            break;
        }
        case FaultKind::PmcNoise: {
            ev.step = a.atStep;
            ev.kind = FaultEventKind::PmcNoiseStart;
            ev.value = a.sigma;
            ev.aux = a.staleProb;
            // Derived per-action seed: splitmix of (base, action
            // index). Computed here, once, so the noise stream a node
            // sees is independent of when or on which thread the
            // fault is applied.
            std::uint64_t sm = seed_ ^ (0x9e3779b97f4a7c15ULL * (i + 1));
            ev.seed = common::splitmix64(sm);
            timeline_.push_back(ev);
            FaultEvent end = ev;
            end.step = a.atStep + a.durationSteps;
            end.kind = FaultEventKind::PmcNoiseEnd;
            end.value = 0.0;
            end.aux = 0.0;
            end.seed = 0;
            timeline_.push_back(end);
            break;
        }
        case FaultKind::LoadSurge: {
            ev.step = a.atStep;
            ev.kind = FaultEventKind::SurgeStart;
            ev.value = a.multiplier;
            timeline_.push_back(ev);
            FaultEvent end = ev;
            end.step = a.atStep + a.durationSteps;
            end.kind = FaultEventKind::SurgeEnd;
            end.value = a.multiplier;
            timeline_.push_back(end);
            break;
        }
        case FaultKind::CheckpointCorrupt: {
            ev.step = a.atStep;
            ev.kind = FaultEventKind::CheckpointCorrupt;
            timeline_.push_back(ev);
            break;
        }
        }
    }
    // Stable sort keeps schedule order among same-step transitions.
    std::stable_sort(timeline_.begin(), timeline_.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         return a.step < b.step;
                     });
}

void
FaultInjector::eventsAt(std::size_t step,
                        std::vector<FaultEvent> &out) const
{
    const auto lo = std::lower_bound(
        timeline_.begin(), timeline_.end(), step,
        [](const FaultEvent &ev, std::size_t s) { return ev.step < s; });
    for (auto it = lo; it != timeline_.end() && it->step == step; ++it)
        out.push_back(*it);
}

} // namespace twig::faults
