#include "faults/fault_spec.hh"

#include "common/error.hh"

namespace twig::faults {

using common::Json;

FaultKind
faultKindByName(const std::string &name)
{
    if (name == "node_crash")
        return FaultKind::NodeCrash;
    if (name == "thermal_throttle")
        return FaultKind::ThermalThrottle;
    if (name == "pmc_noise")
        return FaultKind::PmcNoise;
    if (name == "load_surge")
        return FaultKind::LoadSurge;
    if (name == "checkpoint_corrupt")
        return FaultKind::CheckpointCorrupt;
    common::fatal("unknown fault type: ", name,
                  " (want node_crash | thermal_throttle | pmc_noise | "
                  "load_surge | checkpoint_corrupt)");
}

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
    case FaultKind::NodeCrash:
        return "node_crash";
    case FaultKind::ThermalThrottle:
        return "thermal_throttle";
    case FaultKind::PmcNoise:
        return "pmc_noise";
    case FaultKind::LoadSurge:
        return "load_surge";
    case FaultKind::CheckpointCorrupt:
        return "checkpoint_corrupt";
    }
    common::panic("faultKindName: bad enum value");
}

// --- FaultAction -----------------------------------------------------

FaultAction
FaultAction::fromJson(const Json &j, std::size_t index)
{
    FaultAction a;
    a.kind = faultKindByName(j.at("type").asString());
    // Each kind takes only the keys it reads: a field it would ignore
    // (a crash's "duration") is fatal instead of running a default.
    const std::string where = "fault event " + std::to_string(index) +
        " (" + faultKindName(a.kind) + ")";
    switch (a.kind) {
    case FaultKind::NodeCrash:
        j.allowOnly({"type", "at", "node", "restart_after", "recovery"},
                    where);
        break;
    case FaultKind::ThermalThrottle:
        j.allowOnly({"type", "at", "node", "duration", "max_dvfs"}, where);
        break;
    case FaultKind::PmcNoise:
        j.allowOnly(
            {"type", "at", "node", "duration", "sigma", "stale_prob"},
            where);
        break;
    case FaultKind::LoadSurge:
        j.allowOnly(
            {"type", "at", "service", "duration", "multiplier"}, where);
        break;
    case FaultKind::CheckpointCorrupt:
        j.allowOnly({"type", "at", "node"}, where);
        break;
    }
    a.atStep = static_cast<std::size_t>(j.at("at").asIndex());
    a.node = static_cast<std::size_t>(j.indexOr("node", a.node));
    a.service =
        static_cast<std::size_t>(j.indexOr("service", a.service));
    a.durationSteps =
        static_cast<std::size_t>(j.indexOr("duration", a.durationSteps));
    a.restartAfterSteps = static_cast<std::size_t>(
        j.indexOr("restart_after", a.restartAfterSteps));
    a.recovery = j.stringOr("recovery", a.recovery);
    a.maxDvfsIndex =
        static_cast<std::size_t>(j.indexOr("max_dvfs", a.maxDvfsIndex));
    a.sigma = j.numberOr("sigma", a.sigma);
    a.staleProb = j.numberOr("stale_prob", a.staleProb);
    a.multiplier = j.numberOr("multiplier", a.multiplier);
    return a;
}

// --- FaultSpec -------------------------------------------------------

std::string
FaultSpec::validate(std::size_t num_nodes,
                    std::size_t num_services) const
{
    for (const auto &a : actions) {
        const std::string label =
            std::string(faultKindName(a.kind)) + " at step " +
            std::to_string(a.atStep);
        const bool node_scoped = a.kind != FaultKind::LoadSurge;
        if (node_scoped && a.node >= num_nodes) {
            return label + ": node " + std::to_string(a.node) +
                " out of range (fleet has " +
                std::to_string(num_nodes) + " nodes)";
        }
        switch (a.kind) {
        case FaultKind::NodeCrash:
            if (a.recovery != "warm" && a.recovery != "cold")
                return label + ": unknown recovery '" + a.recovery +
                    "' (want warm | cold)";
            break;
        case FaultKind::ThermalThrottle:
            if (a.durationSteps == 0)
                return label + ": zero duration";
            break;
        case FaultKind::PmcNoise:
            if (a.durationSteps == 0)
                return label + ": zero duration";
            if (a.sigma < 0.0)
                return label + ": negative sigma";
            if (a.staleProb < 0.0 || a.staleProb > 1.0)
                return label + ": stale_prob outside [0, 1]";
            if (a.sigma == 0.0 && a.staleProb == 0.0)
                return label + ": needs sigma and/or stale_prob";
            break;
        case FaultKind::LoadSurge:
            if (a.service >= num_services)
                return label + ": service " +
                    std::to_string(a.service) +
                    " out of range (scenario hosts " +
                    std::to_string(num_services) + " services)";
            if (a.durationSteps == 0)
                return label + ": zero duration";
            if (a.multiplier <= 0.0)
                return label + ": non-positive multiplier";
            break;
        case FaultKind::CheckpointCorrupt:
            break;
        }
    }
    return {};
}

FaultSpec
FaultSpec::fromJson(const Json &j)
{
    j.allowOnly({"checkpoint_every", "events"}, "faults");
    FaultSpec s;
    s.checkpointEverySteps = static_cast<std::size_t>(
        j.indexOr("checkpoint_every", 0));
    if (const Json *arr = j.find("events")) {
        for (std::size_t i = 0; i < arr->size(); ++i)
            s.actions.push_back(FaultAction::fromJson(arr->at(i), i));
    }
    return s;
}

FaultSpec
FaultSpec::fromFile(const std::string &path)
{
    return fromJson(Json::parseFile(path));
}

} // namespace twig::faults
