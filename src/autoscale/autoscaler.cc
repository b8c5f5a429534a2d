/** @file Scaling decision rule, validation and JSON reader. */

#include "autoscale/autoscaler.hh"

#include <algorithm>
#include <utility>

#include "common/error.hh"

namespace twig::autoscale {

std::string
AutoscaleConfig::validate() const
{
    if (minNodes == 0)
        return "autoscale block with min_nodes 0";
    if (minNodes > maxNodes)
        return "autoscale block with min_nodes > max_nodes";
    if (cooldownIntervals == 0)
        return "autoscale block with cooldown 0 (would oscillate every "
               "interval)";
    if (persistIntervals == 0)
        return "autoscale block with persist 0";
    if (outStepNodes == 0 || inStepNodes == 0)
        return "autoscale block with a zero scaling step";
    if (drainIntervals == 0)
        return "autoscale block with drain 0 (retiring nodes must flush "
               "their backlog)";
    if (hiUtilization <= 0.0 || hiUtilization > 1.0)
        return "autoscale block needs hi_utilization in (0, 1]";
    if (loUtilization <= 0.0 || loUtilization >= hiUtilization)
        return "autoscale block needs lo_utilization in (0, "
               "hi_utilization)";
    if (outTardiness <= 0.0)
        return "autoscale block needs a positive out_tardiness";
    return "";
}

AutoscaleConfig
AutoscaleConfig::fromJson(const common::Json &j)
{
    j.allowOnly({"min_nodes", "max_nodes", "hi_utilization",
                 "lo_utilization", "out_tardiness", "persist", "cooldown",
                 "out_step", "in_step", "drain"},
                "autoscale");
    AutoscaleConfig c;
    c.minNodes = static_cast<std::size_t>(j.at("min_nodes").asIndex());
    c.maxNodes = static_cast<std::size_t>(j.at("max_nodes").asIndex());
    c.hiUtilization = j.numberOr("hi_utilization", c.hiUtilization);
    c.loUtilization = j.numberOr("lo_utilization", c.loUtilization);
    c.outTardiness = j.numberOr("out_tardiness", c.outTardiness);
    c.persistIntervals =
        static_cast<std::size_t>(j.indexOr("persist", c.persistIntervals));
    c.cooldownIntervals = static_cast<std::size_t>(
        j.indexOr("cooldown", c.cooldownIntervals));
    c.outStepNodes =
        static_cast<std::size_t>(j.indexOr("out_step", c.outStepNodes));
    c.inStepNodes =
        static_cast<std::size_t>(j.indexOr("in_step", c.inStepNodes));
    c.drainIntervals =
        static_cast<std::size_t>(j.indexOr("drain", c.drainIntervals));
    return c;
}

Autoscaler::Autoscaler(const AutoscaleConfig &cfg,
                       std::vector<double> rated_rps,
                       std::vector<double> qos_targets_ms)
    : cfg_(cfg), ratedRps_(std::move(rated_rps)),
      qosTargetsMs_(std::move(qos_targets_ms))
{
    const std::string err = cfg.validate();
    common::fatalIf(!err.empty(), "Autoscaler: ", err);
    common::fatalIf(ratedRps_.size() != qosTargetsMs_.size(),
                    "Autoscaler: need one rated fleet RPS per service");
    for (double rated : ratedRps_)
        common::fatalIf(rated <= 0.0,
                        "Autoscaler: rated fleet RPS must be > 0");
}

double
Autoscaler::worstUtilization(const FleetSignal &sig,
                             double capacity_fraction) const
{
    if (!sig.offeredRps || capacity_fraction <= 0.0)
        return 0.0;
    double worst = 0.0;
    const std::size_t n = std::min(sig.offeredRps->size(), ratedRps_.size());
    for (std::size_t s = 0; s < n; ++s) {
        const double rated = ratedRps_[s] * capacity_fraction;
        if (rated <= 0.0)
            continue;
        worst = std::max(worst, (*sig.offeredRps)[s] / rated);
    }
    return worst;
}

double
Autoscaler::worstTardiness(const FleetSignal &sig) const
{
    if (!sig.trailingP99Ms)
        return 0.0;
    double worst = 0.0;
    const std::size_t n =
        std::min(sig.trailingP99Ms->size(), qosTargetsMs_.size());
    for (std::size_t s = 0; s < n; ++s) {
        const double target = qosTargetsMs_[s];
        if (target <= 0.0)
            continue;
        worst = std::max(worst, (*sig.trailingP99Ms)[s] / target);
    }
    return worst;
}

ScaleDecision
Autoscaler::decide(const FleetSignal &sig)
{
    ScaleDecision d;
    d.utilization = worstUtilization(sig, sig.servingCapacityFraction);
    d.tardiness = worstTardiness(sig);

    // Streaks update every interval, cooling down or not, so a
    // condition that persists straight through a cooldown fires the
    // moment the cooldown expires.
    const bool hi = d.utilization > cfg_.hiUtilization ||
        d.tardiness > cfg_.outTardiness;
    const double util_after = worstUtilization(
        sig, sig.capacityFractionAfterScaleIn);
    const bool lo = !hi && d.tardiness <= 1.0 &&
        sig.serving > cfg_.minNodes && util_after < cfg_.loUtilization;
    hiStreak_ = hi ? hiStreak_ + 1 : 0;
    loStreak_ = lo ? loStreak_ + 1 : 0;

    if (cooldown_ > 0) {
        --cooldown_;
        return d;
    }

    if (hiStreak_ >= cfg_.persistIntervals && sig.standby > 0) {
        d.kind = ScaleDecision::Kind::Out;
        d.count = std::min(cfg_.outStepNodes, sig.standby);
    } else if (loStreak_ >= cfg_.persistIntervals &&
               sig.serving > cfg_.minNodes) {
        d.kind = ScaleDecision::Kind::In;
        d.count = std::min(cfg_.inStepNodes, sig.serving - cfg_.minNodes);
    }
    if (d.kind != ScaleDecision::Kind::None) {
        cooldown_ = cfg_.cooldownIntervals;
        hiStreak_ = 0;
        loStreak_ = 0;
    }
    return d;
}

} // namespace twig::autoscale
