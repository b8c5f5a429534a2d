/**
 * @file
 * FNV-1a fingerprints of simulator telemetry, for golden runs.
 *
 * A fixed-seed run on a fixed schedule folds every interval into one
 * 64-bit hash, which a test compares against a recorded constant.
 * hashServerStats covers every field of ServerIntervalStats (socket
 * power and energy; per service the name, offered load, both p99s,
 * request counts, busy core-seconds, effective cores, frequency,
 * attributed power and every PMC), so a changed constant means some
 * reported bit changed.
 * Doubles are hashed by their bytes: -0.0 and 0.0 differ, NaN is
 * stable.
 */

#ifndef TWIG_ORACLE_GOLDEN_HASH_HH
#define TWIG_ORACLE_GOLDEN_HASH_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/cluster_manager.hh"
#include "common/hash.hh"
#include "sim/server.hh"

namespace twig::oracle {

inline std::uint64_t
hashDouble(double v, std::uint64_t h)
{
    return common::fnv1a(&v, sizeof(v), h);
}

inline std::uint64_t
hashDoubles(const std::vector<double> &v, std::uint64_t h)
{
    for (double x : v)
        h = hashDouble(x, h);
    return h;
}

/** One server interval: every field of ServerIntervalStats. */
inline std::uint64_t
hashServerStats(const sim::ServerIntervalStats &s,
                std::uint64_t h = common::kFnvOffsetBasis)
{
    h = common::fnv1aValue(s.step, h);
    h = hashDouble(s.socketPowerW, h);
    h = hashDouble(s.energyJoules, h);
    for (const auto &svc : s.services) {
        h = common::fnv1a(svc.name.data(), svc.name.size(), h);
        h = hashDouble(svc.offeredRps, h);
        h = hashDouble(svc.p99Ms, h);
        h = hashDouble(svc.p99InstantMs, h);
        h = common::fnv1aValue(svc.completed, h);
        h = common::fnv1aValue(svc.arrivals, h);
        h = common::fnv1aValue(svc.dropped, h);
        h = common::fnv1aValue(svc.queuedAtEnd, h);
        h = hashDouble(svc.busyCoreSeconds, h);
        h = hashDouble(svc.effectiveCores, h);
        h = hashDouble(svc.freqGhz, h);
        h = hashDouble(svc.attributedPowerW, h);
        for (double pmc : svc.pmcs)
            h = hashDouble(pmc, h);
    }
    return h;
}

/**
 * Streaming fingerprint of a fleet run: per interval the fleet-level
 * outcome (step, offered RPS, fleet p99, power, shed RPS), then every
 * node's ServerIntervalStats as of that node's last powered interval
 * (default-constructed before its first), read live from the fleet.
 * Feed it every interval while that interval's node telemetry is
 * current: pass onStep() to ClusterManager::run, or call add() right
 * after step(). It keeps one stats copy per node, so an unpowered
 * slot hashes what it last reported.
 */
class FleetHasher
{
  public:
    explicit FleetHasher(cluster::ClusterManager &fleet) : fleet_(fleet) {}
    FleetHasher(const FleetHasher &) = delete;
    FleetHasher &operator=(const FleetHasher &) = delete;

    void
    add(const cluster::FleetIntervalStats &f)
    {
        h_ = common::fnv1aValue(f.step, h_);
        h_ = hashDoubles(f.offeredRps, h_);
        h_ = hashDoubles(f.fleetP99Ms, h_);
        h_ = hashDouble(f.totalPowerW, h_);
        h_ = hashDouble(f.shedRps, h_);
        last_.resize(fleet_.numNodes());
        for (std::size_t n = 0; n < last_.size(); ++n) {
            if (f.nodeUp[n] != 0)
                last_[n] = fleet_.node(n).lastStats();
            h_ = hashServerStats(last_[n], h_);
        }
    }

    /** A ClusterManager::run observer feeding add(); it refers to
     * this hasher, which must outlive the run. */
    auto
    onStep()
    {
        return [this](std::size_t, const cluster::FleetIntervalStats &f) {
            add(f);
        };
    }

    /** The intervals added so far. */
    std::uint64_t digest() const { return h_; }

    /** The whole run: every interval added, then @p r's summary
     * metrics. */
    std::uint64_t
    run(const cluster::FleetRunResult &r) const
    {
        std::uint64_t h = h_;
        h = hashDoubles(r.metrics.windowP99Ms, h);
        h = hashDoubles(r.metrics.qosGuaranteePct, h);
        h = hashDouble(r.metrics.meanPowerW, h);
        h = hashDouble(r.metrics.energyJoules, h);
        return h;
    }

  private:
    cluster::ClusterManager &fleet_;
    std::vector<sim::ServerIntervalStats> last_;
    std::uint64_t h_ = common::kFnvOffsetBasis;
};

/** A fleet run with faults or elastic sizing: @p hasher's run(), then
 * per interval of the trace the slot lifecycle (nodeUp, servingNodes,
 * drainingNodes, the cumulative bill) and every fault and scale event
 * it fired, all fields. */
inline std::uint64_t
hashFleetLifecycleRun(const FleetHasher &hasher,
                      const cluster::FleetRunResult &r)
{
    std::uint64_t h = hasher.run(r);
    for (const auto &f : r.trace) {
        h = common::fnv1a(f.nodeUp.data(), f.nodeUp.size(), h);
        h = common::fnv1aValue(f.servingNodes, h);
        h = common::fnv1aValue(f.drainingNodes, h);
        h = hashDouble(f.costDollars, h);
        for (const auto &ev : f.faultEvents) {
            h = common::fnv1aValue(ev.step, h);
            h = common::fnv1aValue(static_cast<std::uint64_t>(ev.kind), h);
            h = common::fnv1aValue(static_cast<std::uint64_t>(ev.node), h);
            h = common::fnv1aValue(static_cast<std::uint64_t>(ev.service),
                                   h);
            h = hashDouble(ev.value, h);
            h = hashDouble(ev.aux, h);
            h = common::fnv1aValue(ev.seed, h);
            h = common::fnv1a(ev.note.data(), ev.note.size(), h);
        }
        for (const auto &ev : f.scaleEvents) {
            h = common::fnv1aValue(ev.step, h);
            h = common::fnv1aValue(static_cast<std::uint64_t>(ev.kind), h);
            h = common::fnv1aValue(ev.node, h);
            h = hashDouble(ev.utilization, h);
            h = hashDouble(ev.tardiness, h);
        }
    }
    return h;
}

} // namespace twig::oracle

#endif // TWIG_ORACLE_GOLDEN_HASH_HH
