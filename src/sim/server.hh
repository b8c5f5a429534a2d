/**
 * @file
 * The simulated server node: hosts LC services, advances one control
 * interval at a time, and reports per-service telemetry (tail latency,
 * PMCs) plus socket power via the simulated RAPL register.
 *
 * This is the substrate the task managers (Twig and the baselines)
 * control; it stands in for the paper's Xeon E5-2695v4 testbed.
 */

#ifndef TWIG_SIM_SERVER_HH
#define TWIG_SIM_SERVER_HH

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/interference.hh"
#include "sim/loadgen.hh"
#include "sim/machine.hh"
#include "sim/pmc.hh"
#include "sim/power.hh"
#include "sim/queue_sim.hh"
#include "sim/service_profile.hh"

namespace twig::sim {

/** Telemetry for one service over one control interval. */
struct ServiceIntervalStats
{
    std::string name;
    double offeredRps = 0.0;
    double p99Ms = 0.0;
    /** Current-interval-only p99 (see QueueIntervalResult). */
    double p99InstantMs = 0.0;
    std::size_t completed = 0;
    std::size_t arrivals = 0;
    std::size_t dropped = 0;
    std::size_t queuedAtEnd = 0;
    /** Raw PMC values (Table I order). */
    PmcVector pmcs{};
    double busyCoreSeconds = 0.0;
    double effectiveCores = 0.0;
    double freqGhz = 0.0;
    /** Ground-truth dynamic power attributed to this service, W
     * (profiling aid for Eq. 2; NOT visible to Twig at runtime). */
    double attributedPowerW = 0.0;
};

/** Telemetry for the whole socket over one control interval. */
struct ServerIntervalStats
{
    std::size_t step = 0;
    std::vector<ServiceIntervalStats> services;
    /** Socket power over the interval (simulated RAPL), W. */
    double socketPowerW = 0.0;
    /** Cumulative socket energy since start, J. */
    double energyJoules = 0.0;
};

/** The simulated node. */
class Server
{
  public:
    Server(const MachineConfig &machine, std::uint64_t seed);

    const MachineConfig &machine() const { return machine_; }

    /** Host a new service; returns its index. */
    std::size_t addService(const ServiceProfile &profile,
                           std::unique_ptr<LoadGenerator> load);

    /** Swap the service at @p idx (transfer-learning experiments);
     * clears its backlog, keeps the slot index. */
    void replaceService(std::size_t idx, const ServiceProfile &profile,
                        std::unique_ptr<LoadGenerator> load);

    std::size_t numServices() const { return services_.size(); }
    const ServiceProfile &profile(std::size_t idx) const;

    /**
     * Advance one control interval with the given per-service core
     * assignments (same order as service indices).
     *
     * The returned reference points at a member scratch that the next
     * interval overwrites; copy it if you need it to persist.
     */
    const ServerIntervalStats &
    runInterval(const std::vector<CoreAssignment> &assignments);

    /** Stats of the most recent interval (same object runInterval
     * returns). */
    const ServerIntervalStats &lastStats() const { return stats_; }

    std::size_t step() const { return step_; }

    /**
     * Observer of raw per-request latencies: called once per service
     * per interval with the latencies (ms) of the requests that
     * started service in that interval, as a borrowed span (valid only
     * for the duration of the call — no copy is made for the sink).
     * Costs nothing when unset. The cluster layer uses this to fill
     * per-node histograms whose merge yields exact fleet-wide tail
     * latency (src/cluster).
     */
    using LatencySink = std::function<void(
        std::size_t svc_idx, const double *latencies_ms, std::size_t n)>;
    void setLatencySink(LatencySink sink) { latencySink_ = std::move(sink); }

  private:
    struct Hosted
    {
        ServiceProfile profile;
        std::unique_ptr<LoadGenerator> load;
        std::unique_ptr<RequestQueueSim> queue;
    };

    MachineConfig machine_;
    common::Rng rng_;
    InterferenceModel interference_;
    PmcModel pmcModel_;
    Rapl rapl_;
    std::vector<Hosted> services_;
    /** Per-service busy core-seconds observed in the previous
     * interval; drives the work-conserving shared-pool capacity
     * split. */
    std::vector<double> prevBusy_;
    std::size_t step_ = 0;
    LatencySink latencySink_;

    // Interval scratch, reused so steady-state intervals do not
    // allocate (see tests/test_alloc.cc).
    ServerIntervalStats stats_;
    std::vector<InterferenceDemand> demands_;
    std::vector<InterferenceEffect> effects_;
    std::vector<CorePowerState> cores_;
    std::vector<CoreAssignment> shaped_;
};

} // namespace twig::sim

#endif // TWIG_SIM_SERVER_HH
