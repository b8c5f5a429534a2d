/**
 * @file
 * Hardware description of the simulated server node.
 *
 * Mirrors the paper's testbed: a dual-socket Intel Xeon E5-2695v4 node,
 * 18 cores per socket, per-core DVFS from 1.2 GHz to 2.0 GHz in 0.1 GHz
 * steps, socket-level RAPL power. Clients run on socket 0 (loopback
 * configuration), LC services on socket 1, so task managers control the
 * 18 server-socket cores.
 */

#ifndef TWIG_SIM_MACHINE_HH
#define TWIG_SIM_MACHINE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/error.hh"

namespace twig::sim {

/** The measured tail latency reported each interval, on one node and
 * merged over a fleet, is the p99 over the last this-many intervals'
 * completions (the log-file interface of §IV aggregates over a short
 * trailing window; single-interval p99 at ~1k RPS is a noisy order
 * statistic). */
inline constexpr std::size_t kQosWindowIntervals = 3;

/** Discrete DVFS ladder (paper: 1.2 .. 2.0 GHz in 0.1 GHz steps). */
struct DvfsLadder
{
    double minGhz = 1.2;
    double maxGhz = 2.0;
    double stepGhz = 0.1;

    /** Number of discrete DVFS states. */
    std::size_t
    numStates() const
    {
        return static_cast<std::size_t>(
                   (maxGhz - minGhz) / stepGhz + 0.5) + 1;
    }

    /** Frequency of DVFS state @p idx (0 = lowest). */
    double
    freq(std::size_t idx) const
    {
        common::fatalIf(idx >= numStates(), "DVFS index out of range");
        return minGhz + static_cast<double>(idx) * stepGhz;
    }

    /** Index of the highest DVFS state. */
    std::size_t maxIndex() const { return numStates() - 1; }
};

/** Physical parameters of the simulated server socket. */
struct MachineConfig
{
    /** Cores available to LC services (one socket). */
    std::size_t numCores = 18;
    DvfsLadder dvfs;

    /** Sustainable memory bandwidth of the socket, MB/s. */
    double memBandwidthMBs = 60000.0;
    /** Last-level cache size, MB (E5-2695v4: 45 MB). */
    double llcSizeMB = 45.0;

    // --- Power model ground truth -------------------------------------
    /** Uncore + package power when the socket idles, W. */
    double uncorePowerW = 22.0;
    /** Per-core leakage at the lowest DVFS state, W. Active cores on
     * server parts leak substantially; parking unused cores at the
     * lowest state is where much of a task manager's saving comes
     * from. */
    double coreLeakBaseW = 0.7;
    /** Leakage slope per GHz above the lowest state, W/GHz (leakage
     * tracks the voltage the DVFS state demands). */
    double coreLeakPerGhzW = 1.3;
    /** Dynamic power follows P_dyn = coeff * V(f)^2 * f * utilisation
     * with a linear voltage/frequency curve V(f) = v0 + v1 * f,
     * normalised so V(maxGhz) = 1. A fully-busy core at max DVFS burns
     * coeff * maxGhz watts. */
    double dynPowerCoeffW = 2.65;
    double voltageV0 = 0.6;
    double voltagePerGhz = 0.2;

    /** Control/monitoring interval, seconds (paper: 1 s). */
    double intervalSeconds = 1.0;

    /** Per-core service-rate multiplier relative to the reference part
     * (1.0 = the paper's E5-2695v4). A mixed-generation fleet models a
     * newer node as > 1 (same ladder, higher IPC: service times shrink
     * by this factor at every DVFS point) and a wimpier class as < 1.
     * Ground truth only — managers still adapt from telemetry. */
    double serviceRateScale = 1.0;

    /** Serving capacity, cores x peak GHz x rate scale: the unit the
     * routers weigh nodes by and fleet loads scale with. */
    double
    capacity() const
    {
        return static_cast<double>(numCores) * dvfs.maxGhz *
            serviceRateScale;
    }
};

/** Concrete per-service core assignment produced by a mapper. */
struct CoreAssignment
{
    /** Core IDs granted exclusively to this service. */
    std::vector<std::size_t> dedicatedCores;
    /** Core IDs time-shared with other services (arbitration, §IV). */
    std::vector<std::size_t> sharedCores;
    /** Number of services sharing each shared core. */
    std::size_t shareCount = 1;
    /** Operating frequency of this service's dedicated cores, GHz. */
    double freqGhz = 2.0;
    /** Frequency of the time-shared cores (arbitration picks the highest
     * requested DVFS state among the sharers, paper §IV). */
    double sharedFreqGhz = 2.0;
    /** Work-conserving time-sharing: requests run at full speed on
     * whichever pool cores are free, so co-runners cost *capacity*,
     * not per-request speed. The server sets this to the number of
     * pool cores effectively usable by this service (pool size minus
     * the co-runners' demand, with a fair-share floor), estimated from
     * the previous interval. Defaults to the full pool. */
    double sharedUsableCores = -1.0;

    /** Usable shared capacity (negative sentinel = whole pool). */
    double
    usableSharedCores() const
    {
        const auto size = static_cast<double>(sharedCores.size());
        if (sharedUsableCores < 0.0)
            return size;
        return std::min(sharedUsableCores, size);
    }

    /** Effective parallelism: dedicated cores plus the usable share of
     * the time-shared pool. */
    double
    effectiveCores() const
    {
        return static_cast<double>(dedicatedCores.size()) +
            usableSharedCores();
    }

    std::size_t
    totalCoreIds() const
    {
        return dedicatedCores.size() + sharedCores.size();
    }
};

} // namespace twig::sim

#endif // TWIG_SIM_MACHINE_HH
