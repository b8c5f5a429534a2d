/**
 * @file
 * The twig_serve daemon: a live, online Twig.
 *
 * Two threads around one fleet:
 *
 *   * the *event thread* runs the epoll Listener. It accepts client
 *     connections, parses Batch frames off the wire and accumulates
 *     their request counts into per-service atomic window counters,
 *     answers handshake/stats/bye frames, and acks every batch.
 *   * the *control thread* wakes every wall-clock control interval,
 *     snapshots-and-resets the window counters, converts counts to
 *     requests-per-second over the measured time since the previous
 *     snapshot (longer than the interval after an overrun), installs
 *     the rates, clamped to each service's fleet capacity, into the
 *     fleet's cluster::RoutedLoad generators and steps the
 *     ClusterManager one interval — so the per-node BDQ policies
 *     observe, act and learn online against measured load instead of
 *     a scripted profile.
 *
 * The fleet itself is exactly the one harness::buildFleet constructs
 * from the same ScenarioSpec the batch engine runs; only the load
 * source differs. The two threads share nothing but the atomic
 * counters, an atomic accepted-requests total, a mutex-guarded stats
 * snapshot and the shutdown flag — the policy hot path (inside
 * ClusterManager::step) runs single-threaded on the control thread,
 * oblivious to the network edge.
 *
 * Graceful shutdown (SIGINT/SIGTERM routed to requestShutdown(), or
 * the configured duration elapsing): the control thread finishes its
 * current interval and stops; the event thread stops accepting,
 * drains in-flight connections — buffered frames are parsed and
 * answered, queued acks are flushed — and closes them; join() then
 * writes node 0's BDQ as a checkpoint file (rl/checkpoint.hh, the
 * format twig_sim --checkpoint warm-starts a fleet from) and returns
 * the run summary. No mid-frame aborts.
 */

#ifndef TWIG_SERVE_DAEMON_HH
#define TWIG_SERVE_DAEMON_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node.hh"
#include "harness/engine.hh"
#include "harness/metrics.hh"
#include "harness/scenario.hh"
#include "serve/listener.hh"
#include "serve/protocol.hh"

namespace twig::serve {

/** Runtime options of one daemon instance (the experiment's identity
 * stays in the ScenarioSpec). */
struct DaemonOptions
{
    std::string listen = "127.0.0.1";
    /** 0 binds an ephemeral port; Daemon::port() reports it. */
    std::uint16_t port = 0;
    /** Wall-clock control-interval pacing. Each tick steps the fleet
     * one simulated control interval. */
    double intervalMs = 50.0;
    /** Stop after this much wall time (0 = run until
     * requestShutdown()). */
    double durationS = 0.0;
    /** Node-stepping threads inside ClusterManager. */
    std::size_t jobs = 1;
    /** Trailing summary window in intervals (0 = the spec's). */
    std::size_t windowIntervals = 0;
    /** Write node 0's final checkpoint here ("" = skip; needs a
     * TwigManager on node 0). */
    std::string finalCheckpoint;
};

/** Outcome of one daemon run (valid after join()). */
struct DaemonSummary
{
    /** Control intervals stepped. */
    std::size_t intervals = 0;
    /** Intervals the pacer started late because the previous step (or
     * the sleep before it) ran past their deadline; it re-anchors
     * instead of catching up. At most `intervals`. */
    std::size_t overruns = 0;
    /** Requests accepted off the wire over the whole run. */
    std::uint64_t acceptedRequests = 0;
    /** acceptedRequests / wall seconds. */
    double acceptedRps = 0.0;
    double wallSeconds = 0.0;
    /** Metrics over the trailing window of intervals. */
    harness::RunMetrics metrics;
    /** Raw (pre-clamp) observed RPS per service over the window:
     * arrivals over the measured wall time its intervals span. */
    std::vector<double> observedRps;
    /** Bytes of the final checkpoint file ("" path => 0). */
    std::size_t checkpointBytes = 0;
    ListenerStats listener;
};

/** The serving front-end around one scenario fleet. */
class Daemon : private FrameHandler
{
  public:
    /** @p spec must be a validated cluster-topology scenario. */
    Daemon(harness::ScenarioSpec spec, DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Build the fleet, bind the socket, start both threads. */
    void start();

    /** Bound port (valid after start()). */
    std::uint16_t port() const { return port_; }

    std::size_t numServices() const { return spec_.services.size(); }
    /** Effective fleet capacity per service, the clamp on the rate
     * the fleet sees (valid after start()). */
    const std::vector<double> &maxRps() const { return setup_.maxRps; }

    /** Ask both threads to wind down. Safe from any thread, and safe
     * to call more than once. */
    void requestShutdown();

    /** True once both threads have finished their loops. */
    bool finished() const;

    /** Wait for shutdown (or the configured duration), write the
     * final checkpoint, and summarise the run. */
    DaemonSummary join();

  private:
    void controlLoop();
    void eventLoop();
    bool onFrame(Connection &conn, const FrameView &frame) override;
    void writeFinalCheckpoint(DaemonSummary &summary);

    harness::ScenarioSpec spec_;
    DaemonOptions options_;

    harness::FleetSetup setup_;
    /** Borrowed from the fleet's load generators (owned there). */
    std::vector<cluster::RoutedLoad *> liveLoads_;
    std::unique_ptr<Listener> listener_;
    std::uint16_t port_ = 0;

    // --- cross-thread state -------------------------------------------
    /** Requests accepted since the last control tick, per service. */
    std::vector<std::atomic<std::uint64_t>> window_;
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<bool> stop_{false};
    std::atomic<bool> controlDone_{false};
    std::atomic<bool> eventDone_{false};

    /** Guards the stats snapshot served to clients. */
    mutable std::mutex statsMutex_;
    StatsMsg statsSnapshot_;

    // --- control-thread state -----------------------------------------
    /** Ring of the last windowIntervals interval outcomes. */
    struct IntervalRecord
    {
        std::vector<double> p99Ms;
        std::vector<double> observedRps;
        /** Measured wall time the arrival counts span, seconds. */
        double windowS = 0.0;
        double powerW = 0.0;
    };
    std::vector<IntervalRecord> ring_;
    std::size_t ringNext_ = 0;
    std::size_t ringFill_ = 0;
    std::size_t intervals_ = 0;
    std::size_t overruns_ = 0;
    double wallSeconds_ = 0.0;

    std::thread controlThread_;
    std::thread eventThread_;
    bool started_ = false;
    bool joined_ = false;

    /** Event-thread scratch for encoded replies. */
    std::string replyScratch_;
};

} // namespace twig::serve

#endif // TWIG_SERVE_DAEMON_HH
