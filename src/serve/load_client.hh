/**
 * @file
 * LoadClient: the multi-connection open-loop load generator behind
 * tools/twig_loadgen and bench/fig_serve.
 *
 * One thread per connection, each running an independent open-loop
 * arrival process against the twig_serve daemon: every batch tick
 * (default 1 ms) the thread converts its per-service RPS share into a
 * request count through a deterministic carry accumulator (rate *
 * tick seconds, fractional remainders carried — the long-run rate is
 * exact without a random-number stream) and sends one Batch frame per
 * service with a count; until the next tick it waits on the socket and
 * reads each ack as it arrives. Open-loop means the send schedule
 * never waits for acks — a slow server inflates measured ack RTT
 * instead of silently deflating offered load, which is the property
 * client-side tail measurement needs.
 *
 * Ack RTT is measured per Batch frame: each connection keeps a FIFO
 * of (tag, send time); BatchAck tags must come back in order (the
 * server answers frames in order on a TCP stream) and the delta goes
 * into a per-connection latency histogram. Histograms merge at the
 * end (stats::Histogram::merge) for client-side p50/p99 across all
 * connections. Connection 0 additionally polls server Stats frames so
 * a report can show both sides of the wire.
 */

#ifndef TWIG_SERVE_LOAD_CLIENT_HH
#define TWIG_SERVE_LOAD_CLIENT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hh"
#include "stats/histogram.hh"

namespace twig::serve {

/** One load-generation run's parameters. */
struct LoadClientOptions
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Concurrent TCP connections (one thread each). */
    std::size_t connections = 8;
    /** Total offered request rate across all connections, split
     * evenly over the daemon's services (the handshake reports how
     * many there are). */
    double rps = 100000.0;
    /** Wall-clock run length. */
    double durationS = 1.0;
    /** Open-loop batch tick. Smaller = smoother arrivals, more
     * frames. */
    double batchMs = 1.0;
    /** Poll a server Stats frame roughly this often on connection 0
     * (0 = never). */
    double statsIntervalS = 0.25;
    /** Upper edge of the ack-RTT histogram, microseconds. */
    double rttHistMaxUs = 50000.0;
};

/** Outcome of one load-generation run. */
struct LoadClientReport
{
    /** Requests offered (sum of Batch counts sent). */
    std::uint64_t sent = 0;
    /** Requests acknowledged (sum of counts whose BatchAck arrived). */
    std::uint64_t acked = 0;
    /** Batch frames sent / acks received, all connections. */
    std::uint64_t batchFrames = 0;
    std::uint64_t ackFrames = 0;
    double wallSeconds = 0.0;
    /** sent / wallSeconds. */
    double offeredRps = 0.0;
    /** acked / wallSeconds. */
    double ackedRps = 0.0;
    /** Client-side ack round-trip quantiles, microseconds. */
    double rttP50Us = 0.0;
    double rttP99Us = 0.0;
    /** Connections that failed (connect/handshake/socket error). */
    std::size_t failedConnections = 0;
    std::vector<std::string> errors;
    /** Services the daemon's handshake reported. */
    std::size_t numServices = 0;
    /** Last server Stats frame seen (step == 0 when never polled). */
    StatsMsg serverStats;
    bool haveServerStats = false;
};

/** Drive @p options against a live daemon and report. Blocks for the
 * run's duration. Thread-safe to run multiple instances at once. */
LoadClientReport runLoadClient(const LoadClientOptions &options);

} // namespace twig::serve

#endif // TWIG_SERVE_LOAD_CLIENT_HH
