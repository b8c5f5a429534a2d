#include "serve/daemon.hh"

#include <algorithm>
#include <chrono>

#include "common/error.hh"
#include "core/twig_manager.hh"
#include "sim/machine.hh"

namespace twig::serve {

using clock = std::chrono::steady_clock;

/** Connection-drain budget at shutdown. */
constexpr int kDrainMs = 250;

Daemon::Daemon(harness::ScenarioSpec spec, DaemonOptions options)
    : spec_(std::move(spec)), options_(std::move(options))
{
    common::fatalIf(spec_.topology != "cluster",
                    "twig_serve: scenario '", spec_.name,
                    "' uses the ", spec_.topology,
                    " topology; serving needs a cluster");
    common::fatalIf(options_.intervalMs <= 0.0,
                    "twig_serve: interval must be positive");
    const std::string err =
        spec_.validate(harness::ManagerRegistry::builtin());
    common::fatalIf(!err.empty(), "twig_serve: scenario '", spec_.name,
                    "': ", err);
}

Daemon::~Daemon()
{
    if (started_ && !joined_) {
        requestShutdown();
        if (controlThread_.joinable())
            controlThread_.join();
        if (eventThread_.joinable())
            eventThread_.join();
    }
}

void
Daemon::start()
{
    common::fatalIf(started_, "Daemon::start: already started");
    started_ = true;

    // The exact fleet the batch engine would run, with one RoutedLoad
    // per service as the load source: the control loop sets each to
    // the rate measured on the wire.
    std::vector<std::unique_ptr<sim::LoadGenerator>> loads;
    liveLoads_.clear();
    for (std::size_t s = 0; s < numServices(); ++s) {
        auto live = std::make_unique<cluster::RoutedLoad>();
        liveLoads_.push_back(live.get());
        loads.push_back(std::move(live));
    }
    setup_ = harness::buildFleet(spec_, harness::ManagerRegistry::builtin(),
                                 options_.jobs, std::move(loads));

    window_ = std::vector<std::atomic<std::uint64_t>>(numServices());
    for (auto &w : window_)
        w.store(0, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        statsSnapshot_.step = 0;
        statsSnapshot_.powerW = 0.0;
        statsSnapshot_.offeredRps.assign(numServices(), 0.0);
        statsSnapshot_.p99Ms.assign(numServices(), 0.0);
    }

    const std::size_t window_intervals = options_.windowIntervals
        ? options_.windowIntervals
        : spec_.resolvedWindow();
    ring_.assign(std::max<std::size_t>(window_intervals, 1),
                 IntervalRecord{});

    // Not make_unique: the private-base conversion to FrameHandler is
    // only accessible from inside a Daemon member.
    listener_.reset(new Listener(*this));
    listener_->open(options_.listen, options_.port);
    port_ = listener_->port();

    controlThread_ = std::thread([this] { controlLoop(); });
    eventThread_ = std::thread([this] { eventLoop(); });
}

void
Daemon::requestShutdown()
{
    stop_.store(true, std::memory_order_release);
    if (listener_)
        listener_->wake();
}

bool
Daemon::finished() const
{
    return controlDone_.load(std::memory_order_acquire) &&
        eventDone_.load(std::memory_order_acquire);
}

void
Daemon::controlLoop()
{
    const auto interval = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double, std::milli>(options_.intervalMs));
    const double interval_s = options_.intervalMs * 1e-3;
    const std::size_t max_intervals = options_.durationS > 0.0
        ? static_cast<std::size_t>(options_.durationS / interval_s + 0.5)
        : 0;

    const auto started = clock::now();
    auto next = started + interval;
    auto last_exchange = started;
    while (!stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_until(next);
        if (stop_.load(std::memory_order_acquire))
            break;
        next += interval;
        // A slow interval (fleet step > pacing) must not spiral into
        // a burst of zero-sleep catch-up steps: re-anchor instead, and
        // count the overrun.
        if (next < clock::now()) {
            next = clock::now() + interval;
            ++overruns_;
        }

        // The window is the measured time since the last exchange, not
        // the nominal interval: after an overrun re-anchors the pacer
        // it spans the slow step too.
        const auto now = clock::now();
        const double window_s =
            std::chrono::duration<double>(now - last_exchange).count();
        last_exchange = now;
        IntervalRecord &rec = ring_[ringNext_];
        rec.windowS = window_s;
        rec.observedRps.resize(numServices());
        for (std::size_t s = 0; s < numServices(); ++s) {
            const std::uint64_t count =
                window_[s].exchange(0, std::memory_order_relaxed);
            const double observed =
                static_cast<double>(count) / window_s;
            rec.observedRps[s] = observed;
            // Load beyond capacity saturates the simulated service like
            // a real overload, and keeps the step's cost bounded.
            liveLoads_[s]->set(std::min(observed, setup_.maxRps[s]));
        }

        const auto &fs = setup_.fleet->step();
        ++intervals_;
        rec.p99Ms = fs.fleetP99Ms;
        rec.powerW = fs.totalPowerW;
        ringNext_ = (ringNext_ + 1) % ring_.size();
        ringFill_ = std::min(ringFill_ + 1, ring_.size());

        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            statsSnapshot_.step = fs.step;
            statsSnapshot_.powerW = fs.totalPowerW;
            statsSnapshot_.offeredRps = fs.offeredRps;
            statsSnapshot_.p99Ms = fs.fleetP99Ms;
        }

        if (max_intervals != 0 && intervals_ >= max_intervals) {
            requestShutdown();
            break;
        }
    }
    wallSeconds_ =
        std::chrono::duration<double>(clock::now() - started).count();
    controlDone_.store(true, std::memory_order_release);
    // The event thread may be parked in epoll_wait: make sure it
    // notices a duration-triggered shutdown promptly.
    if (listener_)
        listener_->wake();
}

void
Daemon::eventLoop()
{
    while (!stop_.load(std::memory_order_acquire))
        listener_->poll(200);
    // Graceful drain: answer what already arrived, flush, close.
    listener_->drainAndClose(kDrainMs);
    eventDone_.store(true, std::memory_order_release);
}

bool
Daemon::onFrame(Connection &conn, const FrameView &frame)
{
    replyScratch_.clear();
    switch (frame.type) {
    case FrameType::Hello: {
        HelloMsg hello;
        if (!decodeHello(frame, hello) ||
            hello.version != kProtocolVersion)
            return false;
        HelloAckMsg ack;
        ack.numServices =
            static_cast<std::uint32_t>(numServices());
        ack.intervalMs = options_.intervalMs;
        encodeHelloAck(replyScratch_, ack);
        conn.send(replyScratch_);
        return true;
    }
    case FrameType::Batch: {
        BatchMsg batch;
        if (!decodeBatch(frame, batch) ||
            batch.service >= numServices())
            return false;
        window_[batch.service].fetch_add(batch.count,
                                         std::memory_order_relaxed);
        const std::uint64_t total =
            accepted_.fetch_add(batch.count,
                                std::memory_order_relaxed) +
            batch.count;
        BatchAckMsg ack;
        ack.tag = batch.tag;
        ack.totalAccepted = total;
        encodeBatchAck(replyScratch_, ack);
        conn.send(replyScratch_);
        return true;
    }
    case FrameType::StatsReq: {
        if (frame.size != 0)
            return false;
        StatsMsg stats;
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            stats = statsSnapshot_;
        }
        encodeStats(replyScratch_, stats);
        conn.send(replyScratch_);
        return true;
    }
    case FrameType::Bye: {
        if (frame.size != 0)
            return false;
        encodeByeAck(replyScratch_);
        conn.send(replyScratch_);
        conn.closeAfterFlush();
        return true;
    }
    default:
        // Server-to-client types are protocol errors when sent by a
        // client.
        return false;
    }
}

void
Daemon::writeFinalCheckpoint(DaemonSummary &summary)
{
    if (options_.finalCheckpoint.empty())
        return;
    auto *twig = dynamic_cast<core::TwigManager *>(
        &setup_.fleet->node(0).manager());
    common::fatalIf(twig == nullptr,
                    "twig_serve: --final-checkpoint needs a "
                    "TwigManager on node 0 (manager is '",
                    spec_.manager, "')");
    summary.checkpointBytes = twig->saveCheckpoint(options_.finalCheckpoint);
}

DaemonSummary
Daemon::join()
{
    common::fatalIf(!started_, "Daemon::join: not started");
    common::fatalIf(joined_, "Daemon::join: already joined");
    joined_ = true;
    if (controlThread_.joinable())
        controlThread_.join();
    if (eventThread_.joinable())
        eventThread_.join();

    DaemonSummary summary;
    summary.intervals = intervals_;
    summary.overruns = overruns_;
    summary.acceptedRequests =
        accepted_.load(std::memory_order_relaxed);
    summary.wallSeconds = wallSeconds_;
    summary.acceptedRps = wallSeconds_ > 0.0
        ? static_cast<double>(summary.acceptedRequests) / wallSeconds_
        : 0.0;
    summary.listener = listener_->stats();

    // Trailing-window metrics over the interval ring, oldest first.
    std::vector<std::string> names;
    std::vector<double> targets;
    for (const auto &p : setup_.profiles) {
        names.push_back(p.name);
        targets.push_back(p.qosTargetMs);
    }
    harness::MetricsAccumulator acc(names, targets);
    const double interval_s = sim::MachineConfig{}.intervalSeconds;
    summary.observedRps.assign(numServices(), 0.0);
    // Weighted by each interval's measured window, so a short interval
    // counts for no more than the arrivals it saw.
    double window_s = 0.0;
    const std::size_t fill = ringFill_;
    for (std::size_t i = 0; i < fill; ++i) {
        const std::size_t idx =
            (ringNext_ + ring_.size() - fill + i) % ring_.size();
        const IntervalRecord &rec = ring_[idx];
        acc.add(rec.p99Ms, rec.powerW, interval_s);
        window_s += rec.windowS;
        for (std::size_t s = 0; s < numServices(); ++s)
            summary.observedRps[s] += rec.observedRps[s] * rec.windowS;
    }
    if (window_s > 0.0) {
        for (auto &rps : summary.observedRps)
            rps /= window_s;
    }
    summary.metrics = acc.finish();

    writeFinalCheckpoint(summary);
    return summary;
}

} // namespace twig::serve
