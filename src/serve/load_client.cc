#include "serve/load_client.hh"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

namespace twig::serve {

namespace {

using clock = std::chrono::steady_clock;

/** Everything one connection thread produces. */
struct ConnResult
{
    std::uint64_t sent = 0;
    std::uint64_t acked = 0;
    std::uint64_t batchFrames = 0;
    std::uint64_t ackFrames = 0;
    stats::Histogram rttUs;
    std::size_t numServices = 0;
    StatsMsg serverStats;
    bool haveServerStats = false;
    bool failed = false;
    std::string error;

    explicit ConnResult(double hist_max_us)
        : rttUs(0.0, hist_max_us, 2048)
    {
    }
};

int
connectTo(const std::string &host, std::uint16_t port,
          std::string &error)
{
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    const std::string portstr = std::to_string(port);
    const int rc = getaddrinfo(host.c_str(), portstr.c_str(), &hints,
                               &res);
    if (rc != 0) {
        error = std::string("getaddrinfo: ") + gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family,
                      ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd < 0) {
        error = std::string("connect: ") + std::strerror(errno);
        return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
}

bool
sendAll(int fd, const std::string &buf, std::string &error)
{
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t n = ::send(fd, buf.data() + off,
                                 buf.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            error = std::string("send: ") + std::strerror(errno);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

/** In-flight Batch bookkeeping for RTT matching (acks are FIFO on a
 * TCP stream: the server answers frames in arrival order). */
struct Inflight
{
    std::uint64_t tag;
    std::uint64_t count;
    clock::time_point sentAt;
};

/** One connection's whole lifetime: connect, handshake, open-loop
 * send until @p deadline, Bye, drain, close. */
void
runConnection(const LoadClientOptions &options, std::size_t index,
              clock::time_point start, clock::time_point deadline,
              ConnResult &out)
{
    std::string error;
    const int fd = connectTo(options.host, options.port, error);
    if (fd < 0) {
        out.failed = true;
        out.error = error;
        return;
    }

    FrameParser parser(kDefaultMaxBody);
    std::string wire;
    std::deque<Inflight> inflight;
    char rbuf[64 * 1024];
    bool sawByeAck = false;

    // Parse whatever is buffered; returns false on protocol error or
    // an unexpected frame.
    auto handleFrames = [&](bool &got_hello_ack,
                            HelloAckMsg &hello_ack) -> bool {
        FrameView frame;
        FrameParser::Status st;
        while ((st = parser.next(frame)) == FrameParser::Status::Frame) {
            switch (frame.type) {
            case FrameType::HelloAck:
                if (!decodeHelloAck(frame, hello_ack))
                    return false;
                got_hello_ack = true;
                break;
            case FrameType::BatchAck: {
                BatchAckMsg ack;
                if (!decodeBatchAck(frame, ack) || inflight.empty() ||
                    inflight.front().tag != ack.tag)
                    return false;
                const Inflight &sent = inflight.front();
                const double rtt_us =
                    std::chrono::duration<double, std::micro>(
                        clock::now() - sent.sentAt)
                        .count();
                out.rttUs.add(rtt_us);
                out.acked += sent.count;
                ++out.ackFrames;
                inflight.pop_front();
                break;
            }
            case FrameType::Stats: {
                StatsMsg stats;
                if (!decodeStats(frame, stats))
                    return false;
                out.serverStats = stats;
                out.haveServerStats = true;
                break;
            }
            case FrameType::ByeAck:
                if (frame.size != 0)
                    return false;
                sawByeAck = true;
                break;
            default:
                return false;
            }
        }
        return st != FrameParser::Status::Error;
    };

    auto drain = [&](bool block, bool &got_hello_ack,
                     HelloAckMsg &hello_ack) -> bool {
        for (;;) {
            const ssize_t n = ::recv(fd, rbuf, sizeof(rbuf),
                                     block ? 0 : MSG_DONTWAIT);
            if (n > 0) {
                parser.append(rbuf, static_cast<std::size_t>(n));
                if (!handleFrames(got_hello_ack, hello_ack)) {
                    out.error = "protocol error from server";
                    return false;
                }
                if (block)
                    return true; // one blocking read per call
                continue;
            }
            if (n == 0) {
                out.error = "server closed connection";
                return false;
            }
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return !block;
            if (errno == EINTR)
                continue;
            out.error = std::string("recv: ") + std::strerror(errno);
            return false;
        }
    };

    bool got_hello_ack = false;
    HelloAckMsg hello_ack;
    encodeHello(wire, HelloMsg{});
    bool ok = sendAll(fd, wire, out.error);
    while (ok && !got_hello_ack)
        ok = drain(/*block=*/true, got_hello_ack, hello_ack);
    if (!ok || hello_ack.numServices == 0) {
        if (out.error.empty())
            out.error = "handshake reported zero services";
        out.failed = true;
        ::close(fd);
        return;
    }
    out.numServices = hello_ack.numServices;
    const std::size_t services = hello_ack.numServices;

    const double tick_s = options.batchMs * 1e-3;
    const auto tick = std::chrono::duration_cast<clock::duration>(
        std::chrono::duration<double>(tick_s));
    const double per_service_rps = options.rps /
        static_cast<double>(options.connections) /
        static_cast<double>(services);

    std::vector<double> carry(services, 0.0);
    std::uint64_t next_tag = index << 32; // per-connection tag space
    auto next_tick = start + tick;
    auto next_stats = options.statsIntervalS > 0.0 && index == 0
        ? start + std::chrono::duration_cast<clock::duration>(
                      std::chrono::duration<double>(
                          options.statsIntervalS))
        : clock::time_point::max();

    // Wait for the next tick on the socket, so an ack is read — and its
    // RTT taken — when it arrives rather than at the next send.
    auto wait_for_tick = [&]() -> bool {
        for (;;) {
            const auto left = next_tick - clock::now();
            if (left <= clock::duration::zero())
                return true;
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(left)
                    .count();
            const timespec timeout{static_cast<time_t>(ns / 1000000000),
                                   static_cast<long>(ns % 1000000000)};
            pollfd pfd{fd, POLLIN, 0};
            const int rc = ::ppoll(&pfd, 1, &timeout, nullptr);
            if (rc < 0 && errno != EINTR) {
                out.error = std::string("poll: ") + std::strerror(errno);
                return false;
            }
            if (rc > 0 && !drain(/*block=*/false, got_hello_ack, hello_ack))
                return false;
        }
    };

    while (ok) {
        ok = wait_for_tick();
        const auto now = clock::now();
        if (!ok || now >= deadline)
            break;
        next_tick += tick;
        if (next_tick < now)
            next_tick = now + tick;

        wire.clear();
        for (std::size_t s = 0; s < services; ++s) {
            carry[s] += per_service_rps * tick_s;
            const double whole = std::floor(carry[s]);
            if (whole < 1.0)
                continue;
            carry[s] -= whole;
            BatchMsg batch;
            batch.tag = next_tag++;
            batch.service = static_cast<std::uint32_t>(s);
            batch.count = static_cast<std::uint64_t>(whole);
            encodeBatch(wire, batch);
            inflight.push_back({batch.tag, batch.count, now});
            out.sent += batch.count;
            ++out.batchFrames;
        }
        if (now >= next_stats) {
            encodeStatsReq(wire);
            next_stats = now +
                std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(
                        options.statsIntervalS));
        }
        if (!wire.empty())
            ok = sendAll(fd, wire, out.error);
    }

    if (ok) {
        wire.clear();
        encodeBye(wire);
        ok = sendAll(fd, wire, out.error);
        // Bounded wait for the ByeAck (and trailing acks): the server
        // answers in order, so ByeAck is the last frame.
        timeval tv{};
        tv.tv_usec = 200 * 1000;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
        const auto give_up = clock::now() + std::chrono::seconds(1);
        while (ok && !sawByeAck && clock::now() < give_up) {
            if (!drain(/*block=*/true, got_hello_ack, hello_ack))
                break;
        }
    }
    out.failed = !ok;
    ::close(fd);
}

} // namespace

LoadClientReport
runLoadClient(const LoadClientOptions &options)
{
    LoadClientReport report;
    if (options.connections == 0 || options.port == 0 ||
        options.durationS <= 0.0 || options.batchMs <= 0.0) {
        report.failedConnections = options.connections;
        report.errors.push_back("invalid load client options");
        return report;
    }

    std::vector<ConnResult> results;
    results.reserve(options.connections);
    for (std::size_t i = 0; i < options.connections; ++i)
        results.emplace_back(options.rttHistMaxUs);

    const auto start = clock::now();
    const auto deadline = start +
        std::chrono::duration_cast<clock::duration>(
            std::chrono::duration<double>(options.durationS));

    std::vector<std::thread> threads;
    threads.reserve(options.connections);
    for (std::size_t i = 0; i < options.connections; ++i) {
        threads.emplace_back([&, i] {
            runConnection(options, i, start, deadline, results[i]);
        });
    }
    for (auto &t : threads)
        t.join();
    report.wallSeconds =
        std::chrono::duration<double>(clock::now() - start).count();

    stats::Histogram rtt(0.0, options.rttHistMaxUs, 2048);
    for (std::size_t i = 0; i < results.size(); ++i) {
        const ConnResult &r = results[i];
        report.sent += r.sent;
        report.acked += r.acked;
        report.batchFrames += r.batchFrames;
        report.ackFrames += r.ackFrames;
        rtt.merge(r.rttUs);
        report.numServices = std::max(report.numServices,
                                      r.numServices);
        if (r.haveServerStats &&
            (!report.haveServerStats ||
             r.serverStats.step > report.serverStats.step)) {
            report.serverStats = r.serverStats;
            report.haveServerStats = true;
        }
        if (r.failed) {
            ++report.failedConnections;
            report.errors.push_back("connection " + std::to_string(i) +
                                    ": " + r.error);
        }
    }
    if (report.wallSeconds > 0.0) {
        report.offeredRps =
            static_cast<double>(report.sent) / report.wallSeconds;
        report.ackedRps =
            static_cast<double>(report.acked) / report.wallSeconds;
    }
    if (rtt.count() > 0) {
        report.rttP50Us = rtt.quantile(0.50);
        report.rttP99Us = rtt.quantile(0.99);
    }
    return report;
}

} // namespace twig::serve
