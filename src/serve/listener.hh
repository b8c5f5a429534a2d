/**
 * @file
 * Epoll-based TCP front-end: a nonblocking listening socket plus N
 * framed connections, all serviced by one event-loop thread.
 *
 * The Listener owns the epoll instance, the listening socket, a
 * wakeup eventfd (so another thread can interrupt a blocked poll())
 * and every live Connection. Each readable connection's bytes are fed
 * through its strict FrameParser and complete frames are handed to a
 * FrameHandler; the handler replies by appending frames to the
 * connection's output buffer, which the loop flushes opportunistically
 * and via EPOLLOUT under backpressure. A protocol error (or a handler
 * returning false) drops the connection — no resynchronisation.
 *
 * Threading: every method except wake() must be called from the one
 * thread that drives poll(). wake() is safe from any thread.
 */

#ifndef TWIG_SERVE_LISTENER_HH
#define TWIG_SERVE_LISTENER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/protocol.hh"

namespace twig::serve {

class Listener;

/** One accepted client connection. */
class Connection
{
  public:
    Connection(int fd, std::uint64_t id, std::size_t max_body)
        : fd_(fd), id_(id), parser_(max_body)
    {
    }

    int fd() const { return fd_; }
    /** Monotonic accept counter (stable across the fd being reused). */
    std::uint64_t id() const { return id_; }

    FrameParser &parser() { return parser_; }

    /** Queue bytes for delivery; the event loop flushes them. */
    void
    send(std::string_view bytes)
    {
        out_.append(bytes.data(), bytes.size());
    }

    /** Close once the output buffer has drained (graceful goodbye). */
    void closeAfterFlush() { closeAfterFlush_ = true; }

    /** Bytes queued but not yet written to the socket. */
    std::size_t pendingOut() const { return out_.size() - outOff_; }

  private:
    friend class Listener;

    int fd_;
    std::uint64_t id_;
    FrameParser parser_;
    std::string out_;
    std::size_t outOff_ = 0;
    bool wantWrite_ = false;
    bool closeAfterFlush_ = false;
};

/** Receives parsed frames. */
class FrameHandler
{
  public:
    virtual ~FrameHandler() = default;

    /** A complete frame arrived. Return false to drop the
     * connection (treated like a protocol error). */
    virtual bool onFrame(Connection &conn, const FrameView &frame) = 0;
};

/** Event-loop counters (single-thread: read them on the loop thread
 * or after the loop has stopped). */
struct ListenerStats
{
    std::uint64_t accepted = 0;
    std::uint64_t closed = 0;
    std::uint64_t protocolErrors = 0;
    std::uint64_t framesIn = 0;
    std::uint64_t bytesIn = 0;
    std::uint64_t bytesOut = 0;
};

/** The epoll front-end. */
class Listener
{
  public:
    explicit Listener(FrameHandler &handler,
                      std::size_t max_body = kDefaultMaxBody);
    ~Listener();

    Listener(const Listener &) = delete;
    Listener &operator=(const Listener &) = delete;

    /**
     * Bind + listen on @p host:@p port (fatal on failure). Port 0
     * binds an ephemeral port; port() reports the bound one.
     */
    void open(const std::string &host, std::uint16_t port);

    std::uint16_t port() const { return port_; }

    /**
     * One event-loop turn: wait up to @p timeout_ms for socket events
     * (or a wake()), then accept / read / parse / dispatch / flush.
     */
    void poll(int timeout_ms);

    /** Interrupt a blocked poll(). Safe from any thread. */
    void wake();

    /** Stop accepting new connections (existing ones keep serving). */
    void closeListening();

    /**
     * Drain: keep processing reads and flushing queued writes until
     * every connection's output buffer is empty or @p deadline_ms
     * elapses, then close everything. Part of graceful shutdown —
     * in-flight frames that already reached the socket are parsed and
     * answered, and every answer is pushed out before the fds close.
     */
    void drainAndClose(int deadline_ms);

    std::size_t connections() const { return conns_.size(); }
    const ListenerStats &stats() const { return stats_; }

  private:
    void acceptReady();
    /** Returns false if the connection was closed. */
    bool readReady(Connection &conn);
    /** Flush queued output; returns false if the connection died. */
    bool flush(Connection &conn);
    void updateInterest(Connection &conn);
    void closeConnection(Connection &conn, bool protocol_error);
    Connection *findConnection(int fd);

    FrameHandler &handler_;
    std::size_t maxBody_;
    int epollFd_ = -1;
    int listenFd_ = -1;
    int wakeFd_ = -1;
    std::uint16_t port_ = 0;
    std::uint64_t nextId_ = 1;
    std::vector<std::unique_ptr<Connection>> conns_;
    ListenerStats stats_;
};

} // namespace twig::serve

#endif // TWIG_SERVE_LISTENER_HH
