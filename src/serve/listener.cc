#include "serve/listener.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"

namespace twig::serve {

namespace {

void
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    common::fatalIf(flags < 0, "fcntl(F_GETFL): ",
                    std::strerror(errno));
    common::fatalIf(::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0,
                    "fcntl(F_SETFL, O_NONBLOCK): ",
                    std::strerror(errno));
}

} // namespace

Listener::Listener(FrameHandler &handler, std::size_t max_body)
    : handler_(handler), maxBody_(max_body)
{
    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    common::fatalIf(epollFd_ < 0, "epoll_create1: ",
                    std::strerror(errno));
    wakeFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    common::fatalIf(wakeFd_ < 0, "eventfd: ", std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wakeFd_;
    common::fatalIf(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &ev) <
                        0,
                    "epoll_ctl(wakeup): ", std::strerror(errno));
}

Listener::~Listener()
{
    for (auto &conn : conns_)
        ::close(conn->fd_);
    conns_.clear();
    if (listenFd_ >= 0)
        ::close(listenFd_);
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
}

void
Listener::open(const std::string &host, std::uint16_t port)
{
    common::fatalIf(listenFd_ >= 0, "Listener::open: already open");
    listenFd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    common::fatalIf(listenFd_ < 0, "socket: ", std::strerror(errno));
    const int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    common::fatalIf(::inet_pton(AF_INET, host.c_str(),
                                &addr.sin_addr) != 1,
                    "Listener::open: bad listen address '", host, "'");
    common::fatalIf(::bind(listenFd_,
                           reinterpret_cast<const sockaddr *>(&addr),
                           sizeof(addr)) < 0,
                    "bind ", host, ":", port, ": ",
                    std::strerror(errno));
    common::fatalIf(::listen(listenFd_, 128) < 0, "listen: ",
                    std::strerror(errno));
    setNonBlocking(listenFd_);

    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    common::fatalIf(::getsockname(listenFd_,
                                  reinterpret_cast<sockaddr *>(&bound),
                                  &len) < 0,
                    "getsockname: ", std::strerror(errno));
    port_ = ntohs(bound.sin_port);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd_;
    common::fatalIf(::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFd_,
                                &ev) < 0,
                    "epoll_ctl(listen): ", std::strerror(errno));
}

void
Listener::wake()
{
    const std::uint64_t one = 1;
    // Best effort: a full eventfd counter already guarantees a wakeup.
    [[maybe_unused]] const ssize_t n =
        ::write(wakeFd_, &one, sizeof(one));
}

void
Listener::closeListening()
{
    if (listenFd_ < 0)
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, listenFd_, nullptr);
    ::close(listenFd_);
    listenFd_ = -1;
}

void
Listener::poll(int timeout_ms)
{
    epoll_event events[64];
    const int n =
        ::epoll_wait(epollFd_, events, 64, timeout_ms);
    if (n < 0) {
        common::fatalIf(errno != EINTR, "epoll_wait: ",
                        std::strerror(errno));
        return;
    }
    for (int i = 0; i < n; ++i) {
        const int fd = events[i].data.fd;
        if (fd == wakeFd_) {
            std::uint64_t drained;
            while (::read(wakeFd_, &drained, sizeof(drained)) > 0) {
            }
            continue;
        }
        if (fd == listenFd_) {
            acceptReady();
            continue;
        }
        Connection *conn = findConnection(fd);
        if (conn == nullptr)
            continue; // closed earlier in this batch
        if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
            closeConnection(*conn, false);
            continue;
        }
        if ((events[i].events & EPOLLIN) != 0 && !readReady(*conn))
            continue;
        if ((events[i].events & EPOLLOUT) != 0)
            flush(*conn);
    }
}

void
Listener::acceptReady()
{
    while (true) {
        const int fd = ::accept4(listenFd_, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            return; // transient (e.g. EMFILE): keep serving
        }
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        auto conn =
            std::make_unique<Connection>(fd, nextId_++, maxBody_);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
            ::close(fd);
            continue;
        }
        ++stats_.accepted;
        conns_.push_back(std::move(conn));
    }
}

bool
Listener::readReady(Connection &conn)
{
    char buf[64 * 1024];
    while (true) {
        const ssize_t n = ::recv(conn.fd_, buf, sizeof(buf), 0);
        if (n > 0) {
            stats_.bytesIn += static_cast<std::uint64_t>(n);
            conn.parser_.append(buf, static_cast<std::size_t>(n));
            FrameView frame;
            FrameParser::Status status;
            while ((status = conn.parser_.next(frame)) ==
                   FrameParser::Status::Frame) {
                ++stats_.framesIn;
                if (!handler_.onFrame(conn, frame)) {
                    closeConnection(conn, true);
                    return false;
                }
            }
            if (status == FrameParser::Status::Error) {
                closeConnection(conn, true);
                return false;
            }
            if (static_cast<std::size_t>(n) < sizeof(buf))
                break; // short read: the socket is drained
            continue;
        }
        if (n == 0) {
            closeConnection(conn, false);
            return false;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        closeConnection(conn, false);
        return false;
    }
    return flush(conn);
}

bool
Listener::flush(Connection &conn)
{
    while (conn.pendingOut() > 0) {
        const ssize_t n =
            ::send(conn.fd_, conn.out_.data() + conn.outOff_,
                   conn.pendingOut(), MSG_NOSIGNAL);
        if (n > 0) {
            stats_.bytesOut += static_cast<std::uint64_t>(n);
            conn.outOff_ += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n < 0 && errno == EINTR)
            continue;
        closeConnection(conn, false);
        return false;
    }
    if (conn.pendingOut() == 0) {
        conn.out_.clear();
        conn.outOff_ = 0;
        if (conn.closeAfterFlush_) {
            closeConnection(conn, false);
            return false;
        }
    }
    updateInterest(conn);
    return true;
}

void
Listener::updateInterest(Connection &conn)
{
    const bool want_write = conn.pendingOut() > 0;
    if (want_write == conn.wantWrite_)
        return;
    conn.wantWrite_ = want_write;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
    ev.data.fd = conn.fd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd_, &ev);
}

void
Listener::closeConnection(Connection &conn, bool protocol_error)
{
    if (protocol_error)
        ++stats_.protocolErrors;
    ++stats_.closed;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn.fd_, nullptr);
    ::close(conn.fd_);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i].get() == &conn) {
            conns_.erase(conns_.begin() +
                         static_cast<std::ptrdiff_t>(i));
            break;
        }
    }
}

Connection *
Listener::findConnection(int fd)
{
    for (auto &conn : conns_) {
        if (conn->fd_ == fd)
            return conn.get();
    }
    return nullptr;
}

void
Listener::drainAndClose(int deadline_ms)
{
    using clock = std::chrono::steady_clock;
    const auto deadline =
        clock::now() + std::chrono::milliseconds(deadline_ms);
    closeListening();
    while (!conns_.empty() && clock::now() < deadline) {
        bool pending = false;
        for (auto &conn : conns_) {
            if (conn->pendingOut() > 0) {
                pending = true;
                break;
            }
        }
        if (!pending)
            break;
        poll(10);
    }
    // Whatever is left gets a best-effort final flush and a close.
    while (!conns_.empty()) {
        Connection &conn = *conns_.back();
        if (conn.pendingOut() > 0) {
            [[maybe_unused]] const ssize_t n =
                ::send(conn.fd_, conn.out_.data() + conn.outOff_,
                       conn.pendingOut(), MSG_NOSIGNAL | MSG_DONTWAIT);
        }
        closeConnection(conn, false);
    }
}

} // namespace twig::serve
