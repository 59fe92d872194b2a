#include "ipc/socket.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/sim_error.hh"

namespace rasim
{
namespace ipc
{

namespace
{

#ifdef MSG_NOSIGNAL
constexpr int send_flags = MSG_NOSIGNAL;
#else
constexpr int send_flags = 0;
#endif

std::string
errnoString()
{
    return std::strerror(errno);
}

struct ParsedAddr
{
    bool is_unix = true;
    std::string path; ///< unix socket path
    std::string host; ///< tcp host
    int port = 0;     ///< tcp port
};

ParsedAddr
parseAddress(const std::string &addr)
{
    ParsedAddr p;
    if (addr.rfind("unix:", 0) == 0) {
        p.path = addr.substr(5);
    } else if (addr.rfind("tcp:", 0) == 0) {
        p.is_unix = false;
        std::string rest = addr.substr(4);
        std::size_t colon = rest.rfind(':');
        if (colon == std::string::npos || colon == 0 ||
            colon + 1 >= rest.size()) {
            throw SimError(ErrorKind::Config,
                           "bad tcp socket address '" + addr +
                               "' (want tcp:host:port)");
        }
        p.host = rest.substr(0, colon);
        try {
            p.port = std::stoi(rest.substr(colon + 1));
        } catch (...) {
            p.port = -1;
        }
        if (p.port <= 0 || p.port > 65535) {
            throw SimError(ErrorKind::Config,
                           "bad tcp port in socket address '" + addr +
                               "'");
        }
    } else {
        p.path = addr; // bare path = unix socket
    }
    if (p.is_unix) {
        if (p.path.empty()) {
            throw SimError(ErrorKind::Config,
                           "empty unix socket path in '" + addr + "'");
        }
        if (p.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
            throw SimError(ErrorKind::Config,
                           "unix socket path too long: '" + p.path +
                               "'");
        }
    }
    return p;
}

/** Fill a sockaddr for @p p; returns the usable length. */
socklen_t
fillSockaddr(const ParsedAddr &p, sockaddr_storage &ss)
{
    std::memset(&ss, 0, sizeof(ss));
    if (p.is_unix) {
        auto *sun = reinterpret_cast<sockaddr_un *>(&ss);
        sun->sun_family = AF_UNIX;
        std::memcpy(sun->sun_path, p.path.c_str(), p.path.size() + 1);
        return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) +
                                      p.path.size() + 1);
    }
    auto *sin = reinterpret_cast<sockaddr_in *>(&ss);
    sin->sin_family = AF_INET;
    sin->sin_port = htons(static_cast<std::uint16_t>(p.port));
    if (::inet_pton(AF_INET, p.host.c_str(), &sin->sin_addr) != 1) {
        // Convenience alias; full name resolution is out of scope.
        if (p.host == "localhost") {
            sin->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        } else {
            throw SimError(ErrorKind::Config,
                           "cannot parse tcp host '" + p.host +
                               "' (want a dotted IPv4 address)");
        }
    }
    return sizeof(sockaddr_in);
}

double
elapsedMs(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Wait until @p fd is readable/writable; -1 error, 0 timeout, 1 ok.
 *  Polls in short slices so @p stop is honoured promptly. */
int
pollFor(int fd, short events, double timeout_ms,
        const std::atomic<bool> *stop)
{
    auto start = std::chrono::steady_clock::now();
    for (;;) {
        if (stop && stop->load(std::memory_order_relaxed))
            return 0;
        double left = timeout_ms > 0.0 ? timeout_ms - elapsedMs(start)
                                       : 10.0;
        if (timeout_ms > 0.0 && left <= 0.0)
            return 0;
        int slice = timeout_ms > 0.0
                        ? static_cast<int>(std::min(left, 10.0)) + 1
                        : 10;
        pollfd pfd{fd, events, 0};
        int rc = ::poll(&pfd, 1, slice);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            return -1;
        }
        if (rc > 0)
            return 1;
    }
}

/** Wait for @p fd to become readable without blocking in the kernel:
 *  non-blocking polls with a sched_yield() between them, for at most
 *  recv_spin_us or @p timeout_ms (0 = no deadline), whichever is
 *  shorter, and only while @p stop is clear. Same result convention
 *  as pollFor. */
int
spinFor(int fd, double timeout_ms, const std::atomic<bool> *stop)
{
    double budget_ms = recv_spin_us / 1000.0;
    if (timeout_ms > 0.0)
        budget_ms = std::min(budget_ms, timeout_ms);
    auto start = std::chrono::steady_clock::now();
    for (;;) {
        pollfd pfd{fd, POLLIN, 0};
        int rc = ::poll(&pfd, 1, 0);
        if (rc > 0)
            return 1;
        if (rc < 0 && errno != EINTR)
            return -1;
        if (stop && stop->load(std::memory_order_relaxed))
            return 0;
        if (elapsedMs(start) >= budget_ms)
            return 0;
        ::sched_yield();
    }
}

} // namespace

void
Fd::reset()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

void
unlinkAddress(const std::string &addr)
{
    try {
        ParsedAddr p = parseAddress(addr);
        if (p.is_unix)
            ::unlink(p.path.c_str());
    } catch (const SimError &) {
        // An unparseable address has no socket file to clean up.
    }
}

bool
validAddress(const std::string &addr)
{
    try {
        parseAddress(addr);
        return true;
    } catch (const SimError &) {
        return false;
    }
}

Fd
listenOn(const std::string &addr)
{
    ParsedAddr p = parseAddress(addr);
    Fd fd(::socket(p.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) {
        throw SimError(ErrorKind::Transport,
                       "socket() failed for '" + addr +
                           "': " + errnoString());
    }
    if (p.is_unix) {
        // A pre-existing socket file is only removed when it is
        // *stale* (no server answers a probe connect): a dead server
        // must not block a restart, but a live one must not be
        // silently evicted from its own address.
        if (::access(p.path.c_str(), F_OK) == 0) {
            Fd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
            sockaddr_storage pss;
            socklen_t plen = fillSockaddr(p, pss);
            if (probe.valid() &&
                ::connect(probe.get(),
                          reinterpret_cast<sockaddr *>(&pss),
                          plen) == 0) {
                throw SimError(ErrorKind::Transport,
                               "cannot listen on '" + addr +
                                   "': a live server already answers "
                                   "there");
            }
            ::unlink(p.path.c_str());
        }
    } else {
        int one = 1;
        ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
    }
    sockaddr_storage ss;
    socklen_t len = fillSockaddr(p, ss);
    if (::bind(fd.get(), reinterpret_cast<sockaddr *>(&ss), len) != 0) {
        throw SimError(ErrorKind::Transport,
                       "cannot bind '" + addr + "': " + errnoString());
    }
    if (::listen(fd.get(), 4) != 0) {
        throw SimError(ErrorKind::Transport,
                       "cannot listen on '" + addr +
                           "': " + errnoString());
    }
    return fd;
}

Fd
acceptOn(const Fd &listener, double timeout_ms,
         const std::atomic<bool> *stop)
{
    int rc = pollFor(listener.get(), POLLIN, timeout_ms, stop);
    if (rc < 0) {
        throw SimError(ErrorKind::Transport,
                       std::string("poll on listening socket failed: ") +
                           errnoString());
    }
    if (rc == 0)
        return Fd();
    Fd conn(::accept(listener.get(), nullptr, nullptr));
    if (!conn.valid()) {
        throw SimError(ErrorKind::Transport,
                       std::string("accept failed: ") + errnoString());
    }
    return conn;
}

bool
readable(const Fd &fd)
{
    pollfd pfd{fd.get(), POLLIN, 0};
    return ::poll(&pfd, 1, 0) > 0;
}

Fd
connectTo(const std::string &addr, double timeout_ms)
{
    ParsedAddr p = parseAddress(addr);
    auto start = std::chrono::steady_clock::now();
    for (;;) {
        Fd fd(::socket(p.is_unix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
        if (!fd.valid()) {
            throw SimError(ErrorKind::Transport,
                           "socket() failed for '" + addr +
                               "': " + errnoString());
        }
        sockaddr_storage ss;
        socklen_t len = fillSockaddr(p, ss);
        if (::connect(fd.get(), reinterpret_cast<sockaddr *>(&ss),
                      len) == 0) {
            if (!p.is_unix) {
                int one = 1;
                ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof(one));
            }
            return fd;
        }
        const std::string error = errnoString();
        if (elapsedMs(start) >= timeout_ms) {
            throw SimError(ErrorKind::Transport,
                           "cannot connect to '" + addr + "' within " +
                               std::to_string(timeout_ms) +
                               " ms (last error: " + error + ")");
        }
        // The server may still be starting; retry until the deadline.
        struct timespec ts = {0, 20 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
    }
}

void
sendAll(const Fd &fd, const void *data, std::size_t len)
{
    const char *p = static_cast<const char *>(data);
    while (len > 0) {
        ssize_t n = ::send(fd.get(), p, len, send_flags);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw SimError(ErrorKind::Transport,
                           std::string("send failed (peer gone?): ") +
                               errnoString());
        }
        p += n;
        len -= static_cast<std::size_t>(n);
    }
}

std::size_t
recvUpTo(const Fd &fd, void *data, std::size_t len, double timeout_ms,
         const std::atomic<bool> *abort)
{
    char *p = static_cast<char *>(data);
    std::size_t got = 0;
    auto start = std::chrono::steady_clock::now();
    bool spun = false; // this wait has spent its spin budget
    while (got < len) {
        if (abort && abort->load(std::memory_order_relaxed)) {
            throw SimError(ErrorKind::Timeout,
                           "receive aborted by requestAbort()");
        }
        double left = 0.0;
        if (timeout_ms > 0.0) {
            left = timeout_ms - elapsedMs(start);
            if (left <= 0.0) {
                throw SimError(ErrorKind::Timeout,
                               "receive timed out after " +
                                   std::to_string(timeout_ms) + " ms");
            }
        }
        int rc = spun ? pollFor(fd.get(), POLLIN, left, abort)
                      : spinFor(fd.get(), left, abort);
        spun = true;
        if (rc < 0) {
            throw SimError(ErrorKind::Transport,
                           std::string("poll failed: ") + errnoString());
        }
        if (rc == 0)
            continue; // deadline / abort re-checked at loop head
        ssize_t n = ::recv(fd.get(), p + got, len - got, 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            throw SimError(ErrorKind::Transport,
                           std::string("recv failed: ") + errnoString());
        }
        if (n == 0)
            return got; // EOF
        got += static_cast<std::size_t>(n);
        spun = false;
    }
    return got;
}

void
shutdownFd(const Fd &fd)
{
    if (fd.valid())
        ::shutdown(fd.get(), SHUT_RDWR);
}

void
FdChannel::send(const void *data, std::size_t len)
{
    sendAll(*fd_, data, len);
}

std::size_t
FdChannel::recv(void *data, std::size_t len, double timeout_ms,
                const std::atomic<bool> *abort)
{
    return recvUpTo(*fd_, data, len, timeout_ms, abort);
}

bool
FdChannel::readable() const
{
    return ipc::readable(*fd_);
}

void
FdChannel::close()
{
    if (fd_ == &owned_)
        owned_.reset();
    else
        shutdownFd(*fd_);
}

} // namespace ipc
} // namespace rasim
