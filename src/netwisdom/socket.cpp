#include "netwisdom/socket.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>

#include "util/errors.hpp"

namespace kl::netwisdom {

double monotonic_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

namespace {

std::string errno_message(const std::string& what) {
    return what + ": " + std::string(strerror(errno));
}

/// Waits for readability/writability until the absolute deadline. Returns
/// false on timeout; throws on poll failure.
bool wait_for(int fd, short events, double deadline) {
    for (;;) {
        const double remaining = deadline - monotonic_seconds();
        if (remaining <= 0) {
            return false;
        }
        pollfd pfd {fd, events, 0};
        const int timeout_ms = static_cast<int>(remaining * 1e3) + 1;
        const int rc = ::poll(&pfd, 1, timeout_ms);
        if (rc > 0) {
            return true;  // readable/writable — or an error the read will surface
        }
        if (rc == 0) {
            return false;
        }
        if (errno == EINTR) {
            continue;
        }
        throw Error(errno_message("netwisdom poll failed"));
    }
}

void set_nodelay(int fd) {
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0) {
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
}

}  // namespace

Socket::~Socket() {
    close();
}

Socket::Socket(Socket&& other) noexcept: fd_(other.fd_) {
    other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.fd_;
        other.fd_ = -1;
    }
    return *this;
}

void Socket::close() noexcept {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Socket Socket::connect(const std::string& host, uint16_t port, double timeout_seconds) {
    struct addrinfo hints;
    memset(&hints, 0, sizeof hints);
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    struct addrinfo* results = nullptr;
    const std::string port_text = std::to_string(port);
    const int gai = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &results);
    if (gai != 0 || results == nullptr) {
        throw Error(
            "netwisdom cannot resolve '" + host + "': " + std::string(gai_strerror(gai)));
    }

    const double deadline = monotonic_seconds() + timeout_seconds;
    std::string last_error = "no addresses";
    for (struct addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
        int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            last_error = errno_message("socket");
            continue;
        }
        Socket sock(fd);
        set_nonblocking(fd);
        int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
        if (rc != 0 && errno == EINPROGRESS) {
            if (!wait_for(fd, POLLOUT, deadline)) {
                ::freeaddrinfo(results);
                throw TimeoutError(
                    "netwisdom connect to " + host + ":" + port_text + " timed out");
            }
            int err = 0;
            socklen_t len = sizeof err;
            ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
            rc = err == 0 ? 0 : -1;
            errno = err;
        }
        if (rc == 0) {
            set_nodelay(fd);
            ::freeaddrinfo(results);
            return sock;
        }
        last_error = errno_message("connect");
    }
    ::freeaddrinfo(results);
    throw Error("netwisdom connect to " + host + ":" + port_text + " failed: " + last_error);
}

Socket Socket::listen(const std::string& address, uint16_t port, int backlog) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
        throw Error(errno_message("netwisdom listen socket"));
    }
    Socket sock(fd);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

    struct sockaddr_in addr;
    memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1) {
        throw Error("netwisdom cannot parse bind address '" + address + "'");
    }
    if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof addr) != 0) {
        throw Error(errno_message("netwisdom bind to " + address + ":" + std::to_string(port)));
    }
    if (::listen(fd, backlog) != 0) {
        throw Error(errno_message("netwisdom listen"));
    }
    return sock;
}

uint16_t Socket::bound_port() const {
    struct sockaddr_in addr;
    socklen_t len = sizeof addr;
    if (::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr), &len) != 0) {
        throw Error(errno_message("netwisdom getsockname"));
    }
    return ntohs(addr.sin_port);
}

std::optional<Socket> Socket::accept(double timeout_seconds) {
    const double deadline = monotonic_seconds() + timeout_seconds;
    if (!wait_for(fd_, POLLIN, deadline)) {
        return std::nullopt;
    }
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK
            || errno == ECONNABORTED) {
            return std::nullopt;
        }
        throw Error(errno_message("netwisdom accept"));
    }
    set_nodelay(fd);
    return Socket(fd);
}

size_t Socket::send_some(const void* data, size_t size) {
    const ssize_t sent = ::send(fd_, data, size, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (sent < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        throw Error(errno_message("netwisdom send failed"));
    }
    return sent < 0 ? 0 : static_cast<size_t>(sent);
}

size_t Socket::recv_some(void* data, size_t size) {
    const ssize_t got = ::recv(fd_, data, size, MSG_DONTWAIT);
    if (got == 0) {
        throw ClosedError("netwisdom peer closed the connection");
    }
    if (got < 0 && errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) {
        throw Error(errno_message("netwisdom recv failed"));
    }
    return got < 0 ? 0 : static_cast<size_t>(got);
}

void Socket::send_all(const void* data, size_t size, double timeout_seconds) {
    const double deadline = monotonic_seconds() + timeout_seconds;
    const char* cursor = static_cast<const char*>(data);
    size_t remaining = size;
    while (remaining > 0) {
        const size_t sent = send_some(cursor, remaining);
        if (sent == 0 && !wait_for(fd_, POLLOUT, deadline)) {
            throw TimeoutError("netwisdom send timed out");
        }
        cursor += sent;
        remaining -= sent;
    }
}

void Socket::recv_exact(std::string& out, size_t size, double timeout_seconds) {
    const double deadline = monotonic_seconds() + timeout_seconds;
    char chunk[64 << 10];
    while (size > 0) {
        const size_t got = recv_some(chunk, std::min(size, sizeof chunk));
        if (got == 0 && !wait_for(fd_, POLLIN, deadline)) {
            throw TimeoutError("netwisdom recv timed out");
        }
        out.append(chunk, got);
        size -= got;
    }
}

void Socket::send_frame(MsgType type, const json::Value& payload, double timeout_seconds) {
    const std::string bytes = encode_frame(type, payload);
    send_all(bytes.data(), bytes.size(), timeout_seconds);
}

Frame Socket::recv_frame(double timeout_seconds) {
    std::string header_bytes;
    recv_exact(header_bytes, kHeaderBytes, timeout_seconds);
    Header header;
    const DecodeStatus status = decode_header(header_bytes.data(), header);
    if (status != DecodeStatus::Ok) {
        throw Error(std::string("netwisdom frame rejected: ") + decode_status_name(status));
    }
    std::string body;
    recv_exact(body, header.payload_bytes, timeout_seconds);
    Frame frame;
    frame.type = header.type;
    frame.payload = decode_payload(body);
    return frame;
}

}  // namespace kl::netwisdom
