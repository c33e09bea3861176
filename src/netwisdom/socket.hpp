#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "netwisdom/protocol.hpp"

namespace kl::netwisdom {

/// Seconds on the steady clock: the time base of every netwisdom deadline.
double monotonic_seconds();

/// RAII wrapper over one TCP socket file descriptor with timeout-bounded,
/// poll-based I/O: the one place that handles partial reads/writes, EINTR,
/// timeouts and peer resets. The client waits up to its deadlines in
/// send_all/recv_exact; the daemon's poll loop uses the calls that never wait.
///
/// All errors surface as kl::Error; a timeout is a TimeoutError so callers
/// can count it separately. Instances are movable, not copyable, and NOT
/// thread-safe — each client or connection owns its socket.
class Socket {
  public:
    /// A deadline expired before the operation completed.
    struct TimeoutError: Error {
        using Error::Error;
    };
    /// The peer closed the connection.
    struct ClosedError: Error {
        using Error::Error;
    };

    Socket() = default;
    explicit Socket(int fd): fd_(fd) {}
    ~Socket();

    Socket(Socket&& other) noexcept;
    Socket& operator=(Socket&& other) noexcept;
    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;

    bool valid() const noexcept {
        return fd_ >= 0;
    }
    int fd() const noexcept {
        return fd_;
    }

    /// Closes the descriptor (idempotent).
    void close() noexcept;

    /// Connects to host:port with a bounded, non-blocking connect. Throws
    /// TimeoutError when the deadline passes, kl::Error on refusal or
    /// resolution failure. The returned socket is non-blocking with
    /// TCP_NODELAY set (the protocol is small request/response frames).
    static Socket connect(const std::string& host, uint16_t port, double timeout_seconds);

    /// Creates a listening socket bound to address:port (port 0 picks an
    /// ephemeral port; bound_port() reports it). Throws kl::Error.
    static Socket listen(const std::string& address, uint16_t port, int backlog = 64);

    /// Port this socket is bound to.
    uint16_t bound_port() const;

    /// Accepts one connection, waiting at most timeout_seconds. Returns
    /// nullopt on timeout (so accept loops can poll a shutdown flag);
    /// throws kl::Error when the listener was closed or the process is out
    /// of descriptors (EMFILE/ENFILE).
    std::optional<Socket> accept(double timeout_seconds);

    /// Writes what the socket takes now, without waiting, and returns the
    /// byte count (0 when it takes none). kl::Error when the peer is gone.
    size_t send_some(const void* data, size_t size);

    /// Reads what has arrived, up to `size` (> 0) bytes, without waiting, and
    /// returns the byte count (0 when none has). ClosedError on a hang-up.
    size_t recv_some(void* data, size_t size);

    /// Writes the whole buffer or throws (TimeoutError / kl::Error).
    void send_all(const void* data, size_t size, double timeout_seconds);

    /// Appends exactly `size` bytes to `out` or throws (ClosedError on a
    /// hang-up). `out` grows by what arrives, never ahead of it.
    void recv_exact(std::string& out, size_t size, double timeout_seconds);

    /// Sends one protocol frame.
    void send_frame(MsgType type, const json::Value& payload, double timeout_seconds);

    /// Receives one protocol frame. Framing violations (bad magic, version
    /// mismatch, oversized length) throw kl::Error carrying the
    /// decode_status_name; the stream cannot be resynchronized after any
    /// of them. ClosedError when the peer hung up.
    Frame recv_frame(double timeout_seconds);

  private:
    int fd_ = -1;
};

}  // namespace kl::netwisdom
