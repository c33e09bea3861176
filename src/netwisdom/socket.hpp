#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "netwisdom/protocol.hpp"

namespace kl::netwisdom {

/// RAII wrapper over one TCP socket file descriptor with timeout-bounded,
/// poll-based I/O. Everything the client and daemon do on the wire goes
/// through this type, so there is exactly one place that handles partial
/// reads/writes, EINTR, timeouts and peer resets.
///
/// All errors surface as kl::Error; a timeout is a TimeoutError so callers
/// can count it separately. Instances are movable, not copyable, and NOT
/// thread-safe — each session/connection owns its socket.
class Socket {
  public:
    /// A deadline expired before the operation completed.
    struct TimeoutError: Error {
        using Error::Error;
    };
    /// The peer closed the connection cleanly at a frame boundary.
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
    /// resolution failure. The returned socket is blocking-mode with
    /// TCP_NODELAY set (the protocol is small request/response frames).
    static Socket connect(const std::string& host, uint16_t port, double timeout_seconds);

    /// Creates a listening socket bound to address:port (port 0 picks an
    /// ephemeral port; bound_port() reports it). Throws kl::Error.
    static Socket listen(const std::string& address, uint16_t port, int backlog = 64);

    /// Port this socket is bound to.
    uint16_t bound_port() const;

    /// Accepts one connection, waiting at most timeout_seconds. Returns
    /// nullopt on timeout (so accept loops can poll a shutdown flag);
    /// throws kl::Error when the listener was closed.
    std::optional<Socket> accept(double timeout_seconds);

    /// Writes the whole buffer or throws (TimeoutError / kl::Error).
    void send_all(const void* data, size_t size, double timeout_seconds);

    /// Reads exactly `size` bytes or throws. A clean EOF before the first
    /// byte is ClosedError; EOF mid-buffer is a plain Error (truncation).
    void recv_exact(void* data, size_t size, double timeout_seconds);

    /// Sends one protocol frame.
    void send_frame(MsgType type, const json::Value& payload, double timeout_seconds);

    /// Receives one protocol frame. Framing violations (bad magic, version
    /// mismatch, oversized length) throw kl::Error carrying the
    /// decode_status_name; the stream cannot be resynchronized after any
    /// of them. ClosedError when the peer hung up between frames.
    Frame recv_frame(double timeout_seconds);

  private:
    int fd_ = -1;
};

}  // namespace kl::netwisdom
