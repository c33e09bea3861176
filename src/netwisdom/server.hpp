#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/wisdom.hpp"
#include "netwisdom/socket.hpp"
#include "util/json.hpp"

namespace kl::netwisdom {

/// Records the wisdom store takes over all kernels: past it, a put for a new
/// scenario is rejected ("full: ..."); one replacing a scenario is not.
inline constexpr size_t kMaxRecords = 65536;

/// Aggregated wisdom held by the daemon: one core::WisdomFile per kernel,
/// but with the *fleet* conflict-resolution policy layered on top of
/// uploads (docs/DISTRIBUTED.md#consistency):
///
///   per (device name, problem size):
///     newest provenance date wins (ISO-8601, lexicographic),
///     a date tie goes to the better (lower) measured time,
///     the losing record's provenance is kept in the winner's
///     "supersedes" list (capped) so tuning history survives,
///     a losing *upload* is rejected with a reason, not silently eaten.
///
/// A get runs core::WisdomFile::select on the held file in place, so a
/// network answer is byte-for-byte what a local wisdom file would select.
class WisdomStore {
  public:
    /// `dir` empty = in-memory only; otherwise load every *.wisdom.json at
    /// construction (a damaged one goes to `<dir>/quarantine/`) and save the
    /// kernel's file after each accepted put.
    explicit WisdomStore(std::string dir);

    struct PutResult {
        bool accepted = false;
        std::string reason;  ///< why not, when !accepted
    };
    PutResult put(const std::string& kernel_name, const json::Value& record_json);

    /// Selection over the aggregate; json reply payload for WisdomReply.
    json::Value get(
        const std::string& kernel_name,
        const std::string& device_name,
        const std::string& device_arch,
        const json::Value& problem_json) const;

    size_t kernel_count() const;
    size_t record_count() const;

  private:
    /// Persists one kernel's aggregate to dir_ (no-op when in-memory).
    /// Caller holds mutex_.
    void save_locked(const core::WisdomFile& file) const;

    std::string dir_;
    mutable std::mutex mutex_;
    std::map<std::string, core::WisdomFile> kernels_;
    size_t record_count_ = 0;  ///< over all kernels; at most kMaxRecords by put
};

/// Compiled-instance artifacts, keyed by rtccache entry id. Uploads are
/// validated with rtccache::validate_entry_text before acceptance — the
/// daemon never serves bytes a client would quarantine. `dir` empty =
/// in-memory only; otherwise entries persist as `<id>.json` files (the
/// rtccache directory layout, so a cache dir can seed a daemon directly).
class ArtifactStore {
  public:
    explicit ArtifactStore(std::string dir);

    struct PutResult {
        bool accepted = false;
        std::string reason;
    };
    PutResult put(const std::string& id, const std::string& entry_text);

    std::optional<std::string> get(const std::string& id) const;
    std::vector<std::string> ids() const;
    size_t count() const;
    uint64_t bytes() const;

  private:
    std::string dir_;
    mutable std::mutex mutex_;
    std::map<std::string, std::string> entries_;
};

/// Bytes the daemon buffers across all connections, requests and replies
/// alike: room for one maximum-size request and one maximum-size reply.
/// Only Error frames, a few hundred bytes each, are stored past it.
inline constexpr size_t kBufferBudgetBytes = 2 * size_t {kMaxPayloadBytes};

struct ServerOptions {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;           ///< 0 = ephemeral; Server::port() reports it
    std::string artifact_dir;    ///< empty = in-memory artifacts
    std::string wisdom_dir;      ///< empty = in-memory wisdom
    bool verbose = false;        ///< log one line per request to stderr
};

/// The kl-wisdomd daemon core: one thread `poll`s the listener and every
/// connection. A connection holds the bytes of its current request so far,
/// then its unsent reply, and reads its next request only once the reply is
/// out. Frames are assembled as bytes arrive: a buffer grows by what was
/// received, never by the announced length, and all buffered bytes share
/// one budget (kBufferBudgetBytes). A read or a reply that would go over
/// it gets one Error frame (code "busy") instead, closes the connection and
/// counts as `refused`. A frame not complete 5 s after its first byte is
/// dropped and counted in `protocol_errors`. An idle connection costs one
/// pollfd; when accept runs out of descriptors, the oldest idle connection
/// is closed to make room. The loop checks `running_` every 0.2 s, so
/// stop() joins it quickly.
///
/// Protocol errors answer with one Error frame (code "version" for a
/// version-mismatched peer, "bad-request" otherwise) and close the
/// connection; undecodable byte streams are dropped without a reply.
class Server {
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Binds and starts the poll loop. Throws kl::Error when the
    /// address/port cannot be bound.
    void start();

    /// Joins the loop thread, closes every connection and the listener.
    /// Idempotent.
    void stop();

    /// Bound port (valid after start()).
    uint16_t port() const noexcept {
        return port_;
    }

    /// Server-side counters + store sizes; also the StatsReply payload.
    json::Value stats() const;

    WisdomStore& wisdom() {
        return wisdom_;
    }
    ArtifactStore& artifacts() {
        return artifacts_;
    }

  private:
    struct Connection;

    void loop();
    // Each returns false when the connection is to be closed.
    /// Reads what `conn` has sent; answers once the frame is complete.
    bool receive(Connection& conn, double now);
    bool answer(Connection& conn, MsgType type);
    /// Swaps the request for the reply `frame`; `last` closes once it is sent.
    bool reply(Connection& conn, std::string frame, bool last);
    /// Sends what the socket takes of the reply.
    bool flush(Connection& conn);
    json::Value handle(MsgType type, const json::Value& payload, MsgType& reply_type);

    ServerOptions options_;
    WisdomStore wisdom_;
    ArtifactStore artifacts_;

    Socket listener_;
    uint16_t port_ = 0;
    std::atomic<bool> running_ {false};
    size_t buffered_ = 0;  ///< bytes in every connection's in and out; loop thread only

    std::atomic<uint64_t> protocol_errors_ {0};
    std::atomic<uint64_t> connections_ {0};
    std::atomic<uint64_t> refused_ {0};
    mutable std::mutex requests_mutex_;
    std::map<std::string, uint64_t> request_counts_;

    std::thread loop_thread_;  ///< declared last: it uses every member above
};

}  // namespace kl::netwisdom
