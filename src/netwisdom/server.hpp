#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/wisdom.hpp"
#include "netwisdom/socket.hpp"
#include "util/json.hpp"

namespace kl::netwisdom {

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
/// Lookups reuse core::WisdomFile::select, so a network answer is
/// byte-for-byte what a local wisdom file would have selected (§4.5).
class WisdomStore {
  public:
    /// `dir` empty = in-memory only; otherwise load every *.wisdom.json at
    /// construction and save the kernel's file after each accepted put.
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
    void save_locked(const std::string& kernel_name);

    std::string dir_;
    mutable std::mutex mutex_;
    /// Per kernel, at most one record per (device name, problem size).
    std::map<std::string, std::vector<core::WisdomRecord>> kernels_;
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

struct ServerOptions {
    std::string bind_address = "127.0.0.1";
    uint16_t port = 0;           ///< 0 = ephemeral; Server::port() reports it
    std::string artifact_dir;    ///< empty = in-memory artifacts
    std::string wisdom_dir;      ///< empty = in-memory wisdom
    bool verbose = false;        ///< log one line per request to stderr
};

/// The kl-wisdomd daemon core: a listener thread accepting connections and
/// one session thread per connection, each speaking the framed protocol.
/// At most 64 sessions run at once. At the cap, a new connection makes one
/// idle session close (its client reconnects on its next request), so the
/// cap bounds sessions that are serving a frame, not clients. When none is
/// idle, the new connection gets one Error frame (code "busy"), is closed
/// and counts as `refused`.
/// All threads poll `running_` on short timeouts, so stop() converges
/// quickly and joins everything — no detached threads, TSan-clean.
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

    /// Binds and starts the accept loop. Throws kl::Error when the
    /// address/port cannot be bound.
    void start();

    /// Stops accepting, joins every session, closes the listener.
    /// Idempotent.
    void stop();

    bool running() const noexcept {
        return running_.load(std::memory_order_relaxed);
    }

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
    void accept_loop();
    void session(Socket conn);
    json::Value handle(MsgType type, const json::Value& payload, MsgType& reply_type);
    /// Joins the finished session threads; returns how many still run.
    size_t reap_finished_sessions();
    /// True once a new session fits under the cap; at the cap, first asks
    /// one idle session to close and waits briefly for it.
    bool make_room();

    ServerOptions options_;
    WisdomStore wisdom_;
    ArtifactStore artifacts_;

    Socket listener_;
    uint16_t port_ = 0;
    std::atomic<bool> running_ {false};
    std::thread accept_thread_;

    struct SessionSlot {
        std::thread thread;
        std::shared_ptr<std::atomic<bool>> done;
    };
    mutable std::mutex sessions_mutex_;
    std::vector<SessionSlot> sessions_;
    std::atomic<bool> shed_idle_ {false};  ///< the first idle session to see it closes

    mutable std::mutex counters_mutex_;
    std::map<std::string, uint64_t> request_counts_;
    uint64_t protocol_errors_ = 0;
    uint64_t connections_ = 0;
    uint64_t refused_ = 0;
};

}  // namespace kl::netwisdom
