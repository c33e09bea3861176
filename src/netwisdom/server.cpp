#include "netwisdom/server.hpp"

#include <poll.h>

#include <algorithm>
#include <cstdio>

#include "rtccache/rtccache.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace kl::netwisdom {

namespace {

constexpr double kPollSeconds = 0.2;   ///< shutdown-flag granularity
constexpr double kIoSeconds = 5.0;     ///< per-frame budget from its first byte
constexpr size_t kMaxSupersedes = 8;   ///< provenance history kept per record

std::string error_frame(const char* code, const std::string& message) {
    json::Value error = json::Value::object();
    error["code"] = code;
    error["message"] = message;
    return encode_frame(MsgType::Error, error);
}

/// Compact summary of a superseded record's provenance for the history
/// list: enough to audit where a config came from, small enough to cap.
json::Value supersedes_summary(const core::WisdomRecord& record) {
    json::Value out = json::Value::object();
    out["date"] = record.provenance.get_string_or("date", "");
    if (record.provenance.is_object()) {
        out["hostname"] = record.provenance.get_string_or("hostname", "");
    }
    out["time_ms"] = record.time_seconds * 1e3;
    return out;
}

bool is_wisdom_file(const std::string& path) {
    return ends_with(path_filename(path), ".wisdom.json");
}

bool is_artifact_file(const std::string& path) {
    const std::string name = path_filename(path);
    return starts_with(name, "klc-") && ends_with(name, ".json");
}

}  // namespace

// ---- WisdomStore ----

WisdomStore::WisdomStore(std::string dir): dir_(std::move(dir)) {
    if (dir_.empty()) {
        return;
    }
    create_directories(dir_);
    for (const std::string& path : list_directory(dir_)) {
        if (!is_wisdom_file(path)) {
            continue;
        }
        const std::string name = path_filename(path);
        const std::string kernel = name.substr(0, name.size() - 12);  // ".wisdom.json"
        core::WisdomFile file(kernel);
        try {
            // Fold duplicate scenarios once, the last record winning, so
            // put and get see one record per scenario.
            const core::WisdomFile loaded = core::WisdomFile::load(path, kernel);
            for (const core::WisdomRecord& record : loaded.records()) {
                file.add(record, /*force=*/true);
            }
        } catch (const Error&) {
            // A damaged file must neither keep the daemon from serving the
            // rest nor be overwritten by the next accepted put: set it aside.
            rtccache::DiskCache::quarantine(dir_, path);
            continue;
        }
        record_count_ += file.records().size();
        kernels_.emplace(kernel, std::move(file));
    }
}

WisdomStore::PutResult WisdomStore::put(
    const std::string& kernel_name,
    const json::Value& record_json) {
    core::WisdomRecord record;
    try {
        record = core::WisdomRecord::from_json(record_json);
    } catch (const Error& e) {
        return {false, std::string("malformed record: ") + e.what()};
    }
    if (kernel_name.empty()) {
        return {false, "missing kernel name"};
    }
    if (!record.provenance.is_object()) {
        record.provenance = json::Value::object();
    }

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = kernels_.find(kernel_name);
    const core::WisdomRecord* existing = it == kernels_.end()
        ? nullptr
        : it->second.find(record.device_name, record.problem_size);
    if (existing == nullptr) {
        if (record_count_ >= kMaxRecords) {
            return {
                false,
                "full: the store holds " + std::to_string(record_count_)
                    + " records; only uploads that replace a scenario are accepted"};
        }
        record_count_ += 1;
        if (it == kernels_.end()) {
            it = kernels_.emplace(kernel_name, core::WisdomFile(kernel_name)).first;
        }
    } else {
        const std::string old_date = existing->provenance.get_string_or("date", "");
        const std::string new_date = record.provenance.get_string_or("date", "");
        if (new_date < old_date) {
            return {
                false,
                "stale: an upload dated " + old_date + " already covers this scenario"};
        }
        if (new_date == old_date && record.time_seconds > existing->time_seconds) {
            return {false, "tied date: the existing result is faster"};
        }
        // Newest wins (or same-date improvement / idempotent re-put).
        // Carry the loser's provenance along, capped.
        const json::Value* old_history = existing->provenance.find("supersedes");
        json::Value history = old_history != nullptr && old_history->is_array()
            ? *old_history
            : json::Value::array();
        history.push_back(supersedes_summary(*existing));
        while (history.size() > kMaxSupersedes) {
            history.as_array().erase(history.as_array().begin());
        }
        record.provenance["supersedes"] = std::move(history);
    }
    it->second.add(std::move(record), /*force=*/true);
    save_locked(it->second);
    return {true, ""};
}

void WisdomStore::save_locked(const core::WisdomFile& file) const {
    if (dir_.empty()) {
        return;
    }
    try {
        file.save(path_join(dir_, file.kernel_name() + ".wisdom.json"));
    } catch (const Error&) {
        // Best-effort persistence; the in-memory aggregate keeps serving.
    }
}

json::Value WisdomStore::get(
    const std::string& kernel_name,
    const std::string& device_name,
    const std::string& device_arch,
    const json::Value& problem_json) const {
    json::Value reply = json::Value::object();
    reply["found"] = false;

    core::ProblemSize problem;
    try {
        problem = core::ProblemSize::from_json(problem_json);
    } catch (const Error&) {
        return reply;
    }

    std::lock_guard<std::mutex> lock(mutex_);
    auto it = kernels_.find(kernel_name);
    if (it == kernels_.end()) {
        return reply;
    }
    // The exact §4.5 heuristic a local wisdom file would apply, in place.
    const core::WisdomFile::Selection selection
        = it->second.select(device_name, device_arch, problem);
    if (selection.record == nullptr) {
        return reply;
    }
    reply["found"] = true;
    reply["config"] = selection.record->config.to_json();
    reply["match"] = core::wisdom_match_name(selection.match);
    reply["time_ms"] = selection.record->time_seconds * 1e3;
    reply["provenance"] = selection.record->provenance;
    return reply;
}

size_t WisdomStore::kernel_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return kernels_.size();
}

size_t WisdomStore::record_count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return record_count_;
}

// ---- ArtifactStore ----

ArtifactStore::ArtifactStore(std::string dir): dir_(std::move(dir)) {
    if (dir_.empty()) {
        return;
    }
    create_directories(dir_);
    for (const std::string& path : list_directory(dir_)) {
        if (!is_artifact_file(path)) {
            continue;
        }
        try {
            std::string text = read_text_file(path);
            const rtccache::EntryCheck check = rtccache::validate_entry_text(text);
            const std::string name = path_filename(path);
            const std::string id = name.substr(0, name.size() - 5);  // ".json"
            if (check.valid && check.id == id) {
                entries_[id] = std::move(text);
            }
        } catch (const Error&) {
            // Unreadable seed entries are simply not served.
        }
    }
}

ArtifactStore::PutResult ArtifactStore::put(
    const std::string& id,
    const std::string& entry_text) {
    const rtccache::EntryCheck check = rtccache::validate_entry_text(entry_text);
    if (!check.valid) {
        return {false, "invalid entry: " + check.error};
    }
    if (check.id != id) {
        return {false, "entry id '" + check.id + "' does not match requested id '" + id + "'"};
    }
    std::lock_guard<std::mutex> lock(mutex_);
    entries_[id] = entry_text;
    if (!dir_.empty()) {
        try {
            write_file_atomic(path_join(dir_, id + ".json"), entry_text);
        } catch (const Error&) {
            // Best-effort persistence.
        }
    }
    return {true, ""};
}

std::optional<std::string> ArtifactStore::get(const std::string& id) const {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
        return std::nullopt;
    }
    return it->second;
}

std::vector<std::string> ArtifactStore::ids() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const auto& [id, text] : entries_) {
        out.push_back(id);
    }
    return out;
}

size_t ArtifactStore::count() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

uint64_t ArtifactStore::bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    for (const auto& [id, text] : entries_) {
        total += text.size();
    }
    return total;
}

// ---- Server ----

/// One client connection of the poll loop.
struct Server::Connection {
    Socket socket;
    std::string in;       ///< bytes of the current request so far
    std::string out;      ///< the reply frame, once the request is complete
    size_t sent = 0;      ///< bytes of `out` already sent
    double deadline = 0;  ///< when the frame in `in` or `out` must be done
    bool last = false;    ///< close once `out` is sent (an Error frame)
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      wisdom_(options_.wisdom_dir),
      artifacts_(options_.artifact_dir) {}

Server::~Server() {
    stop();
}

void Server::start() {
    if (running_.load()) {
        return;
    }
    listener_ = Socket::listen(options_.bind_address, options_.port);
    port_ = listener_.bound_port();
    running_.store(true);
    loop_thread_ = std::thread([this] { loop(); });
}

void Server::stop() {
    if (!running_.exchange(false)) {
        return;
    }
    if (loop_thread_.joinable()) {
        loop_thread_.join();
    }
    listener_.close();
}

void Server::loop() {
    std::vector<Connection> connections;
    std::vector<pollfd> fds;
    bool listen = true;
    while (running_.load(std::memory_order_relaxed)) {
        fds.assign(1, pollfd {listener_.fd(), static_cast<short>(listen ? POLLIN : 0), 0});
        listen = true;
        for (const Connection& conn : connections) {
            const short events = conn.out.empty() ? POLLIN : POLLOUT;
            fds.push_back(pollfd {conn.socket.fd(), events, 0});
        }
        ::poll(fds.data(), fds.size(), static_cast<int>(kPollSeconds * 1e3));

        const double now = monotonic_seconds();
        for (size_t i = 0; i < connections.size(); i++) {
            Connection& conn = connections[i];
            bool keep = fds[i + 1].revents == 0
                || (conn.out.empty() ? receive(conn, now) : flush(conn));
            if (keep && (!conn.in.empty() || !conn.out.empty()) && now > conn.deadline) {
                protocol_errors_ += 1;  // the frame did not finish in time
                keep = false;
            }
            if (!keep) {
                buffered_ -= conn.in.size() + conn.out.size();
                conn.socket.close();
            }
        }
        std::erase_if(
            connections, [](const Connection& conn) { return !conn.socket.valid(); });

        if ((fds[0].revents & POLLIN) != 0) {
            try {
                if (std::optional<Socket> socket = listener_.accept(kPollSeconds)) {
                    connections_ += 1;
                    connections.emplace_back().socket = std::move(*socket);
                }
            } catch (const Error&) {
                // Out of descriptors: the pending connection keeps the listener
                // readable, so polling it again at once would spin. Close the
                // oldest idle connection (its client reconnects on its next
                // request); with none idle, leave the listener out for a tick.
                const auto idle = std::find_if(
                    connections.begin(), connections.end(),
                    [](const Connection& conn) { return conn.in.empty() && conn.out.empty(); });
                listen = idle != connections.end();
                if (listen) {
                    connections.erase(idle);
                }
            }
        }
    }
}

bool Server::receive(Connection& conn, double now) {
    char chunk[64 << 10];
    for (;;) {
        size_t frame_bytes = kHeaderBytes;
        if (conn.in.size() >= kHeaderBytes) {
            // Decoded here, not by Socket::recv_frame, so a peer of another
            // protocol version gets an Error frame before the disconnect.
            Header header;
            const DecodeStatus status = decode_header(conn.in.data(), header);
            if (status != DecodeStatus::Ok) {
                protocol_errors_ += 1;
                if (status != DecodeStatus::BadVersion) {
                    // Bad magic / oversized length / reserved bytes: the stream
                    // is garbage and cannot be resynchronized. Drop it.
                    return false;
                }
                return reply(
                    conn,
                    error_frame(
                        "version",
                        "this daemon speaks protocol version "
                            + std::to_string(static_cast<int>(kProtocolVersion))
                            + ", peer sent "
                            + std::to_string(static_cast<int>(header.version))),
                    /*last=*/true);
            }
            frame_bytes += header.payload_bytes;
            if (conn.in.size() == frame_bytes) {
                return answer(conn, header.type);
            }
        }
        const size_t want = std::min(frame_bytes - conn.in.size(), sizeof chunk);
        if (buffered_ + want > kBufferBudgetBytes) {
            refused_ += 1;
            return reply(
                conn, error_frame("busy", "kl-wisdomd has no buffer room for this request"),
                /*last=*/true);
        }
        size_t got = 0;
        try {
            got = conn.socket.recv_some(chunk, want);
        } catch (const Error&) {
            if (!conn.in.empty()) {
                protocol_errors_ += 1;  // hung up or reset mid-frame
            }
            return false;
        }
        if (got == 0) {
            return true;  // the rest has not arrived yet
        }
        if (conn.in.empty()) {
            conn.deadline = now + kIoSeconds;
        }
        conn.in.append(chunk, got);
        buffered_ += got;
    }
}

bool Server::answer(Connection& conn, MsgType type) {
    json::Value payload;
    try {
        payload = decode_payload(std::string_view(conn.in).substr(kHeaderBytes));
    } catch (const Error&) {
        protocol_errors_ += 1;
        return false;  // non-JSON payload
    }
    std::string frame;
    MsgType reply_type = MsgType::Error;
    try {
        const json::Value body = handle(type, payload, reply_type);
        frame = encode_frame(reply_type, body);
    } catch (const Error& e) {
        protocol_errors_ += 1;
        return reply(conn, error_frame("bad-request", e.what()), /*last=*/true);
    }
    if (buffered_ - conn.in.size() + frame.size() > kBufferBudgetBytes) {
        refused_ += 1;
        return reply(
            conn, error_frame("busy", "kl-wisdomd has no buffer room for this reply"),
            /*last=*/true);
    }
    if (options_.verbose) {
        std::fprintf(
            stderr, "[kl-wisdomd] %s -> %s\n", msg_type_name(type),
            msg_type_name(reply_type));
    }
    return reply(conn, std::move(frame), /*last=*/false);
}

bool Server::reply(Connection& conn, std::string frame, bool last) {
    buffered_ = buffered_ - conn.in.size() + frame.size();
    std::string().swap(conn.in);  // frees the buffer; clear() would keep it
    conn.out = std::move(frame);
    conn.sent = 0;
    conn.last = last;
    conn.deadline = monotonic_seconds() + kIoSeconds;
    return flush(conn);
}

bool Server::flush(Connection& conn) {
    while (conn.sent < conn.out.size()) {
        size_t sent = 0;
        try {
            sent = conn.socket.send_some(
                conn.out.data() + conn.sent, conn.out.size() - conn.sent);
        } catch (const Error&) {
            return false;  // client went away mid-reply
        }
        if (sent == 0) {
            return true;  // the socket takes the rest later
        }
        conn.sent += sent;
    }
    if (conn.last) {
        return false;  // an Error frame ends the connection
    }
    buffered_ -= conn.out.size();
    std::string().swap(conn.out);
    return true;
}

json::Value Server::handle(MsgType type, const json::Value& payload, MsgType& reply_type) {
    {
        std::lock_guard<std::mutex> lock(requests_mutex_);
        request_counts_[msg_type_name(type)] += 1;
    }
    json::Value reply = json::Value::object();
    switch (type) {
        case MsgType::Ping: {
            reply_type = MsgType::Pong;
            reply["version"] = kProtocolVersion;
            return reply;
        }
        case MsgType::WisdomGet: {
            reply_type = MsgType::WisdomReply;
            return wisdom_.get(
                payload.get_string_or("kernel", ""),
                payload.get_string_or("device_name", ""),
                payload.get_string_or("device_arch", ""),
                payload.contains("problem") ? payload["problem"] : json::Value::array());
        }
        case MsgType::WisdomPut: {
            reply_type = MsgType::WisdomPutReply;
            const WisdomStore::PutResult result = wisdom_.put(
                payload.get_string_or("kernel", ""),
                payload.contains("record") ? payload["record"] : json::Value());
            reply["accepted"] = result.accepted;
            if (!result.reason.empty()) {
                reply["reason"] = result.reason;
            }
            return reply;
        }
        case MsgType::ArtifactGet: {
            reply_type = MsgType::ArtifactReply;
            const std::optional<std::string> entry
                = artifacts_.get(payload.get_string_or("id", ""));
            reply["found"] = entry.has_value();
            if (entry) {
                reply["entry"] = *entry;
            }
            return reply;
        }
        case MsgType::ArtifactPut: {
            reply_type = MsgType::ArtifactPutReply;
            const ArtifactStore::PutResult result = artifacts_.put(
                payload.get_string_or("id", ""), payload.get_string_or("entry", ""));
            reply["accepted"] = result.accepted;
            if (!result.reason.empty()) {
                reply["reason"] = result.reason;
            }
            return reply;
        }
        case MsgType::Stats: {
            reply_type = MsgType::StatsReply;
            return stats();
        }
        case MsgType::ArtifactList: {
            reply_type = MsgType::ArtifactListReply;
            json::Value ids = json::Value::array();
            for (const std::string& id : artifacts_.ids()) {
                ids.push_back(id);
            }
            reply["ids"] = std::move(ids);
            return reply;
        }
        default:
            throw Error(
                std::string("unexpected message type ") + msg_type_name(type)
                + " (replies are not requests)");
    }
}

json::Value Server::stats() const {
    json::Value out = json::Value::object();
    out["protocol_version"] = kProtocolVersion;
    out["kernels"] = static_cast<uint64_t>(wisdom_.kernel_count());
    out["records"] = static_cast<uint64_t>(wisdom_.record_count());
    out["artifacts"] = static_cast<uint64_t>(artifacts_.count());
    out["artifact_bytes"] = artifacts_.bytes();
    out["connections"] = connections_.load();
    out["protocol_errors"] = protocol_errors_.load();
    out["refused"] = refused_.load();
    json::Value requests = json::Value::object();
    {
        std::lock_guard<std::mutex> lock(requests_mutex_);
        for (const auto& [name, count] : request_counts_) {
            requests[name] = count;
        }
    }
    out["requests"] = std::move(requests);
    return out;
}

}  // namespace kl::netwisdom
