#include "netwisdom/client.hpp"

#include <chrono>
#include <map>

#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace kl::netwisdom {

namespace {

double monotonic_seconds() {
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch()).count();
}

int env_ms(const char* name, int fallback) {
    const auto text = get_env(name);
    if (!text) {
        return fallback;
    }
    try {
        size_t used = 0;
        const int value = std::stoi(*text, &used);
        if (used != text->size() || value <= 0) {
            throw std::invalid_argument(*text);
        }
        return value;
    } catch (const std::exception&) {
        throw Error(
            std::string("invalid ") + name + " value '" + *text
            + "' (expected a positive integer of milliseconds)");
    }
}

}  // namespace

Settings Settings::from_env() {
    Settings out;
    out.server = get_env("KERNEL_LAUNCHER_WISDOM_SERVER").value_or("");
    if (!out.server.empty()) {
        parse_host_port(out.server);  // fail loudly on a typo, right here
    }
    out.io_timeout_ms = env_ms("KERNEL_LAUNCHER_NET_TIMEOUT_MS", out.io_timeout_ms);
    out.connect_timeout_ms = std::min(out.connect_timeout_ms, out.io_timeout_ms);
    out.retry_after_ms = env_ms("KERNEL_LAUNCHER_NET_RETRY_MS", out.retry_after_ms);
    return out;
}

double net_read_seconds(uint64_t bytes) noexcept {
    return 1.5e-3 + static_cast<double>(bytes) / 250e6;
}

Client::Client(Settings settings): settings_(std::move(settings)) {
    if (!settings_.enabled()) {
        return;
    }
    try {
        const HostPort hp = parse_host_port(settings_.server);
        host_ = hp.host;
        port_ = hp.port;
        address_ok_ = true;
    } catch (const Error&) {
        // A malformed address behaves like an unreachable server: fail-open.
        address_ok_ = false;
    }
}

Frame Client::exchange_or_throw(MsgType type, const json::Value& payload) {
    const double io_timeout = settings_.io_timeout_ms * 1e-3;
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (!conn_.valid()) {
            conn_ = Socket::connect(host_, port_, settings_.connect_timeout_ms * 1e-3);
            stats_.connects += 1;
            trace::count("kl.net.connect");
        }
        const bool fresh = attempt > 0;
        try {
            conn_.send_frame(type, payload, io_timeout);
            return conn_.recv_frame(io_timeout);
        } catch (const Socket::TimeoutError&) {
            conn_.close();
            throw;
        } catch (const Error&) {
            conn_.close();
            // A stale persistent connection (daemon restarted, idle reset)
            // surfaces as a send/recv error on the first attempt; retry once
            // on a fresh connection. Errors on the fresh one are real.
            if (fresh) {
                throw;
            }
        }
    }
    throw Error("netwisdom exchange failed");  // unreachable
}

std::optional<Frame>
Client::request(MsgType type, const json::Value& payload, MsgType expected_reply) {
    if (!settings_.enabled() || !address_ok_) {
        return std::nullopt;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (monotonic_seconds() < skip_until_) {
        stats_.breaker_skips += 1;
        trace::count("kl.net.breaker.skipped");
        return std::nullopt;
    }
    stats_.requests += 1;
    trace::count("kl.net.request");
    try {
        Frame reply = exchange_or_throw(type, payload);
        if (reply.type == MsgType::Error) {
            // The daemon answered but refused us (e.g. version mismatch).
            // The stream itself is intact, but an Error frame with code
            // "version" means it will refuse everything — treat like any
            // failure and open the breaker.
            conn_.close();
            note_failure(/*timed_out=*/false);
            return std::nullopt;
        }
        if (reply.type != expected_reply) {
            conn_.close();
            note_failure(/*timed_out=*/false);
            return std::nullopt;
        }
        skip_until_ = 0;
        return reply;
    } catch (const Socket::TimeoutError&) {
        note_failure(/*timed_out=*/true);
        return std::nullopt;
    } catch (const Error&) {
        note_failure(/*timed_out=*/false);
        return std::nullopt;
    }
}

void Client::note_failure(bool timed_out) {
    stats_.errors += 1;
    trace::count("kl.net.error");
    if (timed_out) {
        stats_.timeouts += 1;
        trace::count("kl.net.timeout");
    }
    skip_until_ = monotonic_seconds() + settings_.retry_after_ms * 1e-3;
}

bool Client::ping() {
    const auto reply = request(MsgType::Ping, json::Value::object(), MsgType::Pong);
    return reply.has_value();
}

std::optional<WisdomAnswer> Client::wisdom_get(
    const std::string& kernel_name,
    const std::string& device_name,
    const std::string& device_arch,
    const json::Value& problem) {
    json::Value payload = json::Value::object();
    payload["kernel"] = kernel_name;
    payload["device_name"] = device_name;
    payload["device_arch"] = device_arch;
    payload["problem"] = problem;
    const auto reply = request(MsgType::WisdomGet, payload, MsgType::WisdomReply);
    if (!reply || !reply->payload.get_bool_or("found", false)) {
        return std::nullopt;
    }
    try {
        WisdomAnswer answer;
        answer.config = reply->payload["config"];
        answer.match = reply->payload.get_string_or("match", "full");
        answer.time_seconds = reply->payload.get_double_or("time_ms", 0.0) * 1e-3;
        if (const json::Value* prov = reply->payload.find("provenance")) {
            answer.provenance = *prov;
        }
        return answer;
    } catch (const Error&) {
        return std::nullopt;  // malformed reply — treat as a miss
    }
}

bool Client::wisdom_put(const std::string& kernel_name, const json::Value& record) {
    json::Value payload = json::Value::object();
    payload["kernel"] = kernel_name;
    payload["record"] = record;
    const auto reply = request(MsgType::WisdomPut, payload, MsgType::WisdomPutReply);
    return reply && reply->payload.get_bool_or("accepted", false);
}

std::optional<std::string> Client::artifact_get(const std::string& id) {
    json::Value payload = json::Value::object();
    payload["id"] = id;
    const auto reply = request(MsgType::ArtifactGet, payload, MsgType::ArtifactReply);
    if (!reply || !reply->payload.get_bool_or("found", false)) {
        return std::nullopt;
    }
    std::string entry = reply->payload.get_string_or("entry", "");
    if (entry.empty()) {
        return std::nullopt;
    }
    return entry;
}

bool Client::artifact_put(const std::string& id, const std::string& entry_text) {
    json::Value payload = json::Value::object();
    payload["id"] = id;
    payload["entry"] = entry_text;
    const auto reply = request(MsgType::ArtifactPut, payload, MsgType::ArtifactPutReply);
    return reply && reply->payload.get_bool_or("accepted", false);
}

std::optional<std::vector<std::string>> Client::artifact_list() {
    const auto reply
        = request(MsgType::ArtifactList, json::Value::object(), MsgType::ArtifactListReply);
    if (!reply) {
        return std::nullopt;
    }
    std::vector<std::string> ids;
    if (const json::Value* list = reply->payload.find("ids")) {
        if (list->is_array()) {
            for (const auto& id : list->as_array()) {
                if (id.is_string()) {
                    ids.push_back(id.as_string());
                }
            }
        }
    }
    return ids;
}

std::optional<json::Value> Client::server_stats() {
    const auto reply = request(MsgType::Stats, json::Value::object(), MsgType::StatsReply);
    if (!reply) {
        return std::nullopt;
    }
    return reply->payload;
}

ClientStats Client::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void Client::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    conn_.close();
    skip_until_ = 0;
}

std::shared_ptr<Client> client_for(const Settings& settings) {
    if (!settings.enabled()) {
        return nullptr;
    }
    static std::mutex registry_mutex;
    static std::map<std::string, std::shared_ptr<Client>>* registry
        = new std::map<std::string, std::shared_ptr<Client>>();  // leaked: outlives all users
    std::lock_guard<std::mutex> lock(registry_mutex);
    auto it = registry->find(settings.server);
    if (it != registry->end()) {
        return it->second;
    }
    auto client = std::make_shared<Client>(settings);
    registry->emplace(settings.server, client);
    return client;
}

}  // namespace kl::netwisdom
