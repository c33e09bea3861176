#include "netwisdom/protocol.hpp"

#include <cstring>

#include "util/errors.hpp"
#include "util/strings.hpp"

namespace kl::netwisdom {

const char* msg_type_name(MsgType type) noexcept {
    switch (type) {
        case MsgType::Ping:
            return "ping";
        case MsgType::WisdomGet:
            return "wisdom-get";
        case MsgType::WisdomPut:
            return "wisdom-put";
        case MsgType::ArtifactGet:
            return "artifact-get";
        case MsgType::ArtifactPut:
            return "artifact-put";
        case MsgType::Stats:
            return "stats";
        case MsgType::ArtifactList:
            return "artifact-list";
        case MsgType::Pong:
            return "pong";
        case MsgType::WisdomReply:
            return "wisdom-reply";
        case MsgType::WisdomPutReply:
            return "wisdom-put-reply";
        case MsgType::ArtifactReply:
            return "artifact-reply";
        case MsgType::ArtifactPutReply:
            return "artifact-put-reply";
        case MsgType::StatsReply:
            return "stats-reply";
        case MsgType::ArtifactListReply:
            return "artifact-list-reply";
        case MsgType::Error:
            return "error";
    }
    return "?";
}

const char* decode_status_name(DecodeStatus status) noexcept {
    switch (status) {
        case DecodeStatus::Ok:
            return "ok";
        case DecodeStatus::BadMagic:
            return "bad magic";
        case DecodeStatus::BadVersion:
            return "protocol version mismatch";
        case DecodeStatus::BadReserved:
            return "nonzero reserved bytes";
        case DecodeStatus::PayloadTooLarge:
            return "payload length over limit";
    }
    return "?";
}

std::string encode_frame(MsgType type, const json::Value& payload) {
    const std::string body = payload.dump();
    if (body.size() > kMaxPayloadBytes) {
        throw Error("netwisdom frame payload exceeds the protocol limit");
    }
    std::string out;
    out.reserve(kHeaderBytes + body.size());
    out.append(kMagic, sizeof kMagic);
    out.push_back(static_cast<char>(kProtocolVersion));
    out.push_back(static_cast<char>(type));
    out.push_back(0);
    out.push_back(0);
    const uint32_t n = static_cast<uint32_t>(body.size());
    for (int shift = 0; shift < 32; shift += 8) {
        out.push_back(static_cast<char>((n >> shift) & 0xFF));
    }
    out.append(body);
    return out;
}

DecodeStatus decode_header(const void* data, Header& out) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    if (std::memcmp(bytes, kMagic, sizeof kMagic) != 0) {
        return DecodeStatus::BadMagic;
    }
    out.version = bytes[4];
    out.type = static_cast<MsgType>(bytes[5]);
    if (out.version != kProtocolVersion) {
        return DecodeStatus::BadVersion;
    }
    if (bytes[6] != 0 || bytes[7] != 0) {
        return DecodeStatus::BadReserved;
    }
    out.payload_bytes = static_cast<uint32_t>(bytes[8]) | (static_cast<uint32_t>(bytes[9]) << 8)
        | (static_cast<uint32_t>(bytes[10]) << 16) | (static_cast<uint32_t>(bytes[11]) << 24);
    if (out.payload_bytes > kMaxPayloadBytes) {
        return DecodeStatus::PayloadTooLarge;
    }
    return DecodeStatus::Ok;
}

json::Value decode_payload(std::string_view bytes) {
    try {
        return json::parse(bytes, kMaxPayloadValues);
    } catch (const Error& e) {
        throw Error(std::string("netwisdom frame payload is not valid JSON: ") + e.what());
    }
}

HostPort parse_host_port(const std::string& text) {
    const size_t colon = text.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= text.size()) {
        throw Error(
            "invalid KERNEL_LAUNCHER_WISDOM_SERVER value '" + text
            + "' (expected host:port)");
    }
    HostPort out;
    out.host = trim(text.substr(0, colon));
    const std::string port_text(trim(text.substr(colon + 1)));
    unsigned long port = 0;
    try {
        size_t used = 0;
        port = std::stoul(port_text, &used);
        if (used != port_text.size()) {
            throw std::invalid_argument(port_text);
        }
    } catch (const std::exception&) {
        throw Error(
            "invalid KERNEL_LAUNCHER_WISDOM_SERVER value '" + text
            + "' (port is not a number)");
    }
    if (port == 0 || port > 65535) {
        throw Error(
            "invalid KERNEL_LAUNCHER_WISDOM_SERVER value '" + text
            + "' (port out of range)");
    }
    out.port = static_cast<uint16_t>(port);
    return out;
}

}  // namespace kl::netwisdom
