#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace kl::netwisdom {

/// Version of the wire protocol spoken by kl-wisdomd and the in-library
/// client. A peer announcing any other version is answered with one Error
/// frame and disconnected; the client treats that as a miss (fail-open),
/// never as a failed launch. Bump on any incompatible frame or payload
/// change (docs/DISTRIBUTED.md#versioning).
inline constexpr uint8_t kProtocolVersion = 1;

/// First four bytes of every frame. Rejecting foreign bytes early is what
/// drops a port scanner or a mistargeted HTTP client after 12 bytes, before
/// the daemon buffers anything it announces.
inline constexpr char kMagic[4] = {'K', 'L', 'W', 'P'};

/// Upper bound on one frame's payload. Larger length fields are treated as
/// garbage (the connection is dropped), so a corrupt length can never make
/// a peer try to allocate gigabytes.
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Most JSON values (an array, an object and a scalar each count one) one
/// frame payload may hold. A parsed value takes about 60 bytes, so decoding
/// a frame costs at most about 15 MiB, where 64 MiB of `[0,0,...]` would
/// otherwise cost about 1.8 GiB. The largest frame the tests and
/// bench_wisdom_service send holds 19 values; an ArtifactList reply of
/// 262,000 ids still fits.
inline constexpr size_t kMaxPayloadValues = size_t {1} << 18;

/// Fixed 12-byte frame header; payload (JSON, UTF-8) follows immediately.
///
///   offset  size  field
///   0       4     magic "KLWP"
///   4       1     protocol version (kProtocolVersion)
///   5       1     message type (MsgType)
///   6       2     reserved, must be 0
///   8       4     payload byte count, little-endian
inline constexpr size_t kHeaderBytes = 12;

/// Message types. Requests are < 0x80; every reply is request | 0x80.
/// Error (0xFF) may answer any request.
enum class MsgType : uint8_t {
    Ping = 0x01,          ///< {} — liveness probe
    WisdomGet = 0x02,     ///< {kernel, device_name, device_arch, problem}
    WisdomPut = 0x03,     ///< {kernel, record} — one tuning result
    ArtifactGet = 0x04,   ///< {id} — "klc-<16hex>" rtccache entry id
    ArtifactPut = 0x05,   ///< {id, entry} — entry is the full entry text
    Stats = 0x06,         ///< {} — server counters and store sizes
    ArtifactList = 0x07,  ///< {} — ids of every artifact held

    Pong = 0x81,           ///< {version}
    WisdomReply = 0x82,    ///< {found, config?, match?, time_ms?, provenance?}
    WisdomPutReply = 0x83, ///< {accepted, reason?}
    ArtifactReply = 0x84,  ///< {found, entry?}
    ArtifactPutReply = 0x85,  ///< {accepted, reason?}
    StatsReply = 0x86,     ///< {artifacts, kernels, records, requests, ...}
    ArtifactListReply = 0x87,  ///< {ids: [...]}

    Error = 0xFF,  ///< {code, message}; code "version" forces disconnect
};

const char* msg_type_name(MsgType type) noexcept;

/// One decoded frame.
struct Frame {
    MsgType type = MsgType::Error;
    json::Value payload;
};

/// Serializes a frame: header + compact JSON payload.
std::string encode_frame(MsgType type, const json::Value& payload);

/// Outcome of decoding a header. Anything but Ok means the byte stream is
/// not (or no longer) speaking this protocol; the connection must be
/// dropped — there is no way to resynchronize a length-framed stream.
enum class DecodeStatus {
    Ok,
    BadMagic,        ///< first four bytes are not "KLWP"
    BadVersion,      ///< version byte != kProtocolVersion
    BadReserved,     ///< reserved bytes are not zero
    PayloadTooLarge, ///< length field exceeds kMaxPayloadBytes
};

const char* decode_status_name(DecodeStatus status) noexcept;

/// Parsed header fields.
struct Header {
    uint8_t version = 0;
    MsgType type = MsgType::Error;
    uint32_t payload_bytes = 0;
};

/// Validates and unpacks the fixed header (`data` must hold kHeaderBytes).
DecodeStatus decode_header(const void* data, Header& out);

/// Parses a payload as JSON. Throws kl::Error with context on malformed
/// bytes (a truncated or garbage payload after a valid header) and on a
/// payload of more than kMaxPayloadValues values.
json::Value decode_payload(std::string_view bytes);

/// Splits "host:port". Throws kl::Error on malformed input or a port
/// outside [1, 65535].
struct HostPort {
    std::string host;
    uint16_t port = 0;
};
HostPort parse_host_port(const std::string& text);

}  // namespace kl::netwisdom
