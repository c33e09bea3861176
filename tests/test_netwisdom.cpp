// Tests for the distributed wisdom & compile-cache tier (src/netwisdom/,
// docs/DISTRIBUTED.md): wire-protocol framing, host:port parsing, the
// daemon's conflict-resolving wisdom store and validating artifact store,
// client<->server round trips, every degraded path (absent daemon, daemon
// killed mid-session, garbage and truncated frames, version mismatch —
// each must fall back to the local tiers, never fail a launch), the
// WisdomKernel network-hit integration, and a concurrent-client hammer.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "netwisdom/client.hpp"
#include "netwisdom/protocol.hpp"
#include "netwisdom/server.hpp"
#include "netwisdom/socket.hpp"
#include "nvrtcsim/registry.hpp"
#include "rtccache/rtccache.hpp"
#include "util/fs.hpp"

namespace kl::netwisdom {
namespace {

using core::Config;
using core::KernelBuilder;
using core::KernelSource;
using core::ProblemSize;
using core::WisdomKernel;
using core::WisdomRecord;
using core::WisdomSettings;

// ---- fixtures ----

KernelBuilder vector_add_builder() {
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source("vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    core::Expr block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(core::arg3).template_args(block_size).block_size(block_size);
    return builder;
}

WisdomRecord make_record(
    int block_size,
    double time_seconds,
    const std::string& date,
    const std::string& device = "NVIDIA RTX A4000",
    const std::string& arch = "Ampere",
    int n = 1000) {
    WisdomRecord record;
    record.problem_size = ProblemSize(n);
    record.device_name = device;
    record.device_architecture = arch;
    record.config.set("block_size", core::Value(block_size));
    record.time_seconds = time_seconds;
    record.provenance = core::make_provenance("random");
    record.provenance["date"] = date;
    return record;
}

/// A running daemon on an ephemeral loopback port plus client settings
/// pointed at it. In-memory stores unless dirs are given.
struct DaemonFixture {
    Server server;

    explicit DaemonFixture(ServerOptions options = {}): server(std::move(options)) {
        server.start();
    }
    ~DaemonFixture() {
        server.stop();
    }

    std::string address() const {
        return "127.0.0.1:" + std::to_string(server.port());
    }

    Settings client_settings(int io_timeout_ms = 2000) const {
        Settings settings;
        settings.server = address();
        settings.connect_timeout_ms = 500;
        settings.io_timeout_ms = io_timeout_ms;
        settings.retry_after_ms = 50;  // tests should not sit out cool-downs
        return settings;
    }
};

/// host:port of a loopback port with nothing listening: bind an ephemeral
/// port, close it again, and hand out the address. Connects then fail fast
/// with ECONNREFUSED instead of a long timeout.
std::string dead_address() {
    Socket listener = Socket::listen("127.0.0.1", 0);
    const uint16_t port = listener.bound_port();
    listener.close();
    return "127.0.0.1:" + std::to_string(port);
}

// ---- protocol framing ----

TEST(NetWisdomProtocol, FrameRoundTrip) {
    json::Value payload = json::Value::object();
    payload["kernel"] = std::string("vector_add");
    payload["n"] = int64_t(1000);
    const std::string bytes = encode_frame(MsgType::WisdomGet, payload);
    ASSERT_GE(bytes.size(), kHeaderBytes);
    EXPECT_EQ(bytes.compare(0, 4, "KLWP"), 0);

    Header header;
    ASSERT_EQ(decode_header(bytes.data(), header), DecodeStatus::Ok);
    EXPECT_EQ(header.version, kProtocolVersion);
    EXPECT_EQ(header.type, MsgType::WisdomGet);
    EXPECT_EQ(header.payload_bytes, bytes.size() - kHeaderBytes);

    json::Value decoded = decode_payload(bytes.substr(kHeaderBytes));
    EXPECT_EQ(decoded.get_string_or("kernel", ""), "vector_add");
    EXPECT_EQ(decoded.get_int_or("n", 0), 1000);
}

TEST(NetWisdomProtocol, HeaderRejectsEveryViolation) {
    const std::string good = encode_frame(MsgType::Ping, json::Value::object());
    Header header;

    std::string bad = good;
    bad[0] = 'X';
    EXPECT_EQ(decode_header(bad.data(), header), DecodeStatus::BadMagic);

    bad = good;
    bad[4] = char(kProtocolVersion + 1);
    EXPECT_EQ(decode_header(bad.data(), header), DecodeStatus::BadVersion);

    bad = good;
    bad[6] = 1;  // reserved must be zero
    EXPECT_EQ(decode_header(bad.data(), header), DecodeStatus::BadReserved);

    bad = good;
    const uint32_t huge = kMaxPayloadBytes + 1;
    std::memcpy(&bad[8], &huge, 4);
    EXPECT_EQ(decode_header(bad.data(), header), DecodeStatus::PayloadTooLarge);

    EXPECT_THROW(decode_payload("not json"), Error);
}

TEST(NetWisdomProtocol, ParseHostPort) {
    HostPort hp = parse_host_port("tune-server.local:7878");
    EXPECT_EQ(hp.host, "tune-server.local");
    EXPECT_EQ(hp.port, 7878);
    EXPECT_EQ(parse_host_port("127.0.0.1:1").port, 1);
    EXPECT_EQ(parse_host_port("h:65535").port, 65535);

    EXPECT_THROW(parse_host_port(""), Error);
    EXPECT_THROW(parse_host_port("no-port"), Error);
    EXPECT_THROW(parse_host_port(":7878"), Error);
    EXPECT_THROW(parse_host_port("host:"), Error);
    EXPECT_THROW(parse_host_port("host:0"), Error);
    EXPECT_THROW(parse_host_port("host:65536"), Error);
    EXPECT_THROW(parse_host_port("host:7878x"), Error);
    EXPECT_THROW(parse_host_port("host:seven"), Error);
}

// ---- WisdomStore conflict resolution ----

TEST(NetWisdomStore, NewestDateWinsAndKeepsHistory) {
    WisdomStore store("");
    auto first = store.put("vector_add", make_record(64, 2.0e-3, "2026-08-01T00:00:00Z").to_json());
    EXPECT_TRUE(first.accepted);

    // A newer upload replaces the record even though it measured slower
    // (newer toolchain/driver: newest wins), keeping the loser's
    // provenance in its supersedes history.
    auto newer = store.put("vector_add", make_record(128, 3.0e-3, "2026-08-02T00:00:00Z").to_json());
    EXPECT_TRUE(newer.accepted);
    EXPECT_EQ(store.record_count(), 1u);

    json::Value reply = store.get(
        "vector_add", "NVIDIA RTX A4000", "Ampere", ProblemSize(1000).to_json());
    ASSERT_TRUE(reply.get_bool_or("found", false));
    EXPECT_EQ(reply["config"].get_int_or("block_size", 0), 128);
    const json::Value* history = reply["provenance"].find("supersedes");
    ASSERT_NE(history, nullptr);
    EXPECT_EQ(history->as_array().size(), 1u);
}

TEST(NetWisdomStore, StaleAndTiedUploadsAreRejectedWithReasons) {
    WisdomStore store("");
    ASSERT_TRUE(
        store.put("vector_add", make_record(64, 2.0e-3, "2026-08-02T00:00:00Z").to_json())
            .accepted);

    auto stale = store.put("vector_add", make_record(32, 1.0e-3, "2026-08-01T00:00:00Z").to_json());
    EXPECT_FALSE(stale.accepted);
    EXPECT_NE(stale.reason.find("stale"), std::string::npos);

    auto tied_worse =
        store.put("vector_add", make_record(32, 5.0e-3, "2026-08-02T00:00:00Z").to_json());
    EXPECT_FALSE(tied_worse.accepted);
    EXPECT_NE(tied_worse.reason.find("tied date"), std::string::npos);

    // Same date, better time: the tie-break accepts the faster result.
    auto tied_better =
        store.put("vector_add", make_record(32, 1.0e-3, "2026-08-02T00:00:00Z").to_json());
    EXPECT_TRUE(tied_better.accepted);
    EXPECT_EQ(store.record_count(), 1u);

    // Different problem sizes never conflict.
    auto other = store.put(
        "vector_add",
        make_record(64, 2.0e-3, "2026-08-01T00:00:00Z", "NVIDIA RTX A4000", "Ampere", 4096)
            .to_json());
    EXPECT_TRUE(other.accepted);
    EXPECT_EQ(store.record_count(), 2u);
}

TEST(NetWisdomStore, PersistsAcrossRestart) {
    const std::string dir = make_temp_dir("kl-netwisdom-wd");
    {
        WisdomStore store(dir);
        ASSERT_TRUE(
            store.put("vector_add", make_record(128, 2.0e-3, "2026-08-01T00:00:00Z").to_json())
                .accepted);
    }
    WisdomStore reloaded(dir);
    EXPECT_EQ(reloaded.kernel_count(), 1u);
    json::Value reply = reloaded.get(
        "vector_add", "NVIDIA RTX A4000", "Ampere", ProblemSize(1000).to_json());
    EXPECT_TRUE(reply.get_bool_or("found", false));
    EXPECT_EQ(reply["config"].get_int_or("block_size", 0), 128);
}

// ---- ArtifactStore ----

/// One valid rtccache entry text plus its id, produced through the real
/// compile + encode path so validation matches what a node would upload.
struct BuiltEntry {
    std::string id;
    std::string text;
};

BuiltEntry build_entry(int block_size = 32) {
    rtc::register_builtin_kernels();
    auto context = sim::Context::create("NVIDIA RTX A4000");
    core::KernelDef def = vector_add_builder().build();
    Config config;
    config.set("block_size", core::Value(block_size));
    ProblemSize problem(1000);
    auto lowered = core::KernelCompiler::lower(def, config, context->device(), &problem);
    rtccache::CacheKey key {
        def.name, context->device().architecture, lowered.source, lowered.options,
        lowered.name_expression};
    auto output = core::KernelCompiler::compile_lowered(def, lowered);
    BuiltEntry out;
    out.id = key.id();
    out.text = rtccache::encode_entry(key, output.image, output.log, output.compile_seconds);
    return out;
}

TEST(NetWisdomArtifacts, ValidatesUploadsAndRoundTrips) {
    ArtifactStore store("");
    EXPECT_FALSE(store.put("klc-0123456789abcdef", "{\"oops\": true}").accepted);
    EXPECT_FALSE(store.put("not-an-id", "{}").accepted);
    EXPECT_EQ(store.count(), 0u);

    BuiltEntry entry = build_entry();
    auto put = store.put(entry.id, entry.text);
    EXPECT_TRUE(put.accepted) << put.reason;
    // The id must match the entry's own key hash.
    EXPECT_FALSE(store.put("klc-0000000000000000", entry.text).accepted);

    EXPECT_EQ(store.count(), 1u);
    EXPECT_GT(store.bytes(), 0u);
    auto served = store.get(entry.id);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, entry.text);
    EXPECT_FALSE(store.get("klc-ffffffffffffffff").has_value());
    ASSERT_EQ(store.ids().size(), 1u);
    EXPECT_EQ(store.ids()[0], entry.id);
}

TEST(NetWisdomArtifacts, PersistsInRtccacheLayout) {
    const std::string dir = make_temp_dir("kl-netwisdom-art");
    BuiltEntry entry = build_entry(64);
    {
        ArtifactStore store(dir);
        ASSERT_TRUE(store.put(entry.id, entry.text).accepted);
    }
    // The on-disk file is a plain rtccache entry...
    EXPECT_TRUE(file_exists(path_join(dir, entry.id + ".json")));
    EXPECT_TRUE(rtccache::validate_entry_text(read_text_file(path_join(dir, entry.id + ".json")))
                    .valid);
    // ...and a restart (or: seeding from an existing cache dir) reloads it.
    ArtifactStore reloaded(dir);
    EXPECT_EQ(reloaded.count(), 1u);
    EXPECT_TRUE(reloaded.get(entry.id).has_value());
}

// ---- client <-> server round trips ----

TEST(NetWisdomClient, PingStatsAndWisdomRoundTrip) {
    DaemonFixture daemon;
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());

    EXPECT_FALSE(
        client.wisdom_get("vector_add", "NVIDIA RTX A4000", "Ampere", ProblemSize(1000).to_json())
            .has_value());
    EXPECT_TRUE(
        client.wisdom_put("vector_add", make_record(128, 2.0e-3, "2026-08-01T00:00:00Z").to_json()));

    auto answer =
        client.wisdom_get("vector_add", "NVIDIA RTX A4000", "Ampere", ProblemSize(1000).to_json());
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(answer->match, "exact");
    EXPECT_EQ(answer->config.get_int_or("block_size", 0), 128);
    EXPECT_NEAR(answer->time_seconds, 2.0e-3, 1e-9);

    // A stale re-upload is refused end to end.
    EXPECT_FALSE(
        client.wisdom_put("vector_add", make_record(32, 1.0e-3, "2026-07-01T00:00:00Z").to_json()));

    auto stats = client.server_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(stats->get_int_or("kernels", 0), 1);
    EXPECT_EQ(stats->get_int_or("records", 0), 1);
    EXPECT_EQ(stats->get_int_or("protocol_version", 0), kProtocolVersion);

    ClientStats cs = client.stats();
    EXPECT_GE(cs.requests, 5u);
    EXPECT_EQ(cs.errors, 0u);
    EXPECT_EQ(cs.timeouts, 0u);
    // All requests shared one persistent connection.
    EXPECT_EQ(cs.connects, 1u);
}

TEST(NetWisdomClient, ArtifactRoundTrip) {
    DaemonFixture daemon;
    Client client(daemon.client_settings());
    BuiltEntry entry = build_entry();

    EXPECT_FALSE(client.artifact_get(entry.id).has_value());
    EXPECT_TRUE(client.artifact_put(entry.id, entry.text));
    EXPECT_FALSE(client.artifact_put(entry.id, "garbage"));  // validated server-side

    auto served = client.artifact_get(entry.id);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(*served, entry.text);

    auto ids = client.artifact_list();
    ASSERT_TRUE(ids.has_value());
    ASSERT_EQ(ids->size(), 1u);
    EXPECT_EQ((*ids)[0], entry.id);
}

// ---- degraded paths: every failure must fall back, never propagate ----

TEST(NetWisdomClient, AbsentDaemonFailsOpenAndBreakerSkips) {
    Settings settings;
    settings.server = dead_address();
    settings.connect_timeout_ms = 200;
    settings.io_timeout_ms = 200;
    settings.retry_after_ms = 60000;  // long cool-down: second call must skip
    Client client(settings);

    EXPECT_FALSE(client.ping());
    ClientStats after_first = client.stats();
    EXPECT_EQ(after_first.errors, 1u);
    EXPECT_EQ(after_first.breaker_skips, 0u);

    // Within the cool-down window the breaker answers without touching the
    // network at all.
    EXPECT_FALSE(
        client.wisdom_get("k", "d", "a", ProblemSize(1).to_json()).has_value());
    ClientStats after_second = client.stats();
    EXPECT_EQ(after_second.errors, 1u);
    EXPECT_EQ(after_second.breaker_skips, 1u);
}

TEST(NetWisdomClient, MalformedServerStringFailsOpen) {
    Settings settings;
    settings.server = "no-port-here";
    Client client(settings);
    EXPECT_FALSE(client.ping());
    EXPECT_FALSE(client.artifact_get("klc-0000000000000000").has_value());
}

TEST(NetWisdomClient, DaemonKilledBetweenRequestsFailsOpen) {
    auto daemon = std::make_unique<DaemonFixture>();
    Settings settings = daemon->client_settings(300);
    settings.retry_after_ms = 60000;
    Client client(settings);
    EXPECT_TRUE(client.ping());

    daemon.reset();  // daemon gone; the persistent connection is now dead

    EXPECT_FALSE(client.ping());
    EXPECT_FALSE(client.artifact_list().has_value());  // breaker short-circuit
    ClientStats stats = client.stats();
    EXPECT_GE(stats.errors, 1u);
    EXPECT_GE(stats.breaker_skips, 1u);
}

TEST(NetWisdomClient, GarbageSpeakingServerFailsOpen) {
    // A listener that answers every connection with bytes that are not a
    // protocol frame (think: the port of some unrelated service).
    Socket listener = Socket::listen("127.0.0.1", 0);
    const uint16_t port = listener.bound_port();
    std::atomic<bool> stop {false};
    std::thread impostor([&] {
        while (!stop.load()) {
            auto conn = listener.accept(0.05);
            if (!conn) {
                continue;
            }
            try {
                const char junk[] = "HTTP/1.1 200 OK\r\n\r\nhello";
                conn->send_all(junk, sizeof junk - 1, 1.0);
            } catch (const Error&) {
            }
        }
    });

    Settings settings;
    settings.server = "127.0.0.1:" + std::to_string(port);
    settings.connect_timeout_ms = 300;
    settings.io_timeout_ms = 300;
    Client client(settings);
    EXPECT_FALSE(client.ping());
    EXPECT_GE(client.stats().errors, 1u);

    stop.store(true);
    impostor.join();
}

TEST(NetWisdomServer, VersionMismatchAnsweredWithErrorFrame) {
    DaemonFixture daemon;
    Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);

    std::string frame = encode_frame(MsgType::Ping, json::Value::object());
    frame[4] = char(kProtocolVersion + 1);  // future client
    conn.send_all(frame.data(), frame.size(), 1.0);

    Frame reply = conn.recv_frame(2.0);
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(reply.payload.get_string_or("code", ""), "version");
}

TEST(NetWisdomServer, SurvivesTruncatedAndGarbageFrames) {
    DaemonFixture daemon;
    {
        // Half a header, then hang up.
        Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
        conn.send_all("KLWP\x01", 5, 1.0);
    }
    {
        // A full header announcing more payload than ever arrives.
        Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
        std::string frame = encode_frame(MsgType::Ping, json::Value::object());
        uint32_t lie = 4096;
        std::memcpy(&frame[8], &lie, 4);
        conn.send_all(frame.data(), kHeaderBytes, 1.0);
    }
    {
        // Bytes that are not a frame at all.
        Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
        conn.send_all("GET / HTTP/1.1\r\n\r\n", 18, 1.0);
    }
    // The daemon shrugged all three off and still serves real clients.
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());
    auto stats = client.server_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(stats->get_int_or("protocol_errors", 0), 1);
}

TEST(NetWisdomServer, SurvivesDeeplyNestedPayloads) {
    DaemonFixture daemon;
    std::string objects;
    for (int i = 0; i < 200000; i++) {
        objects += "{\"a\":";
    }
    for (const std::string& body : {std::string(8u << 20, '['), objects}) {
        // A well-formed header carrying a payload that nests without end:
        // this used to overflow the parser's stack and kill the daemon.
        Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
        std::string frame =
            encode_frame(MsgType::Ping, json::Value::object()).substr(0, kHeaderBytes);
        const uint32_t length = static_cast<uint32_t>(body.size());
        std::memcpy(&frame[8], &length, 4);
        frame += body;
        conn.send_all(frame.data(), frame.size(), 10.0);
        // The daemon rejects the payload and hangs up instead of replying.
        EXPECT_THROW(conn.recv_frame(10.0), Socket::ClosedError);
    }
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());
    auto stats = client.server_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(stats->get_int_or("protocol_errors", 0), 2);
}

// ---- WisdomKernel integration: the network tier end to end ----

struct KernelFixture {
    std::string cache_dir = make_temp_dir("kl-netwisdom-cache");
    std::string wisdom_dir = make_temp_dir("kl-netwisdom-wisdom");
    std::unique_ptr<sim::Context> context = sim::Context::create("NVIDIA RTX A4000");

    WisdomSettings settings(const std::string& server, rtccache::Mode mode) {
        WisdomSettings s = WisdomSettings()
                               .wisdom_dir(wisdom_dir)
                               .capture_dir(wisdom_dir)
                               .cache_mode(mode)
                               .cache_dir(cache_dir);
        if (!server.empty()) {
            s.net_server(server).net_timeout_ms(2000).net_retry_ms(50);
        }
        return s;
    }
};

TEST(NetWisdomKernel, FreshProcessWarmsFromTheDaemonWithoutCompiling) {
    DaemonFixture daemon;
    const int n = 1000;

    // Node 1: compiles locally and pushes the artifact to the daemon.
    {
        KernelFixture fx;
        core::DeviceArray<float> c(n), a(n), b(n);
        WisdomKernel kernel(
            vector_add_builder(), fx.settings(daemon.address(), rtccache::Mode::ReadWrite));
        const core::LaunchOutcome outcome = kernel.launch(c, a, b, n);
        WisdomKernel::Stats stats = kernel.stats();
        EXPECT_EQ(stats.net_hits, 0u);
        EXPECT_EQ(stats.net_misses, 1u);
        EXPECT_GT(outcome.overhead.compile_seconds, 0.0);
    }
    EXPECT_EQ(daemon.server.artifacts().count(), 1u);

    // Node 2: fresh (empty) local cache dir, same daemon. The first launch
    // is served over the network: no nvrtc, modeled transfer cost only.
    KernelFixture node2;
    core::DeviceArray<float> c(n), a(n), b(n);
    WisdomKernel kernel(
        vector_add_builder(), node2.settings(daemon.address(), rtccache::Mode::ReadWrite));
    const core::OverheadBreakdown overhead = kernel.launch(c, a, b, n).overhead;
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.net_hits, 1u);
    EXPECT_EQ(stats.net_misses, 0u);
    EXPECT_EQ(stats.disk_hits, 0u);
    EXPECT_EQ(overhead.compile_seconds, 0.0);
    EXPECT_GT(overhead.net_seconds, 0.0);
    EXPECT_LT(overhead.net_seconds, 0.05);
    EXPECT_EQ(kernel.instance_state(ProblemSize(n)), WisdomKernel::InstanceState::Ready);
    EXPECT_EQ(node2.context->last_launch().kernel_name, "vector_add<32>");

    // The served entry was written through to node 2's local disk cache,
    // so a third launch in that "process" would not even need the network.
    bool wrote_through = false;
    for (const std::string& path : list_directory(node2.cache_dir)) {
        wrote_through |= path_filename(path).rfind("klc-", 0) == 0;
    }
    EXPECT_TRUE(wrote_through);
}

TEST(NetWisdomKernel, RemoteWisdomBeatsAnEmptyLocalFile) {
    DaemonFixture daemon;
    // The fleet already tuned this scenario: block_size=128 is the answer.
    ASSERT_TRUE(
        daemon.server.wisdom()
            .put("vector_add", make_record(128, 1.5e-3, "2026-08-01T00:00:00Z").to_json())
            .accepted);

    KernelFixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    WisdomKernel kernel(
        vector_add_builder(), fx.settings(daemon.address(), rtccache::Mode::Off));
    const core::LaunchOutcome outcome = kernel.launch(c, a, b, n);

    // With no local wisdom the default (32) would have been chosen; the
    // daemon's exact-match record wins instead.
    EXPECT_EQ(outcome.match, core::WisdomMatch::Exact);
    EXPECT_EQ(fx.context->last_launch().kernel_name, "vector_add<128>");
}

TEST(NetWisdomKernel, UnreachableServerDegradesToLocalCompile) {
    KernelFixture fx;
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    WisdomKernel kernel(
        vector_add_builder(), fx.settings(dead_address(), rtccache::Mode::ReadWrite));
    const core::LaunchOutcome outcome = kernel.launch(c, a, b, n);  // must not throw

    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.net_hits, 0u);
    EXPECT_EQ(stats.net_misses, 1u);
    EXPECT_GT(outcome.overhead.compile_seconds, 0.0);
    EXPECT_EQ(kernel.instance_state(ProblemSize(n)), WisdomKernel::InstanceState::Ready);
    EXPECT_EQ(fx.context->last_launch().kernel_name, "vector_add<32>");
}

TEST(NetWisdomKernel, CompileAheadUsesTheNetworkTier) {
    DaemonFixture daemon;
    KernelFixture fx;
    const int n = 1000;
    {
        WisdomKernel kernel(
            vector_add_builder(), fx.settings(daemon.address(), rtccache::Mode::ReadWrite));
        core::DeviceArray<float> c(n), a(n), b(n);
        kernel.launch(c, a, b, n);
    }
    ASSERT_EQ(daemon.server.artifacts().count(), 1u);

    KernelFixture node2;
    WisdomKernel kernel(
        vector_add_builder(), node2.settings(daemon.address(), rtccache::Mode::ReadWrite));
    kernel.compile_ahead(ProblemSize(n));
    ASSERT_TRUE(kernel.wait_ready(ProblemSize(n)));
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.net_hits, 1u);
    EXPECT_EQ(stats.compiles_started, 1u);

    core::DeviceArray<float> c(n), a(n), b(n);
    EXPECT_FALSE(kernel.launch(c, a, b, n).cold);
}

// ---- concurrency ----

TEST(NetWisdomConcurrency, ManyClientsHammerOneDaemon) {
    DaemonFixture daemon;
    BuiltEntry entry = build_entry();
    ASSERT_TRUE(daemon.server.artifacts().put(entry.id, entry.text).accepted);

    constexpr int kThreads = 8;
    constexpr int kRequests = 24;
    std::atomic<int> failures {0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            Client client(daemon.client_settings(5000));
            for (int i = 0; i < kRequests; i++) {
                switch ((t + i) % 3) {
                    case 0:
                        if (!client.ping()) {
                            failures.fetch_add(1);
                        }
                        break;
                    case 1:
                        if (!client.artifact_get(entry.id).has_value()) {
                            failures.fetch_add(1);
                        }
                        break;
                    default:
                        if (!client.server_stats().has_value()) {
                            failures.fetch_add(1);
                        }
                        break;
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0);

    Client client(daemon.client_settings());
    auto stats = client.server_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(stats->get_int_or("connections", 0), kThreads);
}

}  // namespace
}  // namespace kl::netwisdom
