// Tests for the distributed wisdom & compile-cache tier (src/netwisdom/,
// docs/DISTRIBUTED.md): wire-protocol framing, host:port parsing, the
// daemon's conflict-resolving wisdom store and validating artifact store,
// client<->server round trips, every degraded path (absent daemon, daemon
// killed mid-session, garbage, truncated, split and stalled frames, version
// mismatch, a peer over the daemon's byte budget, a daemon out of
// descriptors — each must fall back to the local tiers, never fail a
// launch), the WisdomKernel network-hit
// integration, and a concurrent-client hammer.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
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

/// The WisdomReply payload a local WisdomFile would give for this query.
json::Value local_reply(
    const core::WisdomFile& local,
    const std::string& device,
    const std::string& arch,
    const ProblemSize& problem) {
    json::Value reply = json::Value::object();
    reply["found"] = false;
    const core::WisdomFile::Selection selection = local.select(device, arch, problem);
    if (selection.record != nullptr) {
        reply["found"] = true;
        reply["config"] = selection.record->config.to_json();
        reply["match"] = core::wisdom_match_name(selection.match);
        reply["time_ms"] = selection.record->time_seconds * 1e3;
        reply["provenance"] = selection.record->provenance;
    }
    return reply;
}

/// The fleet policy of docs/DISTRIBUTED.md#consistency applied to a local
/// WisdomFile: newest date wins, a tie goes to the faster time, the loser's
/// summary joins a "supersedes" history capped at 8. Returns acceptance.
bool fleet_put(core::WisdomFile& local, WisdomRecord record) {
    if (const WisdomRecord* old = local.find(record.device_name, record.problem_size)) {
        const std::string old_date = old->provenance["date"].as_string();
        const std::string new_date = record.provenance["date"].as_string();
        if (new_date < old_date
            || (new_date == old_date && record.time_seconds > old->time_seconds)) {
            return false;
        }
        json::Value history = json::Value::array();
        if (const json::Value* old_history = old->provenance.find("supersedes")) {
            history = *old_history;
        }
        json::Value summary = json::Value::object();
        summary["date"] = old_date;
        summary["hostname"] = old->provenance["hostname"].as_string();
        summary["time_ms"] = old->time_seconds * 1e3;
        history.push_back(std::move(summary));
        if (history.size() > 8) {
            history.as_array().erase(history.as_array().begin());
        }
        record.provenance["supersedes"] = std::move(history);
    }
    local.add(std::move(record), /*force=*/true);
    return true;
}

TEST(NetWisdomStore, AnswersLikeALocalWisdomFileOnRandomUploads) {
    const std::vector<std::pair<std::string, std::string>> devices = {
        {"NVIDIA A100-PCIE-40GB", "Ampere"},
        {"NVIDIA RTX A4000", "Ampere"},
        {"Tesla V100-PCIE-32GB", "Volta"},
        {"NVIDIA TITAN Xp", "Pascal"},
    };
    const std::vector<uint64_t> sizes = {256, 1000, 4096, 100000, 1 << 20};
    std::mt19937 rng(20231);
    auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };

    WisdomStore store("");
    core::WisdomFile local("k");
    size_t rejected = 0;
    for (int i = 0; i < 1000; i++) {
        const auto& [device, arch] = devices[pick(devices.size())];
        WisdomRecord record = make_record(
            32 << pick(4),
            (1 + pick(6)) * 0.25e-3,
            "2026-08-0" + std::to_string(1 + pick(5)) + "T00:00:00Z",
            device,
            arch);
        record.problem_size = ProblemSize(sizes[pick(sizes.size())], 1 + pick(2));
        record.provenance["hostname"] = "node-" + std::to_string(pick(8));
        const json::Value upload = record.to_json();
        const bool accepted = store.put("k", upload).accepted;
        ASSERT_EQ(accepted, fleet_put(local, WisdomRecord::from_json(upload)))
            << "upload " << i;
        rejected += accepted ? 0 : 1;
    }
    EXPECT_GT(rejected, 0u);
    ASSERT_EQ(store.record_count(), local.records().size());
    const auto capped = [](const WisdomRecord& r) {
        const json::Value* history = r.provenance.find("supersedes");
        return history != nullptr && history->size() == 8;
    };
    EXPECT_TRUE(std::any_of(local.records().begin(), local.records().end(), capped));

    // Known devices, an unknown device of a known architecture, one of an
    // unknown architecture and one with none; exact and absent sizes.
    std::vector<std::pair<std::string, std::string>> queries = devices;
    queries.push_back({"NVIDIA A10", "Ampere"});
    queries.push_back({"AMD MI250", "CDNA2"});
    queries.push_back({"unnamed", ""});
    size_t exact = 0;
    for (const auto& [device, arch] : queries) {
        for (uint64_t x : {256u, 4096u, 3000u, 1u << 22}) {
            for (uint64_t y : {1, 2, 3}) {
                const ProblemSize problem(x, y);
                const json::Value reply = store.get("k", device, arch, problem.to_json());
                EXPECT_EQ(reply.dump(), local_reply(local, device, arch, problem).dump())
                    << device << " " << problem.to_string();
                exact += reply.get_string_or("match", "") == "exact" ? 1 : 0;
            }
        }
    }
    EXPECT_GT(exact, 0u);
}

TEST(NetWisdomStore, LoadFoldsADuplicatedScenarioLastRecordWins) {
    // A file put together by hand may hold two records for one scenario.
    // The store keeps the last one, for get and for the next put alike.
    const std::string dir = make_temp_dir("kl-netwisdom-wd");
    json::Value records = json::Value::array();
    records.push_back(make_record(64, 1.0e-3, "2026-08-05T00:00:00Z").to_json());
    records.push_back(
        make_record(32, 1.0e-3, "2026-08-05T00:00:00Z", "NVIDIA RTX A4000", "Ampere", 4096)
            .to_json());
    records.push_back(make_record(128, 2.0e-3, "2026-08-01T00:00:00Z").to_json());
    json::Value file = json::Value::object();
    file["kernel"] = "vector_add";
    file["version"] = "1.0";
    file["records"] = std::move(records);
    json::write_file(path_join(dir, "vector_add.wisdom.json"), file);

    WisdomStore store(dir);
    EXPECT_EQ(store.record_count(), 2u);
    const json::Value reply =
        store.get("vector_add", "NVIDIA RTX A4000", "Ampere", ProblemSize(1000).to_json());
    EXPECT_EQ(reply["config"].get_int_or("block_size", 0), 128);
    EXPECT_EQ(reply.get_string_or("match", ""), "exact");

    // Newer than the kept record (08-01), older than the folded-away one.
    EXPECT_TRUE(
        store.put("vector_add", make_record(256, 3.0e-3, "2026-08-03T00:00:00Z").to_json())
            .accepted);
    EXPECT_EQ(store.record_count(), 2u);
}

TEST(NetWisdomStore, DamagedFileIsQuarantinedNotOverwritten) {
    const std::string dir = make_temp_dir("kl-netwisdom-wd");
    const std::string garbage = "{ \"kernel\": \"k\", \"records\": [ not json";
    write_text_file(path_join(dir, "k.wisdom.json"), garbage);

    WisdomStore store(dir);
    EXPECT_EQ(store.kernel_count(), 0u);
    ASSERT_TRUE(
        store.put("k", make_record(64, 1.0e-3, "2026-08-01T00:00:00Z").to_json()).accepted);

    const auto quarantined = list_directory(path_join(dir, "quarantine"));
    ASSERT_EQ(quarantined.size(), 1u);
    EXPECT_EQ(read_text_file(quarantined[0]), garbage);
    const std::string path = path_join(dir, "k.wisdom.json");
    EXPECT_EQ(core::WisdomFile::load(path, "k").records().size(), 1u);
}

TEST(NetWisdomStore, FullStoreRejectsNewScenariosButAcceptsReplacements) {
    WisdomStore store("");
    json::Value upload = make_record(64, 1.0e-3, "2026-08-01T00:00:00Z").to_json();
    const size_t per_kernel = 256;  // keeps each put's scenario scan short
    for (size_t i = 0; i < kMaxRecords; i++) {
        upload["problem_size"] = ProblemSize(1 + i % per_kernel).to_json();
        ASSERT_TRUE(store.put("k" + std::to_string(i / per_kernel), upload).accepted) << i;
    }
    ASSERT_EQ(store.record_count(), kMaxRecords);

    upload["problem_size"] = ProblemSize(per_kernel + 1).to_json();
    const WisdomStore::PutResult full = store.put("k0", upload);
    EXPECT_FALSE(full.accepted);
    EXPECT_EQ(full.reason.rfind("full:", 0), 0u) << full.reason;
    EXPECT_FALSE(store.put("another-kernel", upload).accepted);
    EXPECT_EQ(store.record_count(), kMaxRecords);

    upload["problem_size"] = ProblemSize(1).to_json();
    upload["provenance"]["date"] = "2026-08-02T00:00:00Z";
    EXPECT_TRUE(store.put("k0", upload).accepted);
    EXPECT_EQ(store.record_count(), kMaxRecords);
    EXPECT_EQ(store.kernel_count(), kMaxRecords / per_kernel);
}

TEST(NetWisdomStore, GetsStayFastAtFourThousandRecords) {
    // Selection runs in place: 2,000 gets that each scan 4,000 records for
    // the nearest size take about 0.1 s in a Release build. The bound is
    // loose enough for sanitizer builds; rebuilding the records into a
    // fresh file per get, which is quadratic, takes minutes.
    WisdomStore store("");
    json::Value upload = make_record(64, 1.0e-3, "2026-08-01T00:00:00Z").to_json();
    for (uint64_t i = 0; i < 4000; i++) {
        upload["problem_size"] = ProblemSize(2 * i + 2, 64, 8).to_json();
        ASSERT_TRUE(store.put("k", upload).accepted);
    }
    const auto start = std::chrono::steady_clock::now();
    size_t found = 0;
    for (uint64_t i = 0; i < 2000; i++) {
        const json::Value reply = store.get(
            "k", "NVIDIA RTX A4000", "Ampere", ProblemSize(4 * i + 3, 64, 8).to_json());
        found += reply.get_string_or("match", "") == "device-nearest" ? 1 : 0;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_EQ(found, 2000u);
    EXPECT_LT(seconds, 5.0);
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
    // The daemon reads these peers on its own schedule, so the client below
    // can be served before it has counted their garbage: wait (up to 5 s)
    // until the daemon has rejected at least one.
    for (int i = 0; i < 500; i++) {
        if (daemon.server.stats().get_int_or("protocol_errors", 0) >= 1) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    // The daemon shrugged all three off and still serves real clients.
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());
    auto stats = client.server_stats();
    ASSERT_TRUE(stats.has_value());
    EXPECT_GE(stats->get_int_or("protocol_errors", 0), 1);
}

TEST(NetWisdomServer, CountsAHalfHeaderAsAProtocolError) {
    DaemonFixture daemon;
    {
        // Five of the twelve header bytes, then hang up.
        Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
        conn.send_all("KLWP\x01", 5, 1.0);
    }
    // The daemon reads the bytes and then the hang-up on its own schedule:
    // wait (up to 5 s) for it to count the truncated header.
    int64_t errors = 0;
    for (int i = 0; i < 500 && errors == 0; i++) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        errors = daemon.server.stats().get_int_or("protocol_errors", 0);
    }
    EXPECT_EQ(errors, 1);
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

/// The frame header of a ping that announces `payload_bytes` of payload.
std::string header_announcing(uint32_t payload_bytes) {
    std::string header = encode_frame(MsgType::Ping, json::Value::object());
    header.resize(kHeaderBytes);
    std::memcpy(&header[8], &payload_bytes, 4);
    return header;
}

/// This process's resident set size, from /proc/self/status.
int64_t resident_bytes() {
    std::ifstream status("/proc/self/status");
    std::string key;
    int64_t kib = 0;
    while (status >> key) {
        if (key == "VmRSS:") {
            status >> kib;
            break;
        }
    }
    return kib * 1024;
}

/// How far resident_bytes() rose above its value at the call while `body`
/// ran, sampled every millisecond on a thread of its own.
int64_t resident_growth_during(const std::function<void()>& body) {
    const int64_t before = resident_bytes();
    std::atomic<bool> done {false};
    int64_t peak = before;
    std::thread sampler([&] {
        while (!done.load()) {
            peak = std::max(peak, resident_bytes());
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    });
    try {
        body();
    } catch (const std::exception& e) {
        ADD_FAILURE() << e.what();
    }
    done.store(true);
    sampler.join();
    return peak - before;
}

TEST(NetWisdomServer, ServesAHeaderSplitAcrossPollTicks) {
    DaemonFixture daemon;
    Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
    const std::string frame = encode_frame(MsgType::Ping, json::Value::object());
    // A slow link: the header arrives in two parts, further apart than the
    // daemon's 0.2 s poll tick.
    conn.send_all(frame.data(), 5, 1.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    conn.send_all(frame.data() + 5, frame.size() - 5, 1.0);
    EXPECT_EQ(conn.recv_frame(2.0).type, MsgType::Pong);
    EXPECT_EQ(daemon.server.stats().get_int_or("protocol_errors", -1), 0);
}

TEST(NetWisdomServer, StalledHeadersCostNoMemory) {
    DaemonFixture daemon;
    const int64_t before = resident_bytes();
    // Each peer announces a maximum-size payload and sends none of it. The
    // daemon must not set aside the announced bytes ahead of their arrival.
    const std::string header = header_announcing(kMaxPayloadBytes);
    std::vector<Socket> stalled;
    for (int i = 0; i < 64; i++) {
        stalled.push_back(Socket::connect("127.0.0.1", daemon.server.port(), 5.0));
        stalled.back().send_all(header.data(), header.size(), 1.0);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    EXPECT_LT(resident_bytes() - before, int64_t {64} << 20);
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());
}

TEST(NetWisdomServer, AFlatArrayFrameCostsBoundedMemory) {
    DaemonFixture daemon;
    // One 64 MiB frame of [0,0,...,0]: 32M values, which a parser without a
    // value limit turns into about 1.8 GiB of json::Value.
    const uint32_t zeros = (kMaxPayloadBytes - 1) / 2;
    std::string frame = header_announcing(2 * zeros + 1) + "[";
    for (uint32_t i = 0; i < zeros; i++) {
        frame += "0,";
    }
    frame.back() = ']';

    const int64_t growth = resident_growth_during([&] {
        Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
        conn.send_all(frame.data(), frame.size(), 30.0);
        // The daemon rejects the payload and hangs up instead of replying.
        EXPECT_THROW(conn.recv_frame(30.0), Socket::ClosedError);
    });
    // The daemon buffers the 64 MiB it was sent and the decode adds at most
    // kMaxPayloadValues values: 100-160 MiB in a plain build, and up to
    // 650 MiB under ThreadSanitizer, whose shadow memory is several times
    // the buffer. Without the limit the decode alone takes 1.8 GiB.
    EXPECT_LT(growth, int64_t {1} << 30);
    EXPECT_EQ(daemon.server.stats().get_int_or("protocol_errors", 0), 1);
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());
}

TEST(NetWisdomSocket, StalledAnnouncedPayloadCostsTheClientNoMemory) {
    // A peer on the daemon's address answers with a header announcing a
    // maximum-size payload and then sends nothing.
    Socket listener = Socket::listen("127.0.0.1", 0);
    Socket conn = Socket::connect("127.0.0.1", listener.bound_port(), 1.0);
    std::optional<Socket> peer = listener.accept(1.0);
    ASSERT_TRUE(peer.has_value());
    const std::string header = header_announcing(kMaxPayloadBytes);
    peer->send_all(header.data(), header.size(), 1.0);

    const int64_t growth = resident_growth_during(
        [&] { EXPECT_THROW(conn.recv_frame(0.5), Socket::TimeoutError); });
    EXPECT_LT(growth, int64_t {16} << 20);
}

TEST(NetWisdomServer, RefusesReadsOverTheByteBudget) {
    DaemonFixture daemon;
    // Each peer sends a maximum-size frame but its last byte, so all it
    // sent stays buffered. The budget holds `fit` such frames.
    std::string frame = header_announcing(kMaxPayloadBytes);
    frame.append(kMaxPayloadBytes - 1, ' ');
    const size_t fit = kBufferBudgetBytes / frame.size();
    ASSERT_GE(fit, 1u);
    std::vector<Socket> peers;
    for (size_t i = 0; i < fit; i++) {
        peers.push_back(Socket::connect("127.0.0.1", daemon.server.port(), 5.0));
        peers.back().send_all(frame.data(), frame.size(), 10.0);
    }
    // The next peer's reads would go over the budget: it gets "busy" and
    // the daemon hangs up, possibly before all of its bytes were sent.
    Socket over = Socket::connect("127.0.0.1", daemon.server.port(), 5.0);
    try {
        over.send_all(frame.data(), frame.size(), 10.0);
    } catch (const Error&) {
    }
    Frame reply = over.recv_frame(5.0);
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(reply.payload.get_string_or("code", ""), "busy");
    EXPECT_EQ(daemon.server.stats().get_int_or("refused", 0), 1);

    // The buffered frames leave room for a small request.
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());
}

TEST(NetWisdomServer, DropsAFrameThatTricklesPastItsDeadline) {
    DaemonFixture daemon;
    // One byte every 100 ms: each is in time for the poll tick, but the
    // frame as a whole is not done within 5 s of its first byte.
    std::string frame = header_announcing(100);
    frame.append(100, ' ');
    Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 1.0);
    const auto start = std::chrono::steady_clock::now();
    bool closed = false;
    for (size_t i = 0; i < frame.size() && !closed; i++) {
        try {
            conn.send_all(&frame[i], 1, 1.0);
            std::string byte;
            conn.recv_exact(byte, 1, 0.1);  // nothing is ever answered
        } catch (const Socket::TimeoutError&) {
            continue;  // still open
        } catch (const Error&) {
            closed = true;  // hung up or reset
        }
    }
    const double elapsed
        = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    EXPECT_TRUE(closed);
    EXPECT_GT(elapsed, 4.5);  // not before the deadline
    EXPECT_EQ(daemon.server.stats().get_int_or("protocol_errors", 0), 1);
}

TEST(NetWisdomServer, RefusesAReplyOverTheByteBudget) {
    DaemonFixture daemon;
    // Two stalled peers leave exactly room for a stats request, and the
    // stats reply is larger than the request.
    const std::string request = encode_frame(MsgType::Stats, json::Value::object());
    std::string first = header_announcing(kMaxPayloadBytes);
    first.append(kMaxPayloadBytes - 1, ' ');
    const size_t rest = kBufferBudgetBytes - request.size() - first.size();
    std::string second = header_announcing(static_cast<uint32_t>(rest - kHeaderBytes + 1));
    second.append(rest - kHeaderBytes, ' ');
    std::vector<Socket> stalled;
    for (const std::string* frame : {&first, &second}) {
        stalled.push_back(Socket::connect("127.0.0.1", daemon.server.port(), 5.0));
        stalled.back().send_all(frame->data(), frame->size(), 10.0);
    }
    // Until the daemon has read every stalled byte the reply still fits:
    // ask again until it does not.
    Socket conn = Socket::connect("127.0.0.1", daemon.server.port(), 5.0);
    Frame reply;
    for (int attempt = 0; attempt < 100; attempt++) {
        conn.send_all(request.data(), request.size(), 5.0);
        reply = conn.recv_frame(5.0);
        if (reply.type == MsgType::Error) {
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(reply.payload.get_string_or("code", ""), "busy");
    EXPECT_EQ(daemon.server.stats().get_int_or("refused", 0), 1);

    stalled.clear();
    Client client(daemon.client_settings());
    EXPECT_TRUE(client.ping());
}

/// CPU seconds process `pid` has used, from /proc/<pid>/stat.
double cpu_seconds(pid_t pid) {
    std::ifstream stat_file("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat_file)), {});
    // utime and stime are fields 14 and 15, the 12th and 13th after comm.
    std::istringstream fields(text.substr(text.rfind(')') + 2));
    std::string field;
    for (int i = 0; i < 11; i++) {
        fields >> field;
    }
    double utime = 0;
    double stime = 0;
    fields >> utime >> stime;
    return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

TEST(NetWisdomServer, ShedsAnIdleConnectionWhenOutOfDescriptors) {
    // The daemon runs in a child process whose descriptor limit leaves it
    // room for 15 connections; the test process keeps its own limit.
    int port_pipe[2];
    int stop_pipe[2];
    ASSERT_EQ(::pipe(port_pipe), 0);
    ASSERT_EQ(::pipe(stop_pipe), 0);
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        ::close(port_pipe[0]);
        ::close(stop_pipe[1]);
        int status = 1;
        try {
            const int lowest_free = ::dup(0);
            ::close(lowest_free);
            rlimit limit {};
            ::getrlimit(RLIMIT_NOFILE, &limit);
            limit.rlim_cur = static_cast<rlim_t>(lowest_free + 16);
            ::setrlimit(RLIMIT_NOFILE, &limit);
            Server server({});
            server.start();
            const uint16_t port = server.port();
            if (::write(port_pipe[1], &port, sizeof port) == sizeof port) {
                char byte = 0;
                status = ::read(stop_pipe[0], &byte, 1) == 0 ? 0 : 1;  // until closed
            }
            server.stop();
        } catch (...) {
        }
        ::_exit(status);
    }
    ::close(port_pipe[1]);
    ::close(stop_pipe[0]);
    struct Reap {
        pid_t child;
        int stop;
        ~Reap() {
            ::close(stop);
            int status = 0;
            ::waitpid(child, &status, 0);
            EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
        }
    } reap {child, stop_pipe[1]};
    uint16_t port = 0;
    ASSERT_EQ(::read(port_pipe[0], &port, sizeof port), static_cast<ssize_t>(sizeof port));
    ::close(port_pipe[0]);

    // More idle peers than the daemon has descriptors for.
    std::vector<Socket> idle;
    for (int i = 0; i < 24; i++) {
        idle.push_back(Socket::connect("127.0.0.1", port, 1.0));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    const double cpu_before = cpu_seconds(child);
    std::this_thread::sleep_for(std::chrono::seconds(1));
    EXPECT_LT(cpu_seconds(child) - cpu_before, 0.25) << "the poll loop spins";

    Settings settings;
    settings.server = "127.0.0.1:" + std::to_string(port);
    settings.connect_timeout_ms = 500;
    settings.io_timeout_ms = 2000;
    Client client(settings);
    EXPECT_TRUE(client.ping());
}

TEST(NetWisdomServer, ServesManyIdleClientsWithoutReconnecting) {
    DaemonFixture daemon;
    // Each client keeps its connection open after its ping, as every
    // process does. An idle connection costs the daemon one pollfd, so
    // none is closed and no client reconnects.
    std::vector<std::unique_ptr<Client>> clients;
    for (size_t i = 0; i < 66; i++) {
        clients.push_back(std::make_unique<Client>(daemon.client_settings()));
        EXPECT_TRUE(clients.back()->ping()) << "client " << i;
    }
    for (size_t i = 0; i < clients.size(); i++) {
        EXPECT_TRUE(clients[i]->ping()) << "client " << i;
    }
    const json::Value stats = daemon.server.stats();
    EXPECT_EQ(stats.get_int_or("refused", 0), 0);
    EXPECT_EQ(stats.get_int_or("connections", 0), 66);
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
    EXPECT_TRUE(kernel.cached_build_overhead(ProblemSize(n)).has_value());
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
    EXPECT_TRUE(kernel.cached_build_overhead(ProblemSize(n)).has_value());
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
    core::DeviceArray<float> c(n), a(n), b(n);
    kernel.bake_launch(core::into_args(c, a, b, n));  // joins the background build
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.net_hits, 1u);
    EXPECT_EQ(stats.compiles_started, 1u);

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
