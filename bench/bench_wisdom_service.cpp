// The "tune once, warm a fleet" experiment (docs/DISTRIBUTED.md): an
// in-process kl-wisdomd serves tuned configurations and compiled-instance
// artifacts to a fleet of simulated nodes, and this harness quantifies
// what the network tier buys and what it costs:
//
//   1. fleet warm-up  — N fresh nodes first-launching the same kernel,
//      independent cold starts versus against a daemon warmed by node 0:
//      modeled first-launch overhead per node and fleet-wide speedup,
//      with the invariant that warm nodes run zero NVRTC compiles.
//   2. fail-open cost — wall-clock of the same workload with no server
//      configured versus an unreachable server: the breaker must keep the
//      degraded run within a few percent, and every launch must succeed.
//   3. wire throughput — loopback requests/second for pings and ~KiB
//      artifact fetches over one persistent connection.
//
// Build & run:  ./build/bench/bench_wisdom_service

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "cudasim/context.hpp"
#include "netwisdom/client.hpp"
#include "netwisdom/server.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/fs.hpp"

namespace klc = ::kl::core;
namespace kln = ::kl::netwisdom;
using ::kl::sim::Context;

namespace {

constexpr int kFleetNodes = 8;
constexpr const char* kDevice = "NVIDIA A100-PCIE-40GB";

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

klc::KernelBuilder vector_add_builder() {
    ::kl::rtc::register_builtin_kernels();
    auto builder = klc::KernelBuilder(
        "vector_add",
        klc::KernelSource::inline_source(
            "vector_add.cu", ::kl::rtc::builtin_kernel_source("vector_add")));
    auto block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(klc::arg3).template_args(block_size).block_size(block_size);
    return builder;
}

/// One simulated node: its own context, cache dir and wisdom dir, so the
/// only state it can share with the rest of the fleet is the daemon.
struct NodeOutcome {
    klc::OverheadBreakdown overhead;   ///< modeled first-launch overhead
    klc::WisdomKernel::Stats stats;
};

NodeOutcome run_node(const std::string& server) {
    auto context = Context::create(kDevice);
    klc::WisdomSettings settings = klc::WisdomSettings()
                                       .wisdom_dir(::kl::make_temp_dir("kl-bench-wisdom"))
                                       .cache_mode(::kl::rtccache::Mode::ReadWrite)
                                       .cache_dir(::kl::make_temp_dir("kl-bench-cache"));
    if (!server.empty()) {
        settings.net_server(server).net_timeout_ms(2000).net_retry_ms(3000);
    }
    klc::WisdomKernel kernel(vector_add_builder(), settings);
    const int n = 1 << 20;
    klc::DeviceArray<float> c(n), a(n), b(n);
    const klc::OverheadBreakdown overhead = kernel.launch(c, a, b, n).overhead;
    return {overhead, kernel.stats()};
}

void fleet_warmup() {
    std::printf("--- fleet warm-up: %d nodes, first launch of vector_add ---\n", kFleetNodes);

    // Baseline: every node on its own (no daemon) — N full compiles.
    double cold_total = 0;
    uint64_t cold_compiles = 0;
    for (int i = 0; i < kFleetNodes; i++) {
        NodeOutcome node = run_node("");
        cold_total += node.overhead.total();
        cold_compiles += node.stats.compiles_started;
    }

    // Fleet: node 0 compiles and publishes; nodes 1..N-1 fetch.
    kln::Server server({});
    server.start();
    const std::string address = "127.0.0.1:" + std::to_string(server.port());
    double warm_total = 0;
    double first_node = 0;
    double warm_node_worst = 0;
    uint64_t warm_compiles = 0;
    uint64_t net_hits = 0;
    for (int i = 0; i < kFleetNodes; i++) {
        NodeOutcome node = run_node(address);
        warm_total += node.overhead.total();
        if (i == 0) {
            first_node = node.overhead.total();
        } else {
            warm_node_worst = std::max(warm_node_worst, node.overhead.total());
            warm_compiles += node.stats.compiles_started - node.stats.net_hits;
            net_hits += node.stats.net_hits;
        }
    }
    server.stop();

    std::printf("  independent cold starts : %7.1f ms total (%lu compiles)\n",
                cold_total * 1e3, static_cast<unsigned long>(cold_compiles));
    std::printf("  daemon-warmed fleet     : %7.1f ms total "
                "(node 0: %.1f ms compile+push, worst warm node: %.2f ms)\n",
                warm_total * 1e3, first_node * 1e3, warm_node_worst * 1e3);
    std::printf("  warm nodes              : %lu/%d net hits, %lu nvrtc compiles\n",
                static_cast<unsigned long>(net_hits), kFleetNodes - 1,
                static_cast<unsigned long>(warm_compiles));
    std::printf("  fleet-wide speedup      : %.1fx\n", cold_total / warm_total);
    if (warm_compiles != 0 || net_hits != static_cast<uint64_t>(kFleetNodes - 1)) {
        std::printf("  WARNING: warm nodes were expected to compile nothing\n");
    }
}

void fail_open_cost() {
    std::printf("--- fail-open cost: unreachable daemon vs no daemon ---\n");

    // host:port with nothing listening: connects fail fast (refused), and
    // after the first failure the breaker skips the server entirely.
    kln::Socket probe = kln::Socket::listen("127.0.0.1", 0);
    const std::string dead = "127.0.0.1:" + std::to_string(probe.bound_port());
    probe.close();

    const int kRounds = 20;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kRounds; i++) {
        run_node("");
    }
    const double baseline = seconds_since(start);

    start = std::chrono::steady_clock::now();
    int failures = 0;
    for (int i = 0; i < kRounds; i++) {
        NodeOutcome node = run_node(dead);
        if (node.stats.compiles_started != 1) {
            failures++;
        }
    }
    const double degraded = seconds_since(start);

    std::printf("  %d cold first-launches, no server     : %7.1f ms wall\n",
                kRounds, baseline * 1e3);
    std::printf("  %d cold first-launches, dead server   : %7.1f ms wall\n",
                kRounds, degraded * 1e3);
    std::printf("  overhead                              : %+6.1f%%  (launch failures: %d)\n",
                (degraded / baseline - 1.0) * 100.0, failures);
}

void wire_throughput() {
    std::printf("--- wire throughput: one persistent loopback connection ---\n");
    kln::Server server({});
    server.start();
    kln::Settings settings;
    settings.server = "127.0.0.1:" + std::to_string(server.port());
    settings.io_timeout_ms = 5000;
    kln::Client client(settings);

    // Seed one real compiled-instance artifact.
    auto context = Context::create(kDevice);
    klc::KernelDef def = vector_add_builder().build();
    klc::Config config;
    config.set("block_size", klc::Value(128));
    klc::ProblemSize problem(1 << 20);
    auto lowered = klc::KernelCompiler::lower(def, config, context->device(), &problem);
    ::kl::rtccache::CacheKey key {
        def.name, context->device().architecture, lowered.source, lowered.options,
        lowered.name_expression};
    auto output = klc::KernelCompiler::compile_lowered(def, lowered);
    const std::string entry =
        ::kl::rtccache::encode_entry(key, output.image, output.log, output.compile_seconds);
    client.artifact_put(key.id(), entry);

    const int kPings = 2000;
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kPings; i++) {
        client.ping();
    }
    double elapsed = seconds_since(start);
    std::printf("  ping                 : %7.0f req/s (%.0f us/req)\n",
                kPings / elapsed, elapsed / kPings * 1e6);

    const int kFetches = 1000;
    start = std::chrono::steady_clock::now();
    for (int i = 0; i < kFetches; i++) {
        client.artifact_get(key.id());
    }
    elapsed = seconds_since(start);
    std::printf("  artifact fetch (%4zu B): %6.0f req/s (%.0f us/req)\n",
                entry.size(), kFetches / elapsed, elapsed / kFetches * 1e6);
    server.stop();
}

}  // namespace

int main() {
    std::printf("bench_wisdom_service: distributed wisdom & compile-cache tier\n");
    std::printf("device: %s, kernel: vector_add (4 configs)\n\n", kDevice);
    fleet_warmup();
    std::printf("\n");
    fail_open_cost();
    std::printf("\n");
    wire_throughput();
    return 0;
}
