// Launch-submission throughput: eager warm WisdomKernel launches versus
// pre-baked GraphExec replays (docs/GRAPHS.md). Every eager launch pays
// wisdom-based config selection, lint, geometry evaluation and argument
// marshalling; a graph pays all of that once at instantiation, so replay
// is a single locked submission of pre-baked nodes. This harness measures
// host wall-clock submission rates (launches/second) single-threaded and
// with 8 threads hammering one kernel / one shared executable.
//
// Build & run:  ./build/bench/bench_launch_throughput

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "cudasim/context.hpp"
#include "graph/graph.hpp"
#include "nvrtcsim/registry.hpp"
#include "trace/trace.hpp"
#include "util/fs.hpp"

namespace klc = ::kl::core;
namespace klg = ::kl::graph;
using ::kl::sim::Context;

namespace {

constexpr int kThreads = 8;
constexpr int kGraphLaunches = 32;  // launch nodes per recorded graph

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

klc::KernelBuilder vector_add_builder() {
    auto builder = klc::KernelBuilder(
        "vector_add",
        klc::KernelSource::inline_source(
            "vector_add.cu", ::kl::rtc::builtin_kernel_source("vector_add")));
    auto block_size = builder.tune("block_size", {128, 256});
    builder.problem_size(klc::arg3).template_args(block_size).block_size(block_size);
    return builder;
}

/// Launches/second of `launches` eager warm launches on one thread.
double eager_rate(
    klc::WisdomKernel& kernel,
    klc::DeviceArray<float>& c,
    klc::DeviceArray<float>& a,
    klc::DeviceArray<float>& b,
    int n,
    int launches) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < launches; i++) {
        kernel.launch(c, a, b, n);
    }
    return launches / seconds_since(start);
}

/// Aggregate launches/second of kThreads threads eagerly launching the
/// shared kernel.
double eager_rate_threaded(
    klc::WisdomKernel& kernel,
    klc::DeviceArray<float>& c,
    klc::DeviceArray<float>& a,
    klc::DeviceArray<float>& b,
    int n,
    int launches_per_thread) {
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&] {
            for (int i = 0; i < launches_per_thread; i++) {
                kernel.launch(c, a, b, n);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    return double(kThreads) * launches_per_thread / seconds_since(start);
}

/// Launch nodes/second of `replays` replays of a pre-baked graph.
double replay_rate(klg::GraphExec exec, int replays) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < replays; i++) {
        exec.replay();
    }
    return double(kGraphLaunches) * replays / seconds_since(start);
}

/// Seconds per instantiate() of `graph`, averaged over `rounds`.
double instantiate_seconds(const klg::LaunchGraph& graph, int rounds) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < rounds; i++) {
        graph.instantiate();
    }
    return seconds_since(start) / rounds;
}

/// Aggregate launch nodes/second of kThreads threads replaying copies of
/// one shared executable.
double replay_rate_threaded(klg::GraphExec exec, int replays_per_thread) {
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([copy = exec, replays_per_thread]() mutable {
            for (int i = 0; i < replays_per_thread; i++) {
                copy.replay();
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    return double(kThreads) * kGraphLaunches * replays_per_thread
        / seconds_since(start);
}

}  // namespace

int main() {
    // TimingOnly: no functional kernel execution, so the measurement is
    // pure host-side submission cost — the quantity graphs attack.
    auto context = Context::create(
        "NVIDIA RTX A4000", ::kl::sim::ExecutionMode::TimingOnly);
    // The throughput graph below records 32 dependency-free launches over
    // the same buffers — deliberately racy, pure submission-cost fodder —
    // so the KL006-KL009 data-flow analysis stays off for that section.
    klg::set_lint_override(klc::LintMode::Off);

    const std::string wisdom_dir = ::kl::make_temp_dir("kl-bench-graph");
    klc::WisdomKernel kernel(
        vector_add_builder(), klc::WisdomSettings().wisdom_dir(wisdom_dir));

    const int n = 4096;
    klc::DeviceArray<float> c(n), a(n), b(n);

    // Warm up: the first launch compiles; everything measured is warm.
    kernel.launch(c, a, b, n);

    klg::GraphCapture capture;
    for (int i = 0; i < kGraphLaunches; i++) {
        capture.add_launch(kernel, {}, c, a, b, n);
    }
    klg::GraphExec exec = capture.finish().instantiate();
    exec.replay();  // warm-up replay

    const int kEagerLaunches = 20'000;
    const int kReplays = 5'000;

    double eager_1t = eager_rate(kernel, c, a, b, n, kEagerLaunches);
    double eager_8t =
        eager_rate_threaded(kernel, c, a, b, n, kEagerLaunches / kThreads);
    double graph_1t = replay_rate(exec, kReplays);
    double graph_8t = replay_rate_threaded(exec, kReplays / kThreads);

    std::printf("launch submission throughput (host wall clock, warm)\n");
    std::printf("  eager  1 thread : %10.0f launches/s\n", eager_1t);
    std::printf("  eager  %d threads: %10.0f launches/s\n", kThreads, eager_8t);
    std::printf("  replay 1 thread : %10.0f launch nodes/s  (%d-launch graph)\n",
                graph_1t, kGraphLaunches);
    std::printf("  replay %d threads: %10.0f launch nodes/s\n", kThreads, graph_8t);
    std::printf("  speedup 1 thread : %.1fx\n", graph_1t / eager_1t);
    std::printf("  speedup %d threads: %.1fx\n", kThreads, graph_8t / eager_8t);

    if (graph_8t < 10.0 * eager_8t) {
        std::printf("FAILED: %d-thread replay below 10x eager rate\n", kThreads);
        return 1;
    }

    // Graph-lint overhead at instantiation: a dependency-complete chain
    // (clean under KL006-KL009), instantiated with the analyzer off versus
    // on. The static pass must stay a small fraction of instantiation.
    klg::GraphCapture chain;
    klg::NodeId prev = chain.add_launch(kernel, {}, c, a, b, n);
    for (int i = 1; i < kGraphLaunches; i++) {
        prev = chain.add_launch(kernel, {prev}, c, a, b, n);
    }
    klg::LaunchGraph chain_graph = chain.finish();
    chain_graph.instantiate();  // warm caches before timing
    chain_graph.lint();         // populate the memoized analysis too

    // Interleaved min-of-trials: the per-instantiate cost is ~150 us, so a
    // single off-vs-warn pair is at the mercy of scheduler jitter; the
    // minimum over alternating trials isolates the actual lint cost.
    const int kInstantiateRounds = 200;
    const int kTrials = 5;
    double off_s = 1e9;
    double warn_s = 1e9;
    for (int t = 0; t < kTrials; t++) {
        klg::set_lint_override(klc::LintMode::Off);
        off_s = std::min(off_s, instantiate_seconds(chain_graph, kInstantiateRounds));
        klg::set_lint_override(klc::LintMode::Warn);
        warn_s =
            std::min(warn_s, instantiate_seconds(chain_graph, kInstantiateRounds));
    }
    klg::set_lint_override(klc::LintMode::Off);
    double overhead = (warn_s - off_s) / off_s * 100.0;

    std::printf("graph lint overhead at instantiate (%d-launch chain)\n",
                kGraphLaunches);
    std::printf("  lint off : %8.1f us/instantiate\n", off_s * 1e6);
    std::printf("  lint warn: %8.1f us/instantiate\n", warn_s * 1e6);
    std::printf("  overhead : %+.1f%%\n", overhead);
    if (overhead > 5.0) {
        std::printf("FAILED: graph lint overhead above 5%% of instantiation\n");
        return 1;
    }

    // Concurrent capture of large fields (docs/MEMORY.md): recording an
    // upload of a 512^3-byte field must not re-stream the payload. The
    // baseline below is what capture cost before the pool grew
    // copy-on-write payloads — every capture deep-copies the field's
    // bytes into the recording to make replay self-contained — measured
    // against the zero-copy path (an O(1) MemoryPool::snapshot per
    // capture). Both run kThreads threads capturing private fields.
    context->set_mode(::kl::sim::ExecutionMode::Functional);
    ::kl::trace::set_mode(::kl::trace::Mode::Counters);
    ::kl::trace::clear();

    constexpr uint64_t kFieldBytes = 512ull * 512 * 512;  // one 512^3 field
    constexpr int kCapturesPerThread = 4;
    std::vector<::kl::sim::DevicePtr> fields(kThreads);
    for (int t = 0; t < kThreads; t++) {
        fields[t] = context->malloc(kFieldBytes);
        context->memset_d8(fields[t], 0x7F, kFieldBytes);  // materialize
    }

    auto capture_burst = [&](bool deep_copy) {
        auto start = std::chrono::steady_clock::now();
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; t++) {
            threads.emplace_back([&, t] {
                for (int i = 0; i < kCapturesPerThread; i++) {
                    klg::GraphCapture field_capture;
                    if (deep_copy) {
                        const auto* src = static_cast<const std::byte*>(
                            context->memory().resolve_if_materialized(
                                fields[t], kFieldBytes));
                        auto copy = std::make_shared<std::vector<std::byte>>(
                            src, src + kFieldBytes);
                        field_capture.add_upload(
                            fields[t],
                            ::kl::sim::Payload {std::move(copy), kFieldBytes});
                    } else {
                        field_capture.add_upload(fields[t]);
                    }
                    field_capture.finish();
                }
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
        return double(kThreads) * kCapturesPerThread / seconds_since(start);
    };

    double deep_rate = capture_burst(/*deep_copy=*/true);
    double zero_rate = capture_burst(/*deep_copy=*/false);

    // Replay one zero-copy graph per field and pin the re-streaming
    // counters: capture moved no payload bytes, and neither does replay.
    for (int t = 0; t < kThreads; t++) {
        klg::GraphCapture field_capture;
        field_capture.add_upload(fields[t]);
        klg::GraphExec field_exec = field_capture.finish().instantiate();
        field_exec.replay();
    }
    const uint64_t capture_copied =
        ::kl::trace::counter("kl.mem.capture.bytes_copied").value();
    const uint64_t replay_copied =
        ::kl::trace::counter("kl.mem.replay.bytes_copied").value();
    ::kl::trace::set_mode(::kl::trace::Mode::Off);

    std::printf("concurrent capture of %d x %.0f MiB fields (%d threads)\n",
                kCapturesPerThread * kThreads, kFieldBytes / 1048576.0, kThreads);
    std::printf("  deep-copy baseline: %10.1f captures/s\n", deep_rate);
    std::printf("  zero-copy snapshot: %10.1f captures/s\n", zero_rate);
    std::printf("  speedup           : %.1fx\n", zero_rate / deep_rate);
    std::printf("  capture bytes re-streamed: %llu, replay: %llu\n",
                static_cast<unsigned long long>(capture_copied),
                static_cast<unsigned long long>(replay_copied));

    if (zero_rate < 4.0 * deep_rate) {
        std::printf("FAILED: zero-copy capture below 4x the deep-copy baseline\n");
        return 1;
    }
    if (capture_copied != 0 || replay_copied != 0) {
        std::printf("FAILED: zero-copy capture/replay re-streamed payload bytes\n");
        return 1;
    }

    std::printf("bench_launch_throughput OK "
                "(>=10x multi-thread replay, lint overhead <=5%%, "
                ">=4x zero-copy capture, 0 bytes re-streamed)\n");
    return 0;
}
