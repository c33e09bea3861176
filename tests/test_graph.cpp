// Tests for the launch-graph subsystem (src/graph/, docs/GRAPHS.md):
// capture/finish/instantiate/replay semantics, functional equivalence with
// eager launches (including seeded randomized DAGs), scalar updates,
// clear_cache invalidation, timing/batching on the simulated stream
// timeline, trace integration, and concurrent replay.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "graph/graph.hpp"
#include "nvrtcsim/registry.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace kl::graph {
namespace {

/// Forces a trace mode for the duration of a test and wipes recorded state
/// on entry and exit.
struct ScopedTrace {
    explicit ScopedTrace(trace::Mode m) {
        trace::set_mode(m);
        trace::clear();
    }
    ~ScopedTrace() {
        trace::clear();
        trace::set_mode(trace::Mode::Off);
    }
};

core::KernelBuilder vector_add_builder() {
    rtc::register_builtin_kernels();
    core::KernelBuilder builder(
        "vector_add",
        core::KernelSource::inline_source(
            "vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    core::Expr block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(core::arg3).template_args(block_size).block_size(block_size);
    return builder;
}

core::KernelBuilder saxpy_builder() {
    rtc::register_builtin_kernels();
    core::KernelBuilder builder(
        "saxpy",
        core::KernelSource::inline_source(
            "saxpy.cu", rtc::builtin_kernel_source("saxpy")));
    core::Expr bs = builder.tune("BLOCK_SIZE", {64, 128, 256});
    builder.problem_size(core::arg3).block_size(bs);
    return builder;
}

struct Fixture {
    std::string dir = make_temp_dir("kl-graph");
    std::unique_ptr<sim::Context> context;

    explicit Fixture(sim::ExecutionMode mode = sim::ExecutionMode::Functional):
        context(sim::Context::create("NVIDIA RTX A4000", mode)) {
        // Several tests here deliberately record racy or dependency-free
        // DAGs (randomized differential suites, wide memset graphs); the
        // KL006-KL009 data-flow analysis is exercised separately in
        // test_graph_lint.cpp.
        set_lint_override(core::LintMode::Off);
    }

    ~Fixture() {
        set_lint_override(std::nullopt);
    }

    core::WisdomSettings settings() {
        return core::WisdomSettings().wisdom_dir(dir);
    }
};

uint64_t count_events(
    const std::vector<trace::TraceEvent>& events,
    const std::string& name) {
    uint64_t n = 0;
    for (const trace::TraceEvent& event : events) {
        if (event.name == name) {
            n++;
        }
    }
    return n;
}

/// Runs `action` with the trace cleared first and returns duration_us of
/// the last span named `name` it recorded (-1 when none).
template<typename F>
double span_us_of(const std::string& name, F&& action) {
    trace::clear();
    action();
    double us = -1;
    for (const trace::TraceEvent& event : trace::events_snapshot()) {
        if (event.name == name) {
            us = event.duration_us;
        }
    }
    return us;
}

// --- capture ----------------------------------------------------------------

TEST(GraphCapture_, RecordsNodesDensely) {
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 64;
    core::DeviceArray<float> c(n), a(n), b(n);
    std::vector<float> host(n);

    GraphCapture capture;
    NodeId n0 = capture.add_memset(a.ptr(), 0, a.byte_size());
    NodeId n1 = capture.add_memcpy_htod(b.ptr(), host.data(), b.byte_size(), {n0});
    NodeId n2 = capture.add_launch(kernel, {n0, n1}, c, a, b, n);
    NodeId n3 = capture.add_memcpy_dtoh(host.data(), c.ptr(), c.byte_size(), {n2});
    NodeId n4 = capture.add_memcpy_dtod(a.ptr(), c.ptr(), c.byte_size(), {n2});
    EXPECT_EQ(n0, 0u);
    EXPECT_EQ(n1, 1u);
    EXPECT_EQ(n2, 2u);
    EXPECT_EQ(n3, 3u);
    EXPECT_EQ(n4, 4u);

    LaunchGraph graph = capture.finish();
    ASSERT_EQ(graph.nodes().size(), 5u);
    EXPECT_EQ(graph.nodes()[0].kind, NodeKind::Memset);
    EXPECT_EQ(graph.nodes()[1].kind, NodeKind::MemcpyHtoD);
    EXPECT_EQ(graph.nodes()[2].kind, NodeKind::Launch);
    EXPECT_EQ(graph.nodes()[2].deps, (std::vector<NodeId> {0, 1}));
    EXPECT_EQ(graph.nodes()[3].kind, NodeKind::MemcpyDtoH);
    EXPECT_EQ(graph.nodes()[4].kind, NodeKind::MemcpyDtoD);
}

TEST(GraphCapture_, RejectsUnrecordedDependency) {
    Fixture fx;
    const int n = 16;
    core::DeviceArray<float> a(n);
    GraphCapture capture;
    capture.add_memset(a.ptr(), 0, a.byte_size());
    // Node #1 may only depend on node #0; #5 does not exist yet.
    EXPECT_THROW(capture.add_memset(a.ptr(), 1, a.byte_size(), {5}), Error);
    // Self-dependency is a forward reference too.
    EXPECT_THROW(capture.add_memset(a.ptr(), 1, a.byte_size(), {1}), Error);
    EXPECT_EQ(capture.finish().nodes().size(), 1u);
}

TEST(GraphCapture_, FinishResetsTheCapture) {
    Fixture fx;
    const int n = 16;
    core::DeviceArray<float> a(n);
    GraphCapture capture;
    capture.add_memset(a.ptr(), 7, a.byte_size());
    LaunchGraph first = capture.finish();
    EXPECT_EQ(first.nodes().size(), 1u);

    capture.add_memset(a.ptr(), 1, a.byte_size());
    capture.add_memset(a.ptr(), 2, a.byte_size(), {0});
    LaunchGraph second = capture.finish();
    EXPECT_EQ(second.nodes().size(), 2u);  // finish() emptied the capture
    EXPECT_EQ(first.nodes().size(), 1u);
}

// --- instantiate ------------------------------------------------------------

TEST(GraphInstantiate, CompilesEachProblemSizeOnce) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1024;
    core::DeviceArray<float> c(n), a(n), b(n);

    GraphCapture capture;
    NodeId first = capture.add_launch(kernel, {}, c, a, b, n);
    capture.add_launch(kernel, {first}, c, c, b, n);
    LaunchGraph graph = capture.finish();
    GraphExec exec = graph.instantiate();

    EXPECT_EQ(graph.nodes().size(), 2u);
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 1u);
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), 0u);
    EXPECT_TRUE(kernel.cached_build_overhead(core::ProblemSize(n)).has_value());
    // Both nodes share one compiled instance.
    EXPECT_EQ(kernel.stats().compiles_started, 1u);
}

TEST(GraphInstantiate, InvalidGeometryIsReportedAsKL003) {
    Fixture fx;
    rtc::register_builtin_kernels();
    core::KernelBuilder builder(
        "vector_add",
        core::KernelSource::inline_source(
            "vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    core::Expr block_size = builder.tune("block_size", {128});
    builder.problem_size(core::arg3).template_args(block_size).block_size(block_size);
    // Compiles fine, but no device offers 1 MiB of dynamic shared memory.
    builder.shared_memory(core::Expr(1 << 20));
    core::WisdomKernel kernel(builder, fx.settings());

    const int n = 4096;
    core::DeviceArray<float> c(n), a(n), b(n);
    GraphCapture capture;
    capture.add_launch(kernel, {}, c, a, b, n);
    LaunchGraph graph = capture.finish();
    try {
        graph.instantiate();
        FAIL() << "expected CudaError";
    } catch (const CudaError& e) {
        EXPECT_NE(std::string(e.what()).find("KL003"), std::string::npos) << e.what();
    }
}

TEST(GraphInstantiate, LintErrorModeRejectsBadArgumentsAsKL004) {
    Fixture fx;
    core::WisdomKernel kernel(
        vector_add_builder(),
        fx.settings().lint_mode(core::LintMode::Error));
    const int n = 256;
    core::DeviceArray<float> c(n), a(n), b(n);
    GraphCapture capture;
    // `n` is declared `int`; passing a device buffer is a KL004 error.
    capture.add_launch(kernel, {}, c, a, b, b);
    LaunchGraph graph = capture.finish();
    EXPECT_THROW(graph.instantiate(), DefinitionError);
}

TEST(GraphInstantiate, OutOfBoundsMemoryOperandThrows) {
    Fixture fx;
    const int n = 16;
    core::DeviceArray<float> a(n);
    std::vector<float> host(n);
    GraphCapture capture;
    capture.add_memcpy_htod(a.ptr(), host.data(), a.byte_size() + 4);
    EXPECT_THROW(capture.finish().instantiate(), CudaError);

    GraphCapture bogus;
    bogus.add_memset(static_cast<sim::DevicePtr>(0xdead0000beef), 0, 64);
    EXPECT_THROW(bogus.finish().instantiate(), CudaError);
}

TEST(GraphInstantiate, EmptyGraphReplays) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    GraphCapture capture;
    LaunchGraph graph = capture.finish();
    GraphExec exec = graph.instantiate();
    exec.replay();
    exec.replay();
    EXPECT_EQ(graph.nodes().size(), 0u);
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), 2u);
}

// --- functional replay ------------------------------------------------------

TEST(GraphReplay, MatchesEagerVectorAdd) {
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    std::vector<float> ha(n), hb(n);
    for (int i = 0; i < n; i++) {
        ha[i] = 0.25f * static_cast<float>(i);
        hb[i] = 1.5f - static_cast<float>(i);
    }

    // Eager reference on its own buffers.
    core::DeviceArray<float> ec(n), ea(ha), eb(hb);
    kernel.launch(ec, ea, eb, n);
    std::vector<float> expected = ec.copy_to_host();

    // Captured pipeline on a separate buffer set.
    core::DeviceArray<float> rc(n), ra(n), rb(n);
    std::vector<float> out(n, -1.0f);
    GraphCapture capture;
    NodeId upload_a = capture.add_memcpy_htod(ra.ptr(), ha.data(), ra.byte_size());
    NodeId upload_b = capture.add_memcpy_htod(rb.ptr(), hb.data(), rb.byte_size());
    NodeId launch = capture.add_launch(kernel, {upload_a, upload_b}, rc, ra, rb, n);
    capture.add_memcpy_dtoh(out.data(), rc.ptr(), rc.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();
    exec.replay();

    ASSERT_EQ(out.size(), expected.size());
    EXPECT_EQ(std::memcmp(out.data(), expected.data(), n * sizeof(float)), 0);
    EXPECT_EQ(std::memcmp(rc.copy_to_host().data(), expected.data(), n * sizeof(float)), 0);
}

TEST(GraphReplay, HundredReplaysAreIdempotentAndMonotone) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 512;
    std::vector<float> hy(n, 1.0f), hx(n);
    for (int i = 0; i < n; i++) {
        hx[i] = static_cast<float>(i % 17);
    }
    core::DeviceArray<float> y(n), x(hx);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId reset = capture.add_memcpy_htod(y.ptr(), hy.data(), y.byte_size());
    NodeId launch = capture.add_launch(kernel, {reset}, y, x, 2.0f, n);
    capture.add_memcpy_dtoh(out.data(), y.ptr(), y.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();

    std::vector<float> expected(n);
    for (int i = 0; i < n; i++) {
        expected[i] = 2.0f * hx[i] + 1.0f;
    }

    double previous_end = 0;
    for (int round = 0; round < 100; round++) {
        exec.replay();
        // The y <- y0 upload node makes every replay self-contained, so the
        // result must be bit-stable across rounds.
        ASSERT_EQ(std::memcmp(out.data(), expected.data(), n * sizeof(float)), 0)
            << "round " << round;
        ASSERT_GT(exec.last_replay_end(), previous_end) << "round " << round;
        previous_end = exec.last_replay_end();
    }
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), 100u);
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 1u);
    EXPECT_EQ(kernel.stats().compiles_started, 1u);
}

TEST(GraphReplay, MemsetAndDtodNodes) {
    Fixture fx;
    const int n = 128;
    core::DeviceArray<float> a(n), b(n);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId fill = capture.add_memset(a.ptr(), 0x41, a.byte_size());
    NodeId copy = capture.add_memcpy_dtod(b.ptr(), a.ptr(), a.byte_size(), {fill});
    capture.add_memcpy_dtoh(out.data(), b.ptr(), b.byte_size(), {copy});
    capture.finish().instantiate().replay();

    std::vector<unsigned char> raw(n * sizeof(float));
    std::memcpy(raw.data(), out.data(), raw.size());
    for (unsigned char byte : raw) {
        ASSERT_EQ(byte, 0x41);
    }
}

TEST(GraphReplay, FanOutFanIn) {
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 256;
    std::vector<float> ha(n, 3.0f), hb(n, 4.0f);
    core::DeviceArray<float> a(n), b(n), s1(n), s2(n), total(n);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId ua = capture.add_memcpy_htod(a.ptr(), ha.data(), a.byte_size());
    NodeId ub = capture.add_memcpy_htod(b.ptr(), hb.data(), b.byte_size());
    // Fan-out: two independent sums of the same uploads; fan-in: their sum.
    NodeId l1 = capture.add_launch(kernel, {ua, ub}, s1, a, b, n);
    NodeId l2 = capture.add_launch(kernel, {ua, ub}, s2, b, a, n);
    NodeId l3 = capture.add_launch(kernel, {l1, l2}, total, s1, s2, n);
    capture.add_memcpy_dtoh(out.data(), total.ptr(), total.byte_size(), {l3});
    LaunchGraph graph = capture.finish();
    GraphExec exec = graph.instantiate();
    exec.replay();

    for (int i = 0; i < n; i++) {
        ASSERT_EQ(out[i], 14.0f) << i;
    }
    EXPECT_EQ(graph.nodes().size(), 6u);
}

TEST(GraphReplay, CopiesShareOneExecutable) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    const int n = 32;
    core::DeviceArray<float> a(n);
    GraphCapture capture;
    capture.add_memset(a.ptr(), 0, a.byte_size());
    GraphExec exec = capture.finish().instantiate();
    GraphExec alias = exec;
    alias.replay();
    EXPECT_EQ(alias.last_replay_end(), exec.last_replay_end());
    exec.replay();
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), 2u);
    EXPECT_EQ(alias.last_replay_end(), exec.last_replay_end());
}

TEST(GraphReplay, ExplicitStreamCarriesTheWork) {
    Fixture fx;
    const int n = 4096;
    core::DeviceArray<float> a(n);
    sim::Stream& stream = fx.context->create_stream();
    const double default_before = fx.context->default_stream().busy_until();

    GraphCapture capture;
    capture.add_memset(a.ptr(), 1, a.byte_size());
    GraphExec exec = capture.finish().instantiate();
    exec.replay(&stream);

    EXPECT_EQ(fx.context->default_stream().busy_until(), default_before);
    EXPECT_EQ(stream.busy_until(), exec.last_replay_end());
    EXPECT_GT(stream.busy_until(), 0.0);
}

// --- timeline semantics -----------------------------------------------------

TEST(GraphTiming, ReplayChargesOneLaunchOverhead) {
    Fixture fx(sim::ExecutionMode::TimingOnly);
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1 << 16;
    core::DeviceArray<float> c(n), a(n), b(n);
    const int lanes = 8;

    GraphCapture capture;
    for (int i = 0; i < lanes; i++) {
        capture.add_launch(kernel, {}, c, a, b, n);
    }
    GraphExec exec = capture.finish().instantiate();

    const double overhead = fx.context->device().launch_overhead_us * 1e-6;
    const double before = fx.context->clock().now();
    exec.replay();
    const double host_cost = fx.context->clock().now() - before;
    // The whole 8-node graph costs the host a single submission.
    EXPECT_NEAR(host_cost, overhead, overhead * 1e-6);

    // The eager equivalent pays it per launch (instance is warm by now).
    const double eager_before = fx.context->clock().now();
    for (int i = 0; i < lanes; i++) {
        kernel.launch(c, a, b, n);
    }
    EXPECT_NEAR(fx.context->clock().now() - eager_before, lanes * overhead, overhead * 1e-3);
}

TEST(GraphTiming, DependenciesSerializeOnTheStream) {
    Fixture fx(sim::ExecutionMode::TimingOnly);
    const uint64_t bytes = 64 << 20;
    core::DeviceArray<float> a(bytes / sizeof(float));
    const double overhead = fx.context->device().launch_overhead_us * 1e-6;

    // Three equal memsets, independent... (each graph gets a fresh stream
    // so the submission time is the host clock, not leftover stream work)
    sim::Stream& wide_stream = fx.context->create_stream();
    GraphCapture wide;
    wide.add_memset(a.ptr(), 0, bytes);
    wide.add_memset(a.ptr(), 1, bytes);
    wide.add_memset(a.ptr(), 2, bytes);
    GraphExec wide_exec = wide.finish().instantiate();
    double start = fx.context->clock().now() + overhead;
    wide_exec.replay(&wide_stream);
    const double wide_span = wide_exec.last_replay_end() - start;

    // ... versus chained: the chain must take three times as long.
    sim::Stream& chain_stream = fx.context->create_stream();
    GraphCapture chain;
    NodeId m0 = chain.add_memset(a.ptr(), 0, bytes);
    NodeId m1 = chain.add_memset(a.ptr(), 1, bytes, {m0});
    chain.add_memset(a.ptr(), 2, bytes, {m1});
    GraphExec chain_exec = chain.finish().instantiate();
    start = fx.context->clock().now() + overhead;
    chain_exec.replay(&chain_stream);
    const double chain_span = chain_exec.last_replay_end() - start;

    EXPECT_GT(wide_span, 0.0);
    EXPECT_NEAR(chain_span, 3.0 * wide_span, wide_span * 1e-6);
}

TEST(GraphTiming, ReplayExtendsTheStreamHorizon) {
    Fixture fx(sim::ExecutionMode::TimingOnly);
    const int n = 1 << 20;
    core::DeviceArray<float> a(n);
    GraphCapture capture;
    NodeId m0 = capture.add_memset(a.ptr(), 0, a.byte_size());
    capture.add_memset(a.ptr(), 1, a.byte_size(), {m0});
    GraphExec exec = capture.finish().instantiate();

    sim::Stream& stream = fx.context->default_stream();
    exec.replay();
    EXPECT_EQ(stream.busy_until(), exec.last_replay_end());
    const double first_end = exec.last_replay_end();
    exec.replay();
    EXPECT_GT(exec.last_replay_end(), first_end);
    EXPECT_EQ(stream.busy_until(), exec.last_replay_end());

    // synchronize() drains the graph's work like any other stream work.
    fx.context->synchronize();
    EXPECT_GE(fx.context->clock().now(), exec.last_replay_end());
}

// --- scalar updates ---------------------------------------------------------

TEST(GraphUpdate, ScalarUpdateChangesTheResult) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 200;
    std::vector<float> hy(n, 1.0f), hx(n, 2.0f);
    core::DeviceArray<float> y(n), x(hx);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId reset = capture.add_memcpy_htod(y.ptr(), hy.data(), y.byte_size());
    NodeId launch = capture.add_launch(kernel, {reset}, y, x, 10.0f, n);
    capture.add_memcpy_dtoh(out.data(), y.ptr(), y.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();

    exec.replay();
    EXPECT_EQ(out[0], 21.0f);  // 10*2 + 1

    exec.update_scalar(launch, 2, 0.5f);
    exec.replay();
    EXPECT_EQ(out[0], 2.0f);  // 0.5*2 + 1
    EXPECT_EQ(out[n - 1], 2.0f);

    // No re-instantiation happened: the same baked instance replays.
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 1u);
    EXPECT_EQ(kernel.stats().compiles_started, 1u);
}

TEST(GraphUpdate, RejectsInvalidScalarUpdates) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 64;
    core::DeviceArray<float> y(n), x(n);
    GraphCapture capture;
    NodeId fill = capture.add_memset(y.ptr(), 0, y.byte_size());
    NodeId launch = capture.add_launch(kernel, {fill}, y, x, 1.0f, n);
    GraphExec exec = capture.finish().instantiate();

    // Unknown node, non-launch node, bad argument index.
    EXPECT_THROW(exec.update_scalar(99, 2, 1.0f), Error);
    EXPECT_THROW(exec.update_scalar(fill, 0, 1.0f), Error);
    EXPECT_THROW(exec.update_scalar(launch, 9, 1.0f), Error);
    // Buffers are not update-able.
    EXPECT_THROW(exec.update_scalar(launch, 0, 1.0f), Error);
    // Scalar type must match exactly (float argument, double value).
    EXPECT_THROW(exec.update_scalar(launch, 2, 1.0), Error);

    // Changing `n` would select a different instance: refused, and the
    // recorded value stays in effect.
    EXPECT_THROW(exec.update_scalar(launch, 3, n * 2), Error);
    exec.replay();
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), 1u);
}

TEST(GraphUpdate, GeometryReadingScalarRederivesTiming) {
    ScopedTrace scope(trace::Mode::Full);
    Fixture fx;
    // Here saxpy's `a` (argument 2) also sizes the dynamic shared memory in
    // KiB, so it is in the kernel's read-set; in plain saxpy it is not.
    // Registration lint is off: its nominal arguments ask for more shared
    // memory than any device has.
    core::KernelBuilder builder = saxpy_builder();
    builder.shared_memory(core::arg2 * 1024);
    core::WisdomKernel sized(builder, fx.settings().lint_mode(core::LintMode::Off));
    core::WisdomKernel plain(saxpy_builder(), fx.settings());
    EXPECT_TRUE(sized.reads_arg(2));
    EXPECT_FALSE(plain.reads_arg(2));
    EXPECT_TRUE(plain.reads_arg(3));

    // Enough blocks that the shared memory per block moves the number of
    // waves, and with it the modeled duration.
    const int n = 1 << 16;
    const std::vector<float> hy(n, 1.0f);
    core::DeviceArray<float> y(n), x(std::vector<float>(n, 2.0f));
    auto replay_us = [&](GraphExec& exec) {
        y.copy_from_host(hy);
        return span_us_of("graph.kernel", [&] { exec.replay(); });
    };
    auto eager_us = [&](core::WisdomKernel& kernel, float a) {
        return span_us_of("kernel.exec", [&] { kernel.launch(y, x, a, n); });
    };

    GraphCapture capture;
    NodeId node = capture.add_launch(sized, {}, y, x, 8.0f, n);
    GraphExec exec = capture.finish().instantiate();
    const double at_8k = replay_us(exec);
    EXPECT_EQ(y.copy_to_host()[0], 17.0f);  // 8*2 + 1
    EXPECT_EQ(at_8k, eager_us(sized, 8.0f));

    // 40 KiB per block: fewer resident blocks, more waves.
    exec.update_scalar(node, 2, 40.0f);
    const double at_40k = replay_us(exec);
    EXPECT_EQ(y.copy_to_host()[0], 81.0f);
    EXPECT_GT(at_40k, at_8k);
    EXPECT_EQ(at_40k, eager_us(sized, 40.0f));

    // 60 KiB is over the 48 KiB per-block limit: refused, and the previous
    // value, geometry and duration still replay.
    EXPECT_THROW(exec.update_scalar(node, 2, 60.0f), CudaError);
    EXPECT_EQ(replay_us(exec), at_40k);
    EXPECT_EQ(y.copy_to_host()[0], 81.0f);

    // Outside the read-set: same modeled duration, new functional result.
    GraphCapture plain_capture;
    NodeId plain_node = plain_capture.add_launch(plain, {}, y, x, 8.0f, n);
    GraphExec plain_exec = plain_capture.finish().instantiate();
    const double plain_us = replay_us(plain_exec);
    EXPECT_EQ(y.copy_to_host()[0], 17.0f);
    plain_exec.update_scalar(plain_node, 2, 40.0f);
    EXPECT_EQ(replay_us(plain_exec), plain_us);
    EXPECT_EQ(y.copy_to_host()[0], 81.0f);
}

// --- clear_cache invalidation ----------------------------------------------

TEST(GraphInvalidation, ClearCacheTriggersReinstantiation) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 300;
    std::vector<float> ha(n, 5.0f), hb(n, 7.0f);
    core::DeviceArray<float> c(n), a(ha), b(hb);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId launch = capture.add_launch(kernel, {}, c, a, b, n);
    capture.add_memcpy_dtoh(out.data(), c.ptr(), c.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();
    exec.replay();
    EXPECT_EQ(out[0], 12.0f);
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 1u);

    const uint64_t epoch_before = kernel.cache_epoch();
    kernel.clear_cache();
    EXPECT_EQ(kernel.cache_epoch(), epoch_before + 1);
    EXPECT_FALSE(kernel.cached_build_overhead(core::ProblemSize(n)).has_value());

    exec.replay();
    EXPECT_EQ(out[0], 12.0f);
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 2u);
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), 2u);
    // The re-instantiation recompiled the dropped instance.
    EXPECT_EQ(kernel.stats().compiles_started, 2u);
    EXPECT_TRUE(kernel.cached_build_overhead(core::ProblemSize(n)).has_value());

    // Stable again: further replays stay on the new bake.
    exec.replay();
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 2u);
}

TEST(GraphInvalidation, ScalarUpdateSurvivesReinstantiation) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 100;
    std::vector<float> hy(n, 0.0f), hx(n, 1.0f);
    core::DeviceArray<float> y(n), x(hx);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId reset = capture.add_memcpy_htod(y.ptr(), hy.data(), y.byte_size());
    NodeId launch = capture.add_launch(kernel, {reset}, y, x, 1.0f, n);
    capture.add_memcpy_dtoh(out.data(), y.ptr(), y.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();

    exec.update_scalar(launch, 2, 42.0f);
    kernel.clear_cache();
    exec.replay();
    // The updated value, not the recorded 1.0f, survives the re-bake.
    EXPECT_EQ(out[0], 42.0f);
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 2u);
}

// --- trace integration ------------------------------------------------------

TEST(GraphTrace, CountersAccumulate) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 128;
    core::DeviceArray<float> c(n), a(n), b(n);

    GraphCapture capture;
    NodeId fill = capture.add_memset(a.ptr(), 0, a.byte_size());
    NodeId launch = capture.add_launch(kernel, {fill}, c, a, b, n);
    GraphExec exec = capture.finish().instantiate();
    exec.replay();
    exec.replay();
    exec.update_scalar(launch, 3, n);  // same value: type/problem-size legal
    kernel.clear_cache();
    exec.replay();

    std::map<std::string, uint64_t> counters = trace::counters_snapshot();
    EXPECT_EQ(counters["kl.graph.captures"], 1u);
    EXPECT_EQ(counters["kl.graph.instantiates"], 2u);  // initial + invalidation
    EXPECT_EQ(counters["kl.graph.invalidations"], 1u);
    EXPECT_EQ(counters["kl.graph.replays"], 3u);
    EXPECT_EQ(counters["kl.graph.nodes_replayed"], 6u);
    EXPECT_EQ(counters["kl.graph.scalar_updates"], 1u);
    // Spans are off in counters mode.
    EXPECT_TRUE(trace::events_snapshot().empty());
}

TEST(GraphTrace, SpansCoverCaptureInstantiateReplay) {
    ScopedTrace scope(trace::Mode::Full);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 128;
    std::vector<float> ha(n, 1.0f);
    core::DeviceArray<float> c(n), a(n), b(n);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId up = capture.add_memcpy_htod(a.ptr(), ha.data(), a.byte_size());
    NodeId launch = capture.add_launch(kernel, {up}, c, a, b, n);
    capture.add_memcpy_dtoh(out.data(), c.ptr(), c.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();
    exec.replay();
    exec.replay();

    std::vector<trace::TraceEvent> events = trace::events_snapshot();
    EXPECT_EQ(count_events(events, "graph.capture"), 1u);
    EXPECT_EQ(count_events(events, "graph.instantiate"), 1u);
    EXPECT_EQ(count_events(events, "graph.replay"), 2u);
    // Per-node spans on the stream track: one per node per replay.
    EXPECT_EQ(count_events(events, "graph.kernel"), 2u);
    EXPECT_EQ(count_events(events, "graph.memcpy.htod"), 2u);
    EXPECT_EQ(count_events(events, "graph.memcpy.dtoh"), 2u);

    const uint32_t stream_track = trace::named_track("stream 0");
    for (const trace::TraceEvent& event : events) {
        if (event.name == "graph.kernel") {
            EXPECT_EQ(event.track, stream_track);
            EXPECT_EQ(event.domain, trace::Domain::Sim);
            EXPECT_EQ(event.category, "graph");
        }
        if (event.name == "graph.replay") {
            EXPECT_EQ(event.domain, trace::Domain::Host);
        }
    }
}

// --- randomized differential testing ---------------------------------------

struct RandomOp {
    int kind = 0;  // 0 launch, 1 htod, 2 dtoh, 3 dtod, 4 memset
    int a = 0, b = 0, c = 0;
    uint8_t fill = 0;
    std::vector<NodeId> deps;
};

constexpr int kPoolSize = 6;
constexpr int kRandomN = 256;

std::vector<RandomOp> make_random_plan(uint32_t seed) {
    std::mt19937 rng(seed);
    const size_t count = 5 + rng() % 46;  // 5..50 nodes
    std::vector<RandomOp> plan(count);
    for (size_t i = 0; i < count; i++) {
        RandomOp& op = plan[i];
        op.kind = static_cast<int>(rng() % 5);
        op.a = static_cast<int>(rng() % kPoolSize);
        op.b = static_cast<int>(rng() % kPoolSize);
        op.c = static_cast<int>(rng() % kPoolSize);
        op.fill = static_cast<uint8_t>(rng() % 256);
        // Fan-in: up to three dependencies on earlier nodes.
        for (size_t j = 0; i > 0 && j < 3; j++) {
            if (rng() % 4 == 0) {
                op.deps.push_back(rng() % i);
            }
        }
    }
    return plan;
}

class GraphRandomized: public ::testing::TestWithParam<uint32_t> {};

TEST_P(GraphRandomized, ReplayMatchesEagerBitForBit) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const std::vector<RandomOp> plan = make_random_plan(GetParam());
    const uint64_t bytes = kRandomN * sizeof(float);

    // Deterministic initial contents and upload sources, one per pool slot.
    std::vector<std::vector<float>> init(kPoolSize), uploads(kPoolSize);
    std::mt19937 data_rng(GetParam() * 7919 + 1);
    for (int s = 0; s < kPoolSize; s++) {
        init[s].resize(kRandomN);
        uploads[s].resize(kRandomN);
        for (int i = 0; i < kRandomN; i++) {
            init[s][i] = static_cast<float>(static_cast<int>(data_rng() % 1000) - 500);
            uploads[s][i] = static_cast<float>(static_cast<int>(data_rng() % 1000) - 500);
        }
    }

    auto make_pool = [&] {
        std::vector<core::DeviceArray<float>> pool;
        pool.reserve(kPoolSize);
        for (int s = 0; s < kPoolSize; s++) {
            pool.emplace_back(init[s]);
        }
        return pool;
    };
    std::vector<core::DeviceArray<float>> eager_pool = make_pool();
    std::vector<core::DeviceArray<float>> replay_pool = make_pool();
    std::vector<std::vector<float>> eager_out(plan.size()),
        replay_out(plan.size());
    for (size_t i = 0; i < plan.size(); i++) {
        if (plan[i].kind == 2) {
            eager_out[i].assign(kRandomN, -1.0f);
            replay_out[i].assign(kRandomN, -1.0f);
        }
    }

    const int rounds = 100;

    // Eager reference: the recorded program, executed node by node.
    for (int round = 0; round < rounds; round++) {
        for (size_t i = 0; i < plan.size(); i++) {
            const RandomOp& op = plan[i];
            switch (op.kind) {
                case 0:
                    kernel.launch(
                        eager_pool[op.c], eager_pool[op.a], eager_pool[op.b], kRandomN);
                    break;
                case 1:
                    fx.context->memcpy_htod(
                        eager_pool[op.a].ptr(), uploads[op.b].data(), bytes);
                    break;
                case 2:
                    fx.context->memcpy_dtoh(
                        eager_out[i].data(), eager_pool[op.a].ptr(), bytes);
                    break;
                case 3:
                    fx.context->memory().copy(
                        eager_pool[op.a].ptr(), eager_pool[op.b].ptr(), bytes);
                    break;
                case 4:
                    fx.context->memset_d8(eager_pool[op.a].ptr(), op.fill, bytes);
                    break;
            }
        }
    }

    // Captured version of the same program on the second pool.
    GraphCapture capture;
    for (size_t i = 0; i < plan.size(); i++) {
        const RandomOp& op = plan[i];
        switch (op.kind) {
            case 0:
                capture.add_launch(
                    kernel,
                    op.deps,
                    replay_pool[op.c],
                    replay_pool[op.a],
                    replay_pool[op.b],
                    kRandomN);
                break;
            case 1:
                capture.add_memcpy_htod(
                    replay_pool[op.a].ptr(), uploads[op.b].data(), bytes, op.deps);
                break;
            case 2:
                capture.add_memcpy_dtoh(
                    replay_out[i].data(), replay_pool[op.a].ptr(), bytes, op.deps);
                break;
            case 3:
                capture.add_memcpy_dtod(
                    replay_pool[op.a].ptr(), replay_pool[op.b].ptr(), bytes, op.deps);
                break;
            case 4:
                capture.add_memset(replay_pool[op.a].ptr(), op.fill, bytes, op.deps);
                break;
        }
    }
    LaunchGraph graph = capture.finish();
    ASSERT_EQ(graph.nodes().size(), plan.size());
    GraphExec exec = graph.instantiate();

    double previous_end = 0;
    for (int round = 0; round < rounds; round++) {
        exec.replay();
        ASSERT_GT(exec.last_replay_end(), previous_end) << "round " << round;
        previous_end = exec.last_replay_end();
    }
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), static_cast<uint64_t>(rounds));

    // Bit-identical device buffers...
    for (int s = 0; s < kPoolSize; s++) {
        std::vector<float> eager_host = eager_pool[s].copy_to_host();
        std::vector<float> replay_host = replay_pool[s].copy_to_host();
        ASSERT_EQ(std::memcmp(eager_host.data(), replay_host.data(), bytes), 0)
            << "buffer " << s;
    }
    // ... and bit-identical downloads.
    for (size_t i = 0; i < plan.size(); i++) {
        if (plan[i].kind == 2) {
            ASSERT_EQ(std::memcmp(eager_out[i].data(), replay_out[i].data(), bytes), 0)
                << "download at node " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds,
    GraphRandomized,
    ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

// --- concurrency ------------------------------------------------------------

TEST(GraphConcurrency, EightThreadsReplayOneExecutable) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx(sim::ExecutionMode::TimingOnly);
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 2048;
    core::DeviceArray<float> c(n), a(n), b(n);

    GraphCapture capture;
    NodeId fill = capture.add_memset(a.ptr(), 0, a.byte_size());
    NodeId l1 = capture.add_launch(kernel, {fill}, c, a, b, n);
    NodeId l2 = capture.add_launch(kernel, {fill}, c, b, a, n);
    capture.add_memcpy_dtod(b.ptr(), c.ptr(), c.byte_size(), {l1, l2});
    GraphExec exec = capture.finish().instantiate();

    constexpr int kThreads = 8;
    constexpr int kReplays = 200;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([copy = exec]() mutable {
            for (int i = 0; i < kReplays; i++) {
                copy.replay();
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(trace::counter("kl.graph.replays").value(), static_cast<uint64_t>(kThreads) * kReplays);
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 1u);
    EXPECT_EQ(kernel.stats().compiles_started, 1u);
    // last_replay_end is "some replay's end"; the horizon is the max of all.
    EXPECT_GE(fx.context->default_stream().busy_until(), exec.last_replay_end());
}

TEST(GraphConcurrency, ReplayDuringClearCacheStaysCoherent) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx(sim::ExecutionMode::TimingOnly);
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 500;
    std::vector<float> hy(n, 1.0f), hx(n, 3.0f);
    core::DeviceArray<float> y(n), x(n);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId reset = capture.add_memcpy_htod(y.ptr(), hy.data(), y.byte_size());
    NodeId upload = capture.add_memcpy_htod(x.ptr(), hx.data(), x.byte_size());
    NodeId launch = capture.add_launch(kernel, {reset, upload}, y, x, 4.0f, n);
    capture.add_memcpy_dtoh(out.data(), y.ptr(), y.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();

    constexpr int kThreads = 4;
    constexpr int kReplays = 100;
    std::vector<std::thread> replayers;
    replayers.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        replayers.emplace_back([copy = exec]() mutable {
            for (int i = 0; i < kReplays; i++) {
                copy.replay();
            }
        });
    }
    // Repeatedly invalidate while replays are in flight.
    std::thread clearer([&] {
        for (int i = 0; i < 25; i++) {
            kernel.clear_cache();
        }
    });
    for (std::thread& thread : replayers) {
        thread.join();
    }
    clearer.join();

    EXPECT_EQ(trace::counter("kl.graph.replays").value(), static_cast<uint64_t>(kThreads) * kReplays);

    // After the dust settles, one functional replay must still produce the
    // correct result from the latest bake (re-instantiating first if the
    // last clear_cache landed after the last re-bake).
    fx.context->set_mode(sim::ExecutionMode::Functional);
    exec.replay();
    EXPECT_GE(trace::counter("kl.graph.instantiates").value(), 2u);
    for (int i = 0; i < n; i++) {
        ASSERT_EQ(out[i], 13.0f) << i;  // 4*3 + 1
    }
}

TEST(GraphConcurrency, ScalarUpdatesDuringReplaysAreAtomic) {
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    ASSERT_FALSE(kernel.reads_arg(2));
    const int n = 256;
    const std::vector<float> hy(n, 1.0f), hx(n, 2.0f);
    core::DeviceArray<float> y(n), x(hx);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId reset = capture.add_memcpy_htod(y.ptr(), hy.data(), y.byte_size());
    NodeId launch = capture.add_launch(kernel, {reset}, y, x, 0.0f, n);
    capture.add_memcpy_dtoh(out.data(), y.ptr(), y.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();

    // Copies of one executable share its buffers and `out`, so the
    // replayers take turns among themselves. The updater does not: it
    // meets them only at the executable's own lock.
    constexpr int kThreads = 4;
    constexpr int kReplays = 200;
    constexpr int kUpdates = 1000;
    std::mutex turn;
    std::atomic<int> torn {0};
    std::vector<std::thread> replayers;
    replayers.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        replayers.emplace_back([&, copy = exec]() mutable {
            for (int i = 0; i < kReplays; i++) {
                std::lock_guard<std::mutex> lock(turn);
                copy.replay();
                // Every element is a*2 + 1 for one written a in 0..kUpdates.
                const float a = (out[0] - 1.0f) / 2.0f;
                if (a != std::floor(a) || a < 0 || a > kUpdates) {
                    torn++;
                }
                for (float value : out) {
                    if (value != out[0]) {
                        torn++;
                    }
                }
            }
        });
    }
    std::thread updater([&] {
        for (int a = 1; a <= kUpdates; a++) {
            exec.update_scalar(launch, 2, static_cast<float>(a));
        }
    });
    for (std::thread& thread : replayers) {
        thread.join();
    }
    updater.join();
    EXPECT_EQ(torn.load(), 0);

    exec.replay();
    EXPECT_EQ(out[0], 2.0f * kUpdates + 1.0f);
}

// --- zero-copy uploads (docs/MEMORY.md) -------------------------------------

TEST(GraphUpload, ReplayRebindsTheSnapshot) {
    Fixture fx;
    const int n = 64;
    std::vector<float> original(n), clobber(n);
    for (int i = 0; i < n; i++) {
        original[i] = static_cast<float>(i) * 0.5f;
        clobber[i] = -1.0f;
    }
    core::DeviceArray<float> a(original);
    std::vector<float> out(n, 0.0f);

    GraphCapture capture;
    NodeId up = capture.add_upload(a.ptr());
    capture.add_memcpy_dtoh(out.data(), a.ptr(), a.byte_size(), {up});
    GraphExec exec = capture.finish().instantiate();

    // Clobber the device block after capture: the recording owns the
    // snapshot, so replay must restore the capture-time contents.
    fx.context->memcpy_htod(a.ptr(), clobber.data(), a.byte_size());
    exec.replay();
    EXPECT_EQ(std::memcmp(out.data(), original.data(), n * sizeof(float)), 0);
    std::vector<float> device_now = a.copy_to_host();
    EXPECT_EQ(std::memcmp(device_now.data(), original.data(), n * sizeof(float)), 0);
}

TEST(GraphUpload, MatchesEagerVectorAddBitExact) {
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 777;
    std::vector<float> ha(n), hb(n);
    for (int i = 0; i < n; i++) {
        ha[i] = 0.125f * static_cast<float>(i) - 3.0f;
        hb[i] = 1.0f / static_cast<float>(i + 1);
    }

    // Eager reference on its own buffers.
    core::DeviceArray<float> ec(n), ea(ha), eb(hb);
    kernel.launch(ec, ea, eb, n);
    std::vector<float> expected = ec.copy_to_host();

    // Upload-node pipeline: the inputs are staged on the device once,
    // snapshotted at capture, and re-bound on every replay.
    core::DeviceArray<float> rc(n), ra(ha), rb(hb);
    std::vector<float> out(n, -1.0f);
    GraphCapture capture;
    NodeId ua = capture.add_upload(ra.ptr());
    NodeId ub = capture.add_upload(rb.ptr());
    NodeId launch = capture.add_launch(kernel, {ua, ub}, rc, ra, rb, n);
    capture.add_memcpy_dtoh(out.data(), rc.ptr(), rc.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();

    for (int round = 0; round < 3; round++) {
        // Poison the inputs between rounds: every replay is self-contained.
        std::vector<float> junk(n, 1e9f);
        fx.context->memcpy_htod(ra.ptr(), junk.data(), ra.byte_size());
        fx.context->memcpy_htod(rb.ptr(), junk.data(), rb.byte_size());
        exec.replay();
        ASSERT_EQ(std::memcmp(out.data(), expected.data(), n * sizeof(float)), 0)
            << "round " << round;
    }
}

TEST(GraphUpload, CaptureAndReplayMoveZeroPayloadBytes) {
    Fixture fx;
    ScopedTrace scoped(trace::Mode::Counters);
    // A 512^3-scale field would dominate the suite's runtime; 1 MiB has
    // identical counter semantics (the assertion is == 0, not a ratio).
    const uint64_t bytes = 1ull << 20;
    std::vector<unsigned char> host(bytes, 0xCD);
    sim::DevicePtr field = fx.context->malloc(bytes);
    fx.context->memcpy_htod(field, host.data(), bytes);

    GraphCapture capture;
    NodeId up = capture.add_upload(field);
    std::vector<unsigned char> out(bytes, 0);
    capture.add_memcpy_dtoh(out.data(), field, bytes, {up});
    EXPECT_EQ(trace::counter("kl.mem.capture.bytes_copied").value(), 0u)
        << "capture re-streamed payload bytes";

    GraphExec exec = capture.finish().instantiate();
    exec.replay();
    exec.replay();
    EXPECT_EQ(trace::counter("kl.mem.capture.bytes_copied").value(), 0u);
    EXPECT_EQ(trace::counter("kl.mem.replay.bytes_copied").value(), 0u)
        << "upload-node replay re-streamed payload bytes";
    EXPECT_EQ(out[0], 0xCD);
    EXPECT_EQ(out[bytes - 1], 0xCD);
    fx.context->free(field);
}

TEST(GraphUpload, HtodNodesReStreamOnEveryReplay) {
    Fixture fx;
    ScopedTrace scoped(trace::Mode::Counters);
    const uint64_t bytes = 64 * 1024;
    std::vector<unsigned char> host(bytes, 0x5A);
    sim::DevicePtr field = fx.context->malloc(bytes);

    GraphCapture capture;
    capture.add_memcpy_htod(field, host.data(), bytes);
    GraphExec exec = capture.finish().instantiate();
    exec.replay();
    EXPECT_EQ(trace::counter("kl.mem.replay.bytes_copied").value(), bytes);
    exec.replay();
    EXPECT_EQ(trace::counter("kl.mem.replay.bytes_copied").value(), 2 * bytes);
    fx.context->free(field);
}

TEST(GraphUpload, ReplayAfterClearCacheKeepsPooledBlocks) {
    ScopedTrace scope(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 256;
    std::vector<float> hy(n, 1.0f), hx(n, 2.0f);
    core::DeviceArray<float> y(hy), x(hx);
    std::vector<float> out(n);

    GraphCapture capture;
    NodeId reset = capture.add_upload(y.ptr());
    NodeId stage = capture.add_upload(x.ptr());
    NodeId launch = capture.add_launch(kernel, {reset, stage}, y, x, 3.0f, n);
    capture.add_memcpy_dtoh(out.data(), y.ptr(), y.byte_size(), {launch});
    GraphExec exec = capture.finish().instantiate();

    exec.replay();
    EXPECT_EQ(out[0], 7.0f);  // 3*2 + 1

    kernel.clear_cache();
    exec.replay();
    // The re-bake revalidated the pooled blocks and kept the payloads.
    EXPECT_EQ(trace::counter("kl.graph.instantiates").value(), 2u);
    for (int i = 0; i < n; i++) {
        ASSERT_EQ(out[i], 7.0f) << i;
    }
}

}  // namespace
}  // namespace kl::graph
