// Unit tests for the simulated CUDA driver substrate: device registry,
// memory pool (with lazy materialization), contexts, streams/events and
// the launch validation path.

#include <gtest/gtest.h>

#include "util/errors.hpp"
#include "cudasim/context.hpp"
#include "cudasim/memory.hpp"
#include "cudasim/module.hpp"
#include "graph/graph.hpp"
#include "nvrtcsim/nvrtc.hpp"
#include "nvrtcsim/registry.hpp"

namespace kl::sim {
namespace {

TEST(DeviceRegistry, BuiltInDevices) {
    DeviceRegistry& registry = DeviceRegistry::global();
    EXPECT_TRUE(registry.contains("NVIDIA A100-PCIE-40GB"));
    EXPECT_TRUE(registry.contains("NVIDIA RTX A4000"));
    EXPECT_FALSE(registry.contains("NVIDIA H100"));
    EXPECT_THROW(registry.by_name("NVIDIA H100"), CudaError);

    const DeviceProperties& a100 = registry.by_name("NVIDIA A100-PCIE-40GB");
    EXPECT_EQ(a100.sm_count, 108);
    EXPECT_DOUBLE_EQ(a100.memory_bandwidth_gbs, 1555.0);
    EXPECT_DOUBLE_EQ(a100.peak_dp_gflops, 9700.0);
    EXPECT_EQ(a100.compute_capability(), "8.0");

    const DeviceProperties& a4000 = registry.by_name("NVIDIA RTX A4000");
    EXPECT_DOUBLE_EQ(a4000.peak_dp_gflops, 599.0);  // 1:32 DP ratio
    EXPECT_EQ(a4000.architecture, "Ampere");
    EXPECT_EQ(a4000.max_warps_per_sm(), 48);
}

TEST(DeviceRegistry, AddReplacesByName) {
    DeviceRegistry& registry = DeviceRegistry::global();
    DeviceProperties custom = make_a4000();
    custom.name = "Test Device";
    custom.sm_count = 7;
    registry.add(custom);
    EXPECT_EQ(registry.by_name("Test Device").sm_count, 7);
    custom.sm_count = 9;
    registry.add(custom);
    EXPECT_EQ(registry.by_name("Test Device").sm_count, 9);
}

// --- MemoryPool -----------------------------------------------------------

TEST(MemoryPool, AllocateFreeAccounting) {
    MemoryPool pool;
    Stream stream(0);
    DevicePtr a = pool.allocate_async(100, stream, 0.0);
    DevicePtr b = pool.allocate_async(200, stream, 0.0);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.bytes_in_use(), 300u);
    pool.free_async(a, stream, 0.0);
    EXPECT_EQ(pool.bytes_in_use(), 200u);
    EXPECT_THROW(pool.free_async(a, stream, 0.0), CudaError);      // double free
    EXPECT_THROW(pool.free_async(b + 1, stream, 0.0), CudaError);  // not a base address
    EXPECT_THROW(pool.allocate_async(0, stream, 0.0), CudaError);
}

TEST(MemoryPool, BoundsChecking) {
    MemoryPool pool;
    Stream stream(0);
    DevicePtr p = pool.allocate_async(64, stream, 0.0);
    EXPECT_NO_THROW(pool.check_range(p, 64));
    EXPECT_NO_THROW(pool.check_range(p + 60, 4));
    EXPECT_THROW(pool.check_range(p, 65), CudaError);
    EXPECT_THROW(pool.check_range(p + 64, 1), CudaError);
    EXPECT_THROW(pool.check_range(p + 4096, 1), CudaError);  // guard gap
    EXPECT_THROW(pool.check_range(0xdead, 1), CudaError);
    EXPECT_NO_THROW(pool.check_range(p + 16, 48));  // exactly to the end
    EXPECT_THROW(pool.check_range(p + 16, 49), CudaError);
}

TEST(MemoryPool, LazyMaterialization) {
    MemoryPool pool;
    Stream stream(0);
    DevicePtr p = pool.allocate_async(1 << 20, stream, 0.0);
    EXPECT_FALSE(pool.is_materialized(p));
    EXPECT_EQ(pool.resolve_if_materialized(p, 16), nullptr);

    // First resolve materializes zero-filled storage.
    auto* data = static_cast<unsigned char*>(pool.resolve(p, 16));
    ASSERT_NE(data, nullptr);
    EXPECT_TRUE(pool.is_materialized(p));
    EXPECT_EQ(data[0], 0);
    data[0] = 42;
    EXPECT_EQ(*static_cast<unsigned char*>(pool.resolve(p, 1)), 42);

    // Interior pointers resolve into the same allocation.
    auto* tail = static_cast<unsigned char*>(pool.resolve(p + 8, 8));
    EXPECT_EQ(tail, data + 8);
}

TEST(MemoryPool, HugeAllocationsStayVirtual) {
    MemoryPool pool;
    Stream stream(0);
    // 8 GB of "device memory" must not touch host RAM until resolved.
    DevicePtr p = pool.allocate_async(8ull << 30, stream, 0.0);
    EXPECT_EQ(pool.bytes_in_use(), 8ull << 30);
    EXPECT_FALSE(pool.is_materialized(p));
    pool.free_async(p, stream, 0.0);
}

// --- Context ---------------------------------------------------------------

TEST(Context, CurrentContextStack) {
    EXPECT_EQ(Context::current_or_null(), nullptr);
    {
        auto outer = Context::create("NVIDIA RTX A4000");
        EXPECT_EQ(&Context::current(), outer.get());
        {
            auto inner = Context::create("NVIDIA A100-PCIE-40GB");
            EXPECT_EQ(&Context::current(), inner.get());
        }
        EXPECT_EQ(&Context::current(), outer.get());
    }
    EXPECT_EQ(Context::current_or_null(), nullptr);
    EXPECT_THROW(Context::current(), CudaError);
}

TEST(Context, OutOfDeviceMemory) {
    auto context = Context::create("NVIDIA RTX A4000");  // 16 GB
    DevicePtr big = context->malloc(15ull << 30);
    EXPECT_THROW(context->malloc(2ull << 30), CudaError);
    context->free(big);
    EXPECT_NO_THROW(context->free(context->malloc(2ull << 30)));
}

TEST(Context, MemcpyRoundTripFunctional) {
    auto context = Context::create("NVIDIA RTX A4000");
    std::vector<int> host {1, 2, 3, 4};
    DevicePtr dev = context->malloc(sizeof(int) * 4);
    context->memcpy_htod(dev, host.data(), sizeof(int) * 4);
    std::vector<int> back(4);
    context->memcpy_dtoh(back.data(), dev, sizeof(int) * 4);
    EXPECT_EQ(back, host);

    DevicePtr dev2 = context->malloc(sizeof(int) * 4);
    graph::GraphCapture capture;
    capture.add_memcpy_dtod(dev2, dev, sizeof(int) * 4, {});
    capture.finish().instantiate().replay();
    context->memcpy_dtoh(back.data(), dev2, sizeof(int) * 4);
    EXPECT_EQ(back, host);

    context->memset_d8(dev, 0xFF, 4);
    context->memcpy_dtoh(back.data(), dev, sizeof(int) * 4);
    EXPECT_EQ(back[0], -1);
    EXPECT_EQ(back[1], host[1]);
}

TEST(Context, UntouchedMemoryReadsBackZero) {
    auto context = Context::create("NVIDIA RTX A4000");
    DevicePtr dev = context->malloc(16);
    std::vector<unsigned char> back(16, 0xAA);
    context->memcpy_dtoh(back.data(), dev, 16);
    EXPECT_EQ(back[0], 0);
    EXPECT_EQ(back[15], 0);
}

TEST(Context, TimingOnlyModeSkipsData) {
    auto context = Context::create("NVIDIA RTX A4000", ExecutionMode::TimingOnly);
    std::vector<int> host {1, 2, 3, 4};
    DevicePtr dev = context->malloc(sizeof(int) * 4);
    context->memcpy_htod(dev, host.data(), sizeof(int) * 4);
    EXPECT_FALSE(context->memory().is_materialized(dev));
    // Bounds are still enforced.
    EXPECT_THROW(context->memcpy_htod(dev + 13, host.data(), 4), CudaError);
}

TEST(Context, TransfersAdvanceSimulatedClock) {
    auto context = Context::create("NVIDIA A100-PCIE-40GB", ExecutionMode::TimingOnly);
    double t0 = context->clock().now();
    DevicePtr dev = context->malloc(120 << 20);
    std::vector<char> junk(1);
    context->memcpy_htod(dev, junk.data(), 120 << 20);
    // 120 MB over ~12 GB/s PCIe: ~10 ms.
    double elapsed = context->clock().now() - t0;
    EXPECT_NEAR(elapsed, 0.010, 0.003);
}

// --- Streams and events ----------------------------------------------------

TEST(StreamsEvents, TimelineOrdering) {
    Stream stream(1);
    EXPECT_EQ(stream.busy_until(), 0.0);
    double start1 = stream.enqueue(2.0, 1.0);
    EXPECT_DOUBLE_EQ(start1, 1.0);
    // Second kernel queues behind the first even though issued earlier.
    double start2 = stream.enqueue(0.5, 1.5);
    EXPECT_DOUBLE_EQ(start2, 3.0);
    EXPECT_DOUBLE_EQ(stream.busy_until(), 3.5);
}

TEST(Context, SynchronizeAdvancesToStreamHorizon) {
    auto context = Context::create("NVIDIA RTX A4000", ExecutionMode::TimingOnly);
    Stream& stream = context->create_stream();
    stream.enqueue(0.125, context->clock().now());
    context->synchronize();
    EXPECT_GE(context->clock().now(), 0.125);
}

// --- Launch validation -------------------------------------------------------

KernelImage compile_vector_add(int block_size) {
    rtc::register_builtin_kernels();
    rtc::Program program("vector_add", rtc::builtin_kernel_source("vector_add"));
    program.add_name_expression("vector_add<" + std::to_string(block_size) + ">");
    return std::move(program.compile({}).images.front());
}

TEST(Launch, RejectsBadGeometry) {
    auto context = Context::create("NVIDIA RTX A4000", ExecutionMode::TimingOnly);
    KernelImage image = compile_vector_add(256);
    Stream& stream = context->default_stream();

    EXPECT_THROW(
        context->launch(image, Dim3(0), Dim3(256), 0, stream, nullptr, 0), CudaError);
    EXPECT_THROW(
        context->launch(image, Dim3(1), Dim3(0), 0, stream, nullptr, 0), CudaError);
    EXPECT_THROW(
        context->launch(image, Dim3(1), Dim3(2048), 0, stream, nullptr, 0), CudaError);
    EXPECT_THROW(
        context->launch(image, Dim3(1, 70000), Dim3(32), 0, stream, nullptr, 0),
        CudaError);
    EXPECT_THROW(
        context->launch(image, Dim3(1), Dim3(1, 1, 128), 0, stream, nullptr, 0),
        CudaError);  // block.z > 64
    EXPECT_THROW(
        context->launch(image, Dim3(1), Dim3(32), 1 << 20, stream, nullptr, 0),
        CudaError);  // too much shared memory
}

TEST(Launch, TimingOnlyAdvancesStream) {
    auto context = Context::create("NVIDIA A100-PCIE-40GB", ExecutionMode::TimingOnly);
    KernelImage image = compile_vector_add(256);
    int n = 1 << 20;
    DevicePtr buf = context->malloc(sizeof(float) * n);
    void* slots[4] = {&buf, &buf, &buf, &n};

    context->launch(
        image, Dim3(div_ceil(n, 256)), Dim3(256), 0, context->default_stream(), slots, 4);
    const LaunchRecord record = context->last_launch();
    EXPECT_GT(record.timing.seconds, 0);
    EXPECT_GT(record.end_time, record.start_time);
    EXPECT_EQ(context->launch_count(), 1u);
    EXPECT_EQ(record.kernel_name, "vector_add<256>");
    // Memory-bound elementwise kernel: achieved bandwidth below peak.
    EXPECT_LT(record.timing.achieved_bandwidth_gbs, 1555.0);
    EXPECT_GT(record.timing.achieved_bandwidth_gbs, 100.0);
}

// --- Module ------------------------------------------------------------------

TEST(Module, FunctionLookup) {
    auto context = Context::create("NVIDIA RTX A4000", ExecutionMode::TimingOnly);
    auto module = Module::load(*context, compile_vector_add(128));
    EXPECT_EQ(module->get_function("vector_add<128>").lowered_name, "vector_add<128>");
    // Base-name fallback.
    EXPECT_EQ(module->get_function("vector_add").lowered_name, "vector_add<128>");
    EXPECT_THROW(module->get_function("nope"), CudaError);
}

TEST(Module, LoadChargesClock) {
    auto context = Context::create("NVIDIA RTX A4000", ExecutionMode::TimingOnly);
    double t0 = context->clock().now();
    Module::load(*context, compile_vector_add(64));
    EXPECT_GT(context->clock().now() - t0, 0.02);  // ~30 ms modeled
}

TEST(Module, EmptyModuleRejected) {
    EXPECT_THROW(Module(std::vector<KernelImage> {}), CudaError);
}

}  // namespace
}  // namespace kl::sim
