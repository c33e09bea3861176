// Unit tests for WisdomKernel: the runtime selection + compilation +
// caching behavior of §4.5 and the capture hook of §4.2.

#include <gtest/gtest.h>

#include "core/kernel_launcher.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace kl::core {
namespace {

KernelBuilder vector_add_builder() {
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source("vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    Expr block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(arg3).template_args(block_size).block_size(block_size);
    return builder;
}

struct Fixture {
    std::string dir = make_temp_dir("kl-wk");
    std::unique_ptr<sim::Context> context = sim::Context::create("NVIDIA RTX A4000");

    WisdomSettings settings() {
        return WisdomSettings().wisdom_dir(dir).capture_dir(dir);
    }

    void seed_wisdom(ProblemSize problem, int block_size, const std::string& device,
                     double ms = 1.0) {
        std::string path = path_join(dir, "vector_add.wisdom.json");
        WisdomFile wisdom = WisdomFile::load(path, "vector_add");
        WisdomRecord record;
        record.problem_size = problem;
        record.device_name = device;
        record.device_architecture = "Ampere";
        Config config;
        config.set("block_size", Value(block_size));
        record.config = config;
        record.time_seconds = ms * 1e-3;
        wisdom.add(record, /*force=*/true);
        wisdom.save(path);
    }
};

TEST(WisdomKernel, DefaultConfigWithoutWisdom) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    DeviceArray<float> c(n), a(n), b(n);
    const LaunchOutcome outcome = kernel.launch(c, a, b, n);
    EXPECT_TRUE(outcome.cold);
    EXPECT_EQ(outcome.match, WisdomMatch::None);
    EXPECT_EQ(fx.context->last_launch().block, sim::Dim3(32));  // first value
    EXPECT_EQ(fx.context->last_launch().grid, sim::Dim3(32));   // ceil(1000/32)
}

TEST(WisdomKernel, SelectsExactWisdomRecord) {
    Fixture fx;
    fx.seed_wisdom(ProblemSize(1000), 128, "NVIDIA RTX A4000");
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    DeviceArray<float> c(n), a(n), b(n);
    EXPECT_EQ(kernel.launch(c, a, b, n).match, WisdomMatch::Exact);
    EXPECT_EQ(fx.context->last_launch().block, sim::Dim3(128));
    EXPECT_EQ(fx.context->last_launch().kernel_name, "vector_add<128>");
}

TEST(WisdomKernel, NearestProblemSizeFuzzyMatch) {
    Fixture fx;
    fx.seed_wisdom(ProblemSize(1000), 128, "NVIDIA RTX A4000");
    fx.seed_wisdom(ProblemSize(100000), 256, "NVIDIA RTX A4000");
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 80000;  // nearer to 100000
    DeviceArray<float> c(n), a(n), b(n);
    EXPECT_EQ(kernel.launch(c, a, b, n).match, WisdomMatch::DeviceNearest);
    EXPECT_EQ(fx.context->last_launch().block, sim::Dim3(256));
}

TEST(WisdomKernel, ArchitectureFallbackAcrossDevices) {
    Fixture fx;
    // Tuned on the A100; running on the A4000 (both Ampere).
    fx.seed_wisdom(ProblemSize(1000), 64, "NVIDIA A100-PCIE-40GB");
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    DeviceArray<float> c(n), a(n), b(n);
    EXPECT_EQ(kernel.launch(c, a, b, n).match, WisdomMatch::ArchNearest);
    EXPECT_EQ(fx.context->last_launch().block, sim::Dim3(64));
}

TEST(WisdomKernel, CachesPerProblemSize) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n1 = 1000, n2 = 5000;
    DeviceArray<float> c(n2), a(n2), b(n2);

    const LaunchOutcome first = kernel.launch(c, a, b, n1);
    EXPECT_TRUE(first.cold);
    double compile_ms = first.overhead.compile_seconds;
    EXPECT_GT(compile_ms, 0.1);

    EXPECT_FALSE(kernel.launch(c, a, b, n1).cold);  // same problem size: warm
    EXPECT_EQ(kernel.cached_instance_count(), 1u);

    EXPECT_TRUE(kernel.launch(c, a, b, n2).cold);  // new problem size: cold again (§4.5)
    EXPECT_EQ(kernel.cached_instance_count(), 2u);

    kernel.clear_cache();
    EXPECT_EQ(kernel.cached_instance_count(), 0u);
    EXPECT_TRUE(kernel.launch(c, a, b, n1).cold);
}

TEST(WisdomKernel, ColdOverheadBreakdownIsPlausible) {
    Fixture fx;
    fx.seed_wisdom(ProblemSize(1000), 64, "NVIDIA RTX A4000");
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    DeviceArray<float> c(n), a(n), b(n);
    double before = fx.context->clock().now();
    const OverheadBreakdown o = kernel.launch(c, a, b, n).overhead;
    double elapsed = fx.context->clock().now() - before;

    EXPECT_GT(o.wisdom_seconds, 0);
    EXPECT_GT(o.compile_seconds, 0.1);          // NVRTC dominates
    EXPECT_GT(o.module_load_seconds, 0.01);
    EXPECT_GT(o.launch_seconds, 0);
    EXPECT_LT(o.launch_seconds, 1e-4);
    EXPECT_GT(o.compile_seconds / o.total(), 0.5);
    EXPECT_NEAR(o.total(), elapsed, 0.02);

    // Warm launches only pay the ~3 us launch overhead.
    before = fx.context->clock().now();
    kernel.launch(c, a, b, n);
    EXPECT_LT(fx.context->clock().now() - before, 1e-4);
}

TEST(WisdomKernel, SelectConfigWithoutCompiling) {
    Fixture fx;
    fx.seed_wisdom(ProblemSize(1000), 256, "NVIDIA RTX A4000");
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    Config selected = kernel.select_config(ProblemSize(1000));
    EXPECT_EQ(selected.at("block_size").as_int(), 256);
    EXPECT_EQ(kernel.cached_instance_count(), 0u);
    // Unknown problem size falls back to the record (fuzzy) or default.
    Config fallback = kernel.select_config(ProblemSize(77));
    EXPECT_EQ(fallback.at("block_size").as_int(), 256);
}

TEST(WisdomKernel, CaptureHookWritesOncePerProblemSize) {
    Fixture fx;
    WisdomSettings settings = fx.settings();
    settings.capture_pattern("vector_*");
    WisdomKernel kernel(vector_add_builder(), settings);
    const int n = 256;
    DeviceArray<float> c(n), a(n), b(n);
    kernel.launch(c, a, b, n);
    kernel.launch(c, a, b, n);  // second launch must not duplicate

    std::vector<std::string> captures = list_captures(fx.dir);
    ASSERT_EQ(captures.size(), 1u);
    EXPECT_TRUE(ends_with(captures[0], "vector_add_256x1x1.json"));

    CapturedLaunch capture = read_capture(captures[0]);
    EXPECT_EQ(capture.def.name, "vector_add");
    EXPECT_EQ(capture.args.size(), 4u);
    // The capture is replayable: its def has the full space.
    EXPECT_EQ(capture.def.space.cardinality(), 4u);
}

TEST(WisdomKernel, NoCaptureWithoutMatchingPattern) {
    Fixture fx;
    WisdomSettings settings = fx.settings();
    settings.capture_pattern("advec_*");
    WisdomKernel kernel(vector_add_builder(), settings);
    const int n = 64;
    DeviceArray<float> c(n), a(n), b(n);
    kernel.launch(c, a, b, n);
    EXPECT_TRUE(list_captures(fx.dir).empty());
}

TEST(WisdomKernel, TuningKeySeparatesWisdomIdentity) {
    Fixture fx;
    // Wisdom stored under the variant key, not the kernel name.
    {
        std::string path = path_join(fx.dir, "vector_add_v2.wisdom.json");
        WisdomFile wisdom("vector_add_v2");
        WisdomRecord record;
        record.problem_size = ProblemSize(1000);
        record.device_name = "NVIDIA RTX A4000";
        record.device_architecture = "Ampere";
        Config config;
        config.set("block_size", Value(256));
        record.config = config;
        record.time_seconds = 1e-3;
        wisdom.add(record);
        wisdom.save(path);
    }
    KernelBuilder builder = vector_add_builder();
    builder.tuning_key("vector_add_v2");
    WisdomKernel kernel(builder, fx.settings());
    const int n = 1000;
    DeviceArray<float> c(n), a(n), b(n);
    EXPECT_EQ(kernel.launch(c, a, b, n).match, WisdomMatch::Exact);
    EXPECT_EQ(fx.context->last_launch().block, sim::Dim3(256));
}

TEST(WisdomKernel, PerDeviceInstanceCache) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 128;
    {
        DeviceArray<float> c(n), a(n), b(n);
        EXPECT_TRUE(kernel.launch(c, a, b, n).cold);
    }
    {
        // Same kernel object on a different device: fresh instance.
        auto other = sim::Context::create("NVIDIA A100-PCIE-40GB");
        DeviceArray<float> c(n), a(n), b(n);
        EXPECT_TRUE(kernel.launch(c, a, b, n).cold);
        EXPECT_EQ(kernel.cached_instance_count(), 2u);
    }
}

TEST(WisdomKernel, FunctionalResultCorrectUnderTunedConfig) {
    Fixture fx;
    fx.seed_wisdom(ProblemSize(777), 64, "NVIDIA RTX A4000");
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 777;  // not divisible by the block size
    std::vector<float> ha(n), hb(n);
    for (int i = 0; i < n; i++) {
        ha[i] = static_cast<float>(i);
        hb[i] = static_cast<float>(2 * i);
    }
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    kernel.launch(c, a, b, n);
    std::vector<float> out = c.copy_to_host();
    for (int i = 0; i < n; i++) {
        ASSERT_FLOAT_EQ(out[i], 3.0f * static_cast<float>(i));
    }
}

}  // namespace
}  // namespace kl::core
