// Unit tests for kernel capturing (§4.2): writing, reading, payload
// handling for inputs vs pure outputs, and replaying captures on a fresh
// context.

#include <gtest/gtest.h>

#include "core/capture.hpp"
#include "core/device_buffer.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace kl::core {
namespace {

KernelDef saxpy_def() {
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "saxpy", KernelSource::inline_source("saxpy.cu", rtc::builtin_kernel_source("saxpy")));
    Expr bs = builder.tune("BLOCK_SIZE", {64, 128, 256});
    builder.problem_size(arg3).block_size(bs);
    return builder.build();
}

TEST(Capture, WriteReadRoundTripWithPayloads) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    std::string dir = make_temp_dir("kl-capture");

    const int n = 500;
    std::vector<float> hy(n), hx(n);
    for (int i = 0; i < n; i++) {
        hy[i] = static_cast<float>(i);
        hx[i] = 2.0f * static_cast<float>(i);
    }
    DeviceArray<float> y(hy), x(hx);
    std::vector<KernelArg> args = into_args(y, x, 3.25f, n);

    KernelDef def = saxpy_def();
    CaptureInfo info = write_capture(dir, def, args, ProblemSize(n), *context);
    EXPECT_TRUE(file_exists(info.json_path));
    EXPECT_EQ(info.payload_bytes, 2u * n * sizeof(float));
    EXPECT_GT(info.total_bytes, info.payload_bytes);
    EXPECT_GT(info.simulated_seconds, 0.1);  // modeled NFS write
    EXPECT_TRUE(ends_with(info.json_path, "saxpy_500x1x1.json"));

    CapturedLaunch capture = read_capture(info.json_path);
    EXPECT_EQ(capture.def.name, "saxpy");
    EXPECT_EQ(capture.problem_size, ProblemSize(n));
    EXPECT_EQ(capture.device_name, "NVIDIA RTX A4000");
    EXPECT_EQ(capture.device_architecture, "Ampere");
    ASSERT_EQ(capture.args.size(), 4u);
    EXPECT_TRUE(capture.args[0].is_buffer);
    EXPECT_EQ(capture.args[0].count, static_cast<size_t>(n));
    EXPECT_EQ(capture.args[0].data.size(), n * sizeof(float));
    EXPECT_FALSE(capture.args[2].is_buffer);
    EXPECT_DOUBLE_EQ(capture.args[2].scalar_value.to_double(), 3.25);
    EXPECT_EQ(capture.args[3].scalar_value.to_int(), n);

    // Payload contents reproduce the device buffers.
    const float* data = reinterpret_cast<const float*>(capture.args[0].data.data());
    EXPECT_EQ(data[7], 7.0f);
    uint64_t loaded_bytes = 0;
    for (const CapturedArg& arg : capture.args) {
        loaded_bytes += arg.data.size();
    }
    EXPECT_EQ(loaded_bytes, info.payload_bytes);
}

TEST(Capture, OutputArgsCarryNoPayload) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    std::string dir = make_temp_dir("kl-capture");

    KernelBuilder builder(
        "saxpy", KernelSource::inline_source("saxpy.cu", rtc::builtin_kernel_source("saxpy")));
    Expr bs = builder.tune("BLOCK_SIZE", {64, 128});
    builder.problem_size(arg3).block_size(bs).output_arg(0);
    KernelDef def = builder.build();

    const int n = 100;
    DeviceArray<float> y(static_cast<size_t>(n)), x(static_cast<size_t>(n));
    std::vector<KernelArg> args = into_args(y, x, 1.0f, n);

    CaptureInfo info = write_capture(dir, def, args, ProblemSize(n), *context);
    // Only x is persisted.
    EXPECT_EQ(info.payload_bytes, static_cast<uint64_t>(n) * sizeof(float));
    int bin_files = 0;
    for (const std::string& file : list_directory(dir)) {
        bin_files += ends_with(file, ".bin");
    }
    EXPECT_EQ(bin_files, 1);

    CapturedLaunch capture = read_capture(info.json_path);
    EXPECT_TRUE(capture.args[0].is_output);
    EXPECT_TRUE(capture.args[0].data.empty());
    EXPECT_FALSE(capture.args[1].is_output);
    EXPECT_EQ(capture.args[1].data.size(), n * sizeof(float));
}

TEST(Capture, MetadataOnlyReadSkipsPayloads) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    std::string dir = make_temp_dir("kl-capture");
    const int n = 64;
    DeviceArray<float> y(static_cast<size_t>(n)), x(static_cast<size_t>(n));
    std::vector<KernelArg> args = into_args(y, x, 1.0f, n);
    CaptureInfo info = write_capture(dir, saxpy_def(), args, ProblemSize(n), *context);

    CapturedLaunch capture = read_capture(info.json_path, /*load_payloads=*/false);
    EXPECT_TRUE(capture.args[0].is_buffer);
    EXPECT_TRUE(capture.args[0].data.empty());
    EXPECT_EQ(capture.args[0].count, static_cast<size_t>(n));
}

TEST(Capture, CorruptPayloadSizeRejected) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    std::string dir = make_temp_dir("kl-capture");
    const int n = 64;
    DeviceArray<float> y(static_cast<size_t>(n)), x(static_cast<size_t>(n));
    std::vector<KernelArg> args = into_args(y, x, 1.0f, n);
    CaptureInfo info = write_capture(dir, saxpy_def(), args, ProblemSize(n), *context);

    // Truncate one payload file.
    for (const std::string& file : list_directory(dir)) {
        if (ends_with(file, ".arg0.bin")) {
            write_text_file(file, "xx");
        }
    }
    EXPECT_THROW(read_capture(info.json_path), Error);
}

TEST(Capture, ListCapturesFiltersWisdom) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    std::string dir = make_temp_dir("kl-capture");
    const int n = 8;
    DeviceArray<float> y(static_cast<size_t>(n)), x(static_cast<size_t>(n));
    std::vector<KernelArg> args = into_args(y, x, 1.0f, n);
    write_capture(dir, saxpy_def(), args, ProblemSize(n), *context);
    write_text_file(path_join(dir, "saxpy.wisdom.json"), "{}");

    std::vector<std::string> captures = list_captures(dir);
    ASSERT_EQ(captures.size(), 1u);
    EXPECT_TRUE(ends_with(captures[0], "saxpy_8x1x1.json"));
}

TEST(CaptureReplay, RestoresArgumentsOnFreshContext) {
    std::string dir = make_temp_dir("kl-capture");
    std::string json_path;
    {
        auto source_context = sim::Context::create("NVIDIA RTX A4000");
        const int n = 200;
        std::vector<float> hy(n, 1.5f), hx(n, 2.5f);
        DeviceArray<float> y(hy), x(hx);
        std::vector<KernelArg> args = into_args(y, x, 0.5f, n);
        json_path =
            write_capture(dir, saxpy_def(), args, ProblemSize(n), *source_context)
                .json_path;
    }

    // Replay on a different device, in a different process-lifetime.
    auto context = sim::Context::create("NVIDIA A100-PCIE-40GB");
    CapturedLaunch capture = read_capture(json_path);
    CapturedLaunch::Replay replay(capture, *context);
    ASSERT_EQ(replay.args().size(), 4u);
    EXPECT_TRUE(replay.args()[0].is_buffer());
    EXPECT_FLOAT_EQ(replay.args()[2].scalar_value<float>(), 0.5f);
    EXPECT_EQ(replay.args()[3].scalar_value<int32_t>(), 200);

    std::vector<std::byte> y_bytes = replay.download(0);
    const float* y_data = reinterpret_cast<const float*>(y_bytes.data());
    EXPECT_EQ(y_data[123], 1.5f);

    // Mutate, then reset restores the captured state.
    context->memset_d8(replay.args()[0].device_ptr(), 0, 16);
    replay.reset();
    y_bytes = replay.download(0);
    y_data = reinterpret_cast<const float*>(y_bytes.data());
    EXPECT_EQ(y_data[0], 1.5f);

    EXPECT_THROW(replay.download(2), Error);  // scalar has no payload
}

TEST(CaptureReplay, OutputBuffersZeroFilledOnReset) {
    std::string dir = make_temp_dir("kl-capture");
    auto context = sim::Context::create("NVIDIA RTX A4000");
    KernelBuilder builder(
        "saxpy", KernelSource::inline_source("saxpy.cu", rtc::builtin_kernel_source("saxpy")));
    builder.tune("BLOCK_SIZE", {64});
    builder.problem_size(arg3).block_size(Expr::param("BLOCK_SIZE")).output_arg(0);

    const int n = 50;
    DeviceArray<float> y(static_cast<size_t>(n)), x(static_cast<size_t>(n));
    std::vector<KernelArg> args = into_args(y, x, 1.0f, n);
    std::string json_path =
        write_capture(dir, builder.build(), args, ProblemSize(n), *context).json_path;

    CapturedLaunch capture = read_capture(json_path);
    CapturedLaunch::Replay replay(capture, *context);
    context->memset_d8(replay.args()[0].device_ptr(), 0xAB, n * sizeof(float));
    replay.reset();
    std::vector<std::byte> out = replay.download(0);
    for (std::byte b : out) {
        ASSERT_EQ(static_cast<int>(b), 0);
    }
}

}  // namespace
}  // namespace kl::core
