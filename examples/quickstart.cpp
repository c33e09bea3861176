// Quickstart: the paper's Listing 3 end-to-end. Defines a tunable
// vector_add kernel, launches it through a WisdomKernel (default
// configuration, since nothing is tuned yet), verifies the result, then
// tunes the kernel and launches again with the selected configuration.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <filesystem>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "cudasim/context.hpp"
#include "nvrtcsim/registry.hpp"
#include "tuner/session.hpp"
#include "util/fs.hpp"

namespace klc = ::kl::core;
using ::kl::sim::Context;

int main() {
    // A simulated A100 stands in for the GPU; kernels execute functionally
    // on the host and timings come from the device model.
    auto context = Context::create("NVIDIA A100-PCIE-40GB");

    // --- Listing 3: the kernel definition -------------------------------
    auto builder = klc::KernelBuilder(
        "vector_add",
        klc::KernelSource::inline_source(
            "vector_add.cu", ::kl::rtc::builtin_kernel_source("vector_add")));
    auto block_size = builder.tune("block_size", {32, 64, 128, 256, 1024});
    builder.problem_size(klc::arg3)
        .template_args(block_size)
        .block_size(block_size);

    // from_env() honors the KERNEL_LAUNCHER_* variables (compile cache,
    // lint mode, ...), so e.g. KERNEL_LAUNCHER_CACHE=readwrite populates a
    // persistent cache directory that kl-cache can inspect. It throws on
    // an invalid value, before the scratch wisdom dir exists; every return
    // below removes the dir.
    klc::WisdomSettings settings = klc::WisdomSettings::from_env();
    const std::string wisdom_dir = ::kl::make_temp_dir("kl-quickstart");
    auto kernel = klc::WisdomKernel(builder, settings.wisdom_dir(wisdom_dir));

    // --- data ------------------------------------------------------------
    const int n = 10'000'000;
    std::vector<float> host_a(n), host_b(n);
    for (int i = 0; i < n; i++) {
        host_a[i] = 0.5f * i;
        host_b[i] = 1.0f * i;
    }
    klc::DeviceArray<float> c(n), a(host_a), b(host_b);

    // --- first launch: default configuration ----------------------------
    const klc::LaunchOutcome first = kernel.launch(c, a, b, n);
    context->synchronize();
    std::printf("first launch : cold=%d, compile %.0f ms, kernel config selected by '%s'\n",
                first.cold,
                first.overhead.compile_seconds * 1e3,
                klc::wisdom_match_name(first.match));

    std::vector<float> result = c.copy_to_host();
    for (int i = 0; i < n; i += 1'000'003) {
        if (result[i] != host_a[i] + host_b[i]) {
            std::printf("FAILED: c[%d] = %f\n", i, result[i]);
            std::filesystem::remove_all(wisdom_dir);
            return 1;
        }
    }
    std::printf("result verified: c[i] == a[i] + b[i]\n");

    // --- tune it ----------------------------------------------------------
    // Capture the launch in memory and replay it through the tuner.
    klc::CapturedLaunch capture;
    capture.def = builder.build();
    capture.problem_size = klc::ProblemSize(n);
    capture.device_name = context->device().name;
    capture.device_architecture = context->device().architecture;
    {
        klc::CapturedArg out;
        out.is_buffer = true;
        out.is_output = true;
        out.type = klc::ScalarType::F32;
        out.count = n;
        capture.args.push_back(out);
        klc::CapturedArg in = out;
        in.is_output = false;
        capture.args.push_back(in);
        capture.args.push_back(in);
        klc::CapturedArg scalar;
        scalar.is_buffer = false;
        scalar.type = klc::ScalarType::I32;
        scalar.scalar_value = klc::Value(n);
        capture.args.push_back(scalar);
    }

    ::kl::tuner::SessionOptions options;
    options.max_evals = 16;  // the space only has 5 configurations
    ::kl::tuner::TuningResult tuned = ::kl::tuner::tune_capture_to_wisdom(
        capture, *context, "exhaustive", wisdom_dir, options);
    std::printf("tuned: best config {%s} at %.4f ms after %llu evaluations\n",
                tuned.best_config.to_string().c_str(), tuned.best_seconds * 1e3,
                static_cast<unsigned long long>(tuned.evaluations));

    // --- relaunch: the wisdom file now selects the tuned configuration ----
    kernel.clear_cache();
    const klc::LaunchOutcome relaunch = kernel.launch(c, a, b, n);
    std::printf("relaunch     : selection match = '%s' (expected 'exact')\n",
                klc::wisdom_match_name(relaunch.match));
    std::printf("quickstart OK\n");
    std::filesystem::remove_all(wisdom_dir);
    return 0;
}
