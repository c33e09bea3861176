// Annotated-kernel workflow: the tuning specification lives inside the
// kernel source as `#pragma kernel_launcher` lines, so host code shrinks
// to "load, launch". Compare with quickstart.cpp, where the same
// specification is built with the C++ KernelBuilder API.
//
// Usage: annotated_kernel

#include <cstdio>
#include <vector>

#include "core/device_buffer.hpp"
#include "core/pragma.hpp"
#include "core/wisdom_kernel.hpp"
#include "cudasim/context.hpp"
#include "util/fs.hpp"

namespace klc = kl::core;

namespace {

// In a real tree this would be saxpy.cu on disk; the annotations and the
// kernel live together either way.
const char* kAnnotatedSaxpy = R"cuda(
#pragma kernel_launcher tune BLOCK_SIZE(64, 128, 256, 512) default(256)
#pragma kernel_launcher problem_size(arg3)
#pragma kernel_launcher block_size(BLOCK_SIZE)
#pragma kernel_launcher output(0)
#pragma kernel_launcher tuning_key(saxpy_annotated)
__global__ void saxpy(float *y, const float *x, float a, int n) {
    int i = blockIdx.x * BLOCK_SIZE + threadIdx.x;
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
)cuda";

}  // namespace

int main() {
    auto context = kl::sim::Context::create("NVIDIA RTX A4000");

    // One call replaces the whole KernelBuilder block.
    klc::KernelBuilder builder = klc::builder_from_annotated_source(
        "saxpy", klc::KernelSource::inline_source("saxpy.cu", kAnnotatedSaxpy));
    std::printf("parsed annotations: %zu tunables, space of %llu configurations\n",
                builder.space().params().size(),
                static_cast<unsigned long long>(builder.space().cardinality()));

    klc::WisdomKernel kernel(
        builder, klc::WisdomSettings().wisdom_dir(kl::make_temp_dir("kl-annotated")));

    const int n = 100000;
    std::vector<float> hy(n, 1.0f), hx(n, 2.0f);
    klc::DeviceArray<float> y(hy), x(hx);
    const klc::LaunchOutcome outcome = kernel.launch(y, x, 3.0f, n);

    std::vector<float> out = y.copy_to_host();
    for (int i = 0; i < n; i += 9973) {
        if (out[i] != 7.0f) {
            std::printf("FAILED at %d: %f\n", i, out[i]);
            return 1;
        }
    }
    std::printf("saxpy verified (y = 3*x + y = 7.0), block size %u selected by '%s'\n",
                context->last_launch().block.x,
                klc::wisdom_match_name(outcome.match));
    std::printf("annotated_kernel OK\n");
    return 0;
}
