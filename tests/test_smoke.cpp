// End-to-end smoke tests: the full pipeline (definition -> wisdom ->
// runtime compilation -> simulated launch) on the built-in vector_add
// kernel, and a MicroHH configuration executed against its scalar
// reference. Fine-grained behavior is covered by the per-module suites.

#include <gtest/gtest.h>

#include "core/kernel_launcher.hpp"
#include "microhh/definitions.hpp"
#include "microhh/kernels.hpp"
#include "microhh/reference.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/fs.hpp"

namespace kl {
namespace {

using core::DeviceArray;
using core::KernelBuilder;
using core::KernelSource;
using core::WisdomKernel;
using core::WisdomSettings;

TEST(Smoke, VectorAddThroughWisdomKernel) {
    auto context = sim::Context::create("NVIDIA A100-PCIE-40GB");
    rtc::register_builtin_kernels();

    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source("vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    core::Expr block_size = builder.tune("block_size", {32, 64, 128, 256, 1024});
    builder.problem_size(core::arg3)
        .template_args(block_size)
        .block_size(block_size);

    const int n = 100000;
    std::vector<float> host_a(n), host_b(n);
    for (int i = 0; i < n; i++) {
        host_a[i] = static_cast<float>(i);
        host_b[i] = 2.0f * static_cast<float>(i);
    }
    DeviceArray<float> c(n), a(host_a), b(host_b);

    std::string dir = make_temp_dir("kl-smoke");
    WisdomKernel kernel(builder, WisdomSettings().wisdom_dir(dir));
    kernel.launch(c, a, b, n);

    EXPECT_TRUE(kernel.last_launch_was_cold());
    EXPECT_EQ(kernel.last_match(), core::WisdomMatch::None);  // no wisdom yet
    EXPECT_GT(kernel.last_cold_overhead().compile_seconds, 0.05);

    std::vector<float> result = c.copy_to_host();
    for (int i = 0; i < n; i += 997) {
        ASSERT_FLOAT_EQ(result[i], 3.0f * static_cast<float>(i)) << "at " << i;
    }

    // Second launch: warm, no compilation.
    kernel.launch(c, a, b, n);
    EXPECT_FALSE(kernel.last_launch_was_cold());
    EXPECT_EQ(kernel.cached_instance_count(), 1u);
}

TEST(Smoke, AdvecUMatchesReferenceForNonDefaultConfig) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    microhh::Grid grid(40, 24, 16);

    // A deliberately exotic configuration: tiled on all axes, strided x,
    // exotic unravel order.
    core::KernelDef def = microhh::make_advec_u_builder(microhh::Precision::Float32).build();
    core::Config config = def.space.default_config();
    config.set("BLOCK_SIZE_X", core::Value(16));
    config.set("BLOCK_SIZE_Y", core::Value(4));
    config.set("BLOCK_SIZE_Z", core::Value(2));
    config.set("TILE_FACTOR_X", core::Value(2));
    config.set("TILE_FACTOR_Y", core::Value(4));
    config.set("TILE_FACTOR_Z", core::Value(2));
    config.set("UNRAVEL_ORDER", core::Value("ZXY"));
    ASSERT_TRUE(def.space.is_valid(config));

    microhh::Field3d<float> u(grid), ut_ref(grid);
    u.fill_turbulent(7);
    const float dxi = 40.0f, dyi = 24.0f, dzi = 16.0f;
    microhh::advec_u_reference(ut_ref, u, dxi, dyi, dzi);

    DeviceArray<float> d_ut(static_cast<size_t>(grid.ncells()));
    DeviceArray<float> d_u(u.vec());
    d_ut.fill_zero();

    core::ProblemSize problem(grid.itot, grid.jtot, grid.ktot);
    core::KernelCompiler::Output compiled =
        core::KernelCompiler::compile(def, config, context->device(), &problem);
    auto module = sim::Module::load(*context, std::move(compiled.image));

    std::vector<core::KernelArg> args = core::into_args(
        d_ut, d_u, dxi, dyi, dzi, grid.itot, grid.jtot, grid.ktot, grid.icells(),
        static_cast<int>(grid.kstride()));
    core::KernelDef::Geometry geom = def.eval_geometry(config, args);
    std::vector<void*> slots = core::arg_slots(args);
    context->launch(
        module->get_function("advec_u"), geom.grid, geom.block, geom.shared_mem_bytes,
        context->default_stream(), slots.data(), slots.size());

    std::vector<float> result = d_ut.copy_to_host();
    for (int k = 0; k < grid.ktot; k++) {
        for (int j = 0; j < grid.jtot; j++) {
            for (int i = 0; i < grid.itot; i++) {
                const size_t ijk = static_cast<size_t>(grid.index(i, j, k));
                ASSERT_EQ(result[ijk], ut_ref.vec()[ijk])
                    << "mismatch at (" << i << "," << j << "," << k << ")";
            }
        }
    }
}

}  // namespace
}  // namespace kl
