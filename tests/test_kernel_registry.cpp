// Tests for the process-wide WisdomKernel registry.

#include <gtest/gtest.h>

#include "core/device_buffer.hpp"
#include "core/kernel_registry.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/fs.hpp"

namespace kl::core {
namespace {

KernelDef vector_add_def(int extra_value = 0) {
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source("vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    std::vector<Value> values = {32, 64, 128, 256};
    if (extra_value != 0) {
        values.push_back(Value(extra_value));
    }
    Expr block_size = builder.tune("block_size", std::move(values));
    builder.problem_size(arg3).template_args(block_size).block_size(block_size);
    return builder.build();
}

TEST(WisdomKernelRegistry, SharesKernelAcrossCallSites) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    WisdomKernelRegistry reg(WisdomSettings().wisdom_dir(make_temp_dir("kl-reg")));

    KernelDef def = vector_add_def();
    WisdomKernel& first = reg.lookup(def);
    WisdomKernel& second = reg.lookup(def);
    EXPECT_EQ(&first, &second);
    EXPECT_EQ(reg.size(), 1u);

    // Launch through the registry: one compiled instance shared by all
    // "call sites".
    const int n = 512;
    DeviceArray<float> c(n), a(n), b(n);
    EXPECT_TRUE(reg.launch(def, c, a, b, n).cold);
    EXPECT_FALSE(reg.launch(def, c, a, b, n).cold);
    EXPECT_EQ(first.cached_instance_count(), 1u);
}

TEST(WisdomKernelRegistry, DistinctDefinitionsDoNotCollide) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    WisdomKernelRegistry reg(WisdomSettings().wisdom_dir(make_temp_dir("kl-reg")));

    // Same kernel name, different search space: distinct entries.
    WisdomKernel& a = reg.lookup(vector_add_def());
    WisdomKernel& b = reg.lookup(vector_add_def(1024));
    EXPECT_NE(&a, &b);
    EXPECT_EQ(reg.size(), 2u);
}

TEST(WisdomKernelRegistry, ClearDropsKernels) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    WisdomKernelRegistry reg(WisdomSettings().wisdom_dir(make_temp_dir("kl-reg")));
    reg.lookup(vector_add_def());
    EXPECT_EQ(reg.size(), 1u);
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(WisdomKernelRegistry, DefaultRegistrySingleton) {
    EXPECT_EQ(&registry(), &registry());
}

}  // namespace
}  // namespace kl::core
