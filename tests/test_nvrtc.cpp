// Unit tests for the simulated NVRTC: option parsing, name-expression
// mangling, compile diagnostics, register estimation (__launch_bounds__
// squeeze/spill), and the built-in kernels.

#include <gtest/gtest.h>

#include <algorithm>

#include "util/errors.hpp"
#include "cudasim/context.hpp"
#include "microhh/kernels.hpp"
#include "nvrtcsim/nvrtc.hpp"
#include "nvrtcsim/registry.hpp"

namespace kl::rtc {
namespace {

TEST(CompileOptions, DefineForms) {
    CompileOptions opts = CompileOptions::parse(
        {"-DX=1", "-D", "Y=2", "-DFLAG", "-D Z=three"});
    ASSERT_EQ(opts.defines.size(), 4u);
    EXPECT_EQ(opts.defines[0], (std::pair<std::string, std::string> {"X", "1"}));
    EXPECT_EQ(opts.defines[1].second, "2");
    EXPECT_EQ(opts.defines[2], (std::pair<std::string, std::string> {"FLAG", "1"}));
    EXPECT_EQ(opts.defines[3], (std::pair<std::string, std::string> {"Z", "three"}));
}

TEST(CompileOptions, ArchAndStd) {
    CompileOptions opts = CompileOptions::parse(
        {"--gpu-architecture=compute_86", "-std=c++17", "--use_fast_math"});
    EXPECT_EQ(opts.arch, "compute_86");
    EXPECT_EQ(opts.std_version, "c++17");
    EXPECT_TRUE(opts.fast_math);

    CompileOptions alt = CompileOptions::parse({"-arch", "sm_80"});
    EXPECT_EQ(alt.arch, "sm_80");
}

TEST(CompileOptions, UnknownOptionsCollected) {
    CompileOptions opts = CompileOptions::parse({"--whatever", "-O3"});
    EXPECT_EQ(opts.unrecognized.size(), 2u);
}

TEST(CompileOptions, DanglingValueThrows) {
    EXPECT_THROW(CompileOptions::parse({"-D"}), Error);
}

TEST(NameExpression, Parsing) {
    auto [base, args] = parse_name_expression("advec_u<double>");
    EXPECT_EQ(base, "advec_u");
    ASSERT_EQ(args.size(), 1u);
    EXPECT_EQ(args[0], "double");

    auto [base2, args2] = parse_name_expression(" gemm < float , 32 , vec<4> > ");
    EXPECT_EQ(base2, "gemm");
    ASSERT_EQ(args2.size(), 3u);
    EXPECT_EQ(args2[2], "vec<4>");  // nested brackets survive

    auto [base3, args3] = parse_name_expression("plain_kernel");
    EXPECT_EQ(base3, "plain_kernel");
    EXPECT_TRUE(args3.empty());
}

TEST(NameExpression, MalformedThrows) {
    EXPECT_THROW(parse_name_expression(""), Error);
    EXPECT_THROW(parse_name_expression("k<"), Error);
    EXPECT_THROW(parse_name_expression("k<a,>"), Error);
    EXPECT_THROW(parse_name_expression("<int>"), Error);
    EXPECT_THROW(parse_name_expression("k<a<b>"), Error);
}

TEST(ScalarTypeSize, KnownTypes) {
    EXPECT_EQ(scalar_type_size("float").value(), 4u);
    EXPECT_EQ(scalar_type_size("double").value(), 8u);
    EXPECT_EQ(scalar_type_size(" double "), 8u);
    EXPECT_EQ(scalar_type_size("half").value(), 2u);
    EXPECT_FALSE(scalar_type_size("struct foo").has_value());
}

TEST(Program, CompilesBuiltinKernel) {
    register_builtin_kernels();
    Program program("vector_add", builtin_kernel_source("vector_add"), "vector_add.cu");
    program.add_name_expression("vector_add<128>");
    CompileResult result = program.compile({"--gpu-architecture=compute_80"});
    ASSERT_EQ(result.images.size(), 1u);
    const sim::KernelImage& image = result.images.front();
    EXPECT_EQ(image.name, "vector_add");
    EXPECT_EQ(image.lowered_name, "vector_add<128>");
    EXPECT_EQ(image.arch, "compute_80");
    EXPECT_EQ(image.element_size, 4u);
    EXPECT_TRUE(static_cast<bool>(image.impl));
    EXPECT_GT(result.compile_seconds, 0.1);  // modeled NVRTC latency
    EXPECT_NE(image.ptx.find(".target compute_80"), std::string::npos);
    EXPECT_NE(image.ptx.find("vector_add<128>"), std::string::npos);
}

TEST(Program, MissingRequiredConstantIsUndefinedIdentifier) {
    register_builtin_kernels();
    Program program("saxpy", builtin_kernel_source("saxpy"));
    try {
        program.compile({});
        FAIL() << "expected CompileError";
    } catch (const CompileError& e) {
        EXPECT_NE(e.log().find("'BLOCK_SIZE' is undefined"), std::string::npos)
            << e.log();
    }
    // Defining it fixes the build.
    EXPECT_NO_THROW(program.compile({"-DBLOCK_SIZE=256"}));
}

TEST(Program, KernelNameNotInSourceFails) {
    register_builtin_kernels();
    Program program("saxpy", builtin_kernel_source("vector_add"));
    EXPECT_THROW(program.compile({"-DBLOCK_SIZE=256"}), CompileError);
}

TEST(Program, UnknownKernelFails) {
    Program program("mystery", "__global__ void mystery() {}");
    try {
        program.compile({});
        FAIL() << "expected CompileError";
    } catch (const CompileError& e) {
        EXPECT_NE(e.log().find("no device implementation"), std::string::npos);
    }
}

TEST(Program, UnbalancedBracesFail) {
    Program program("vector_add", "__global__ void vector_add() { {");
    EXPECT_THROW(program.compile({}), CompileError);
}

TEST(Program, TooManyTemplateArgsFail) {
    register_builtin_kernels();
    Program program("vector_add", builtin_kernel_source("vector_add"));
    program.add_name_expression("vector_add<32, 64>");
    EXPECT_THROW(program.compile({}), CompileError);
}

TEST(Program, UnknownScalarTypeFails) {
    register_builtin_kernels();
    Program program("copy3d", builtin_kernel_source("copy3d"));
    program.add_name_expression("copy3d<quaternion>");
    EXPECT_THROW(program.compile({}), CompileError);
}

TEST(Program, MultipleNameExpressions) {
    register_builtin_kernels();
    Program program("copy3d", builtin_kernel_source("copy3d"));
    program.add_name_expression("copy3d<float>");
    program.add_name_expression("copy3d<double>");
    CompileResult result = program.compile({});
    ASSERT_EQ(result.images.size(), 2u);
    EXPECT_EQ(result.images[0].element_size, 4u);
    EXPECT_EQ(result.images[1].element_size, 8u);
}

TEST(Program, DefinesOverrideDefaults) {
    KernelEntry entry;
    entry.name = "with_defaults";
    entry.constant_defaults["WIDTH"] = "8";
    KernelRegistry::global().add(entry);
    Program program("with_defaults", "__global__ void with_defaults() {}");
    sim::KernelImage image = std::move(program.compile({}).images.front());
    EXPECT_EQ(image.constants.get_int("WIDTH"), 8);
    image = std::move(program.compile({"-DWIDTH=16"}).images.front());
    EXPECT_EQ(image.constants.get_int("WIDTH"), 16);
}

// --- register estimation -------------------------------------------------------

sim::KernelImage compile_advec(const std::vector<std::string>& extra) {
    microhh::register_microhh_kernels();
    std::vector<std::string> options = {
        "-DBLOCK_SIZE_X=256",      "-DBLOCK_SIZE_Y=1",      "-DBLOCK_SIZE_Z=1",
        "-DTILE_FACTOR_X=1",       "-DTILE_FACTOR_Y=1",     "-DTILE_FACTOR_Z=1",
        "-DUNROLL_X=0",            "-DUNROLL_Y=0",          "-DUNROLL_Z=0",
        "-DTILE_CONTIGUOUS_X=0",   "-DTILE_CONTIGUOUS_Y=0", "-DTILE_CONTIGUOUS_Z=0",
        "-DUNRAVEL_ORDER=XYZ",     "-DBLOCKS_PER_SM=1",
    };
    // Later options override earlier ones in the constant map.
    for (const std::string& opt : extra) {
        options.push_back(opt);
    }
    Program program("advec_u", microhh::advec_u_source(), "advec_u.cu");
    program.add_name_expression("advec_u<float>");
    return std::move(program.compile(options).images.front());
}

TEST(Registers, DoubleUsesMoreRegistersThanFloat) {
    microhh::register_microhh_kernels();
    Program program("advec_u", microhh::advec_u_source());
    program.add_name_expression("advec_u<double>");
    std::vector<std::string> options = {
        "-DBLOCK_SIZE_X=256",    "-DBLOCK_SIZE_Y=1",      "-DBLOCK_SIZE_Z=1",
        "-DTILE_FACTOR_X=1",     "-DTILE_FACTOR_Y=1",     "-DTILE_FACTOR_Z=1",
        "-DUNROLL_X=0",          "-DUNROLL_Y=0",          "-DUNROLL_Z=0",
        "-DTILE_CONTIGUOUS_X=0", "-DTILE_CONTIGUOUS_Y=0", "-DTILE_CONTIGUOUS_Z=0",
        "-DUNRAVEL_ORDER=XYZ",   "-DBLOCKS_PER_SM=1"};
    sim::KernelImage dbl = std::move(program.compile(options).images.front());
    sim::KernelImage flt = compile_advec({});
    EXPECT_GT(dbl.registers_per_thread, flt.registers_per_thread);
}

TEST(Registers, UnrolledTilingRaisesPressure) {
    sim::KernelImage plain = compile_advec({});
    sim::KernelImage tiled = compile_advec({"-DTILE_FACTOR_X=4"});
    sim::KernelImage unrolled = compile_advec({"-DTILE_FACTOR_X=4", "-DUNROLL_X=1"});
    EXPECT_GE(tiled.registers_per_thread, plain.registers_per_thread);
    EXPECT_GT(unrolled.registers_per_thread, tiled.registers_per_thread);
}

TEST(Registers, LaunchBoundsSqueezeThenSpill) {
    // A tight register budget first squeezes (mild), then spills (harsh).
    sim::KernelImage relaxed = compile_advec({"-DBLOCKS_PER_SM=1"});
    EXPECT_EQ(relaxed.spilled_registers, 0);
    EXPECT_EQ(relaxed.squeezed_registers, 0);

    // 4 blocks x 256 threads: 64-register budget. advec needs ~48: fine.
    sim::KernelImage bounded = compile_advec({"-DBLOCKS_PER_SM=4"});
    EXPECT_EQ(bounded.spilled_registers, 0);

    // 6 blocks x 256 threads: 40-register budget; squeeze absorbs ~25%,
    // the rest spills.
    sim::KernelImage tight = compile_advec({"-DBLOCKS_PER_SM=6"});
    EXPECT_GT(tight.squeezed_registers, 0);
    EXPECT_LE(tight.registers_per_thread, 40);

    // Unrolled double under the same budget spills heavily.
    microhh::register_microhh_kernels();
    Program program("advec_u", microhh::advec_u_source());
    program.add_name_expression("advec_u<double>");
    sim::KernelImage heavy = std::move(
        program
            .compile(
                {"-DBLOCK_SIZE_X=256", "-DBLOCK_SIZE_Y=1", "-DBLOCK_SIZE_Z=1",
                 "-DTILE_FACTOR_X=4", "-DTILE_FACTOR_Y=1", "-DTILE_FACTOR_Z=1",
                 "-DUNROLL_X=1", "-DUNROLL_Y=0", "-DUNROLL_Z=0",
                 "-DTILE_CONTIGUOUS_X=1", "-DTILE_CONTIGUOUS_Y=0",
                 "-DTILE_CONTIGUOUS_Z=0", "-DUNRAVEL_ORDER=XYZ", "-DBLOCKS_PER_SM=6"})
            .images.front());
    EXPECT_GT(heavy.spilled_registers, 10);
}

// --- built-in kernels functional -------------------------------------------------

TEST(BuiltinKernels, SaxpyComputes) {
    register_builtin_kernels();
    auto context = sim::Context::create("NVIDIA RTX A4000");
    const int n = 1000;
    sim::DevicePtr y = context->malloc(n * sizeof(float));
    sim::DevicePtr x = context->malloc(n * sizeof(float));
    std::vector<float> hx(n, 2.0f), hy(n, 1.0f);
    context->memcpy_htod(x, hx.data(), n * sizeof(float));
    context->memcpy_htod(y, hy.data(), n * sizeof(float));

    Program program("saxpy", builtin_kernel_source("saxpy"));
    sim::KernelImage image =
        std::move(program.compile({"-DBLOCK_SIZE=128"}).images.front());
    float a = 3.0f;
    int count = n;
    void* slots[4] = {&y, &x, &a, &count};
    context->launch(
        image, sim::Dim3((n + 127) / 128), sim::Dim3(128), 0,
        context->default_stream(), slots, 4);

    std::vector<float> out(n);
    context->memcpy_dtoh(out.data(), y, n * sizeof(float));
    for (int i = 0; i < n; i++) {
        ASSERT_FLOAT_EQ(out[i], 7.0f);
    }
}

TEST(BuiltinKernels, Copy3dDoublePrecision) {
    register_builtin_kernels();
    auto context = sim::Context::create("NVIDIA A100-PCIE-40GB");
    const int nx = 17, ny = 9, nz = 5;
    const size_t count = static_cast<size_t>(nx) * ny * nz;
    sim::DevicePtr dst = context->malloc(count * sizeof(double));
    sim::DevicePtr src = context->malloc(count * sizeof(double));
    std::vector<double> host(count);
    for (size_t i = 0; i < count; i++) {
        host[i] = 0.25 * static_cast<double>(i);
    }
    context->memcpy_htod(src, host.data(), count * sizeof(double));

    Program program("copy3d", builtin_kernel_source("copy3d"));
    program.add_name_expression("copy3d<double>");
    sim::KernelImage image = std::move(program.compile({}).images.front());
    int inx = nx, iny = ny, inz = nz;
    void* slots[5] = {&dst, &src, &inx, &iny, &inz};
    context->launch(
        image, sim::Dim3(3, 3, 3), sim::Dim3(8, 4, 2), 0, context->default_stream(),
        slots, 5);

    std::vector<double> out(count);
    context->memcpy_dtoh(out.data(), dst, count * sizeof(double));
    EXPECT_EQ(out, host);
}

TEST(BuiltinKernels, SourceLookupErrors) {
    EXPECT_THROW(builtin_kernel_source("nonexistent"), Error);
    EXPECT_NO_THROW(builtin_kernel_source("vector_add"));
}

TEST(Registry, LookupAndNames) {
    register_builtin_kernels();
    KernelRegistry& registry = KernelRegistry::global();
    EXPECT_NE(registry.find("vector_add"), nullptr);
    EXPECT_NE(registry.find("saxpy"), nullptr);
    EXPECT_EQ(registry.find("missing"), nullptr);
    KernelEntry anonymous;
    EXPECT_THROW(registry.add(std::move(anonymous)), Error);
}

}  // namespace
}  // namespace kl::rtc
