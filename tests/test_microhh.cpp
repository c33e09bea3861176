// Tests for the MicroHH substrate: grid indexing, the scalar reference
// kernels, the tiled work-assignment emulation, and — the central
// correctness property of the reproduction — that *every* tunable
// configuration of the Table 2 space computes bit-identical results to
// the scalar reference, for both kernels and both precisions.

#include <gtest/gtest.h>

#include "core/kernel_launcher.hpp"
#include "microhh/definitions.hpp"
#include "microhh/grid.hpp"
#include "microhh/kernels.hpp"
#include "microhh/model.hpp"
#include "microhh/reference.hpp"
#include "microhh/tiled_assignment.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace kl::microhh {
namespace {

TEST(Grid, IndexingAndStrides) {
    Grid grid(8, 6, 4);
    EXPECT_EQ(grid.icells(), 8 + 2 * kGhostX);
    EXPECT_EQ(grid.jcells(), 6 + 2 * kGhostY);
    EXPECT_EQ(grid.kcells(), 4 + 2 * kGhostZ);
    EXPECT_EQ(grid.jstride(), grid.icells());
    EXPECT_EQ(grid.kstride(), static_cast<int64_t>(grid.icells()) * grid.jcells());
    EXPECT_EQ(grid.ncells(), grid.kstride() * grid.kcells());

    // Interior (0,0,0) sits at the ghost offset.
    EXPECT_EQ(
        grid.index(0, 0, 0),
        kGhostZ * grid.kstride() + kGhostY * grid.jstride() + kGhostX);
    // Stepping one interior cell moves one stride.
    EXPECT_EQ(grid.index(1, 0, 0) - grid.index(0, 0, 0), 1);
    EXPECT_EQ(grid.index(0, 1, 0) - grid.index(0, 0, 0), grid.jstride());
    EXPECT_EQ(grid.index(0, 0, 1) - grid.index(0, 0, 0), grid.kstride());
    EXPECT_THROW(Grid(0, 1, 1), Error);
}

TEST(Grid, FieldSizeMatchesPaperCaptureSizes) {
    // 256^3 float field with (3,3,1) ghosts: the 70.8 MB of Table 3.
    Grid grid(256, 256, 256);
    EXPECT_EQ(grid.ncells(), 262ll * 262 * 258);
    EXPECT_NEAR(grid.ncells() * 4 / 1e6, 70.85, 0.1);
    Grid big(512, 512, 512);
    EXPECT_NEAR(big.ncells() * 8 / 1e6, 1103.0, 2.0);
}

TEST(Field3d, TurbulentFillIsDeterministicAndSeedDependent) {
    Grid grid(16, 16, 8);
    Field3d<float> a(grid), b(grid), c(grid);
    a.fill_turbulent(42);
    b.fill_turbulent(42);
    c.fill_turbulent(43);
    EXPECT_EQ(a.vec(), b.vec());
    EXPECT_NE(a.vec(), c.vec());
    // Ghost cells are populated too (stencils need them).
    EXPECT_NE(a.vec().front(), 0.0f);
}

TEST(Reference, AdvectionOfUniformFieldIsZero) {
    // A constant field has no gradients: the advection tendency vanishes.
    Grid grid(12, 10, 8);
    Field3d<double> u(grid), ut(grid);
    for (double& v : u.vec()) {
        v = 3.5;
    }
    advec_u_reference<double>(ut, u, 1.0, 1.0, 1.0);
    for (int k = 0; k < grid.ktot; k++) {
        for (int j = 0; j < grid.jtot; j++) {
            for (int i = 0; i < grid.itot; i++) {
                ASSERT_NEAR(ut.at(i, j, k), 0.0, 1e-12);
            }
        }
    }
}

TEST(Reference, DiffusionOfLinearFieldIsZero) {
    // The Laplacian of a linear profile vanishes; the tendencies must too.
    Grid grid(10, 10, 6);
    Field3d<double> u(grid), v(grid), w(grid), ut(grid), vt(grid), wt(grid);
    for (int k = -kGhostZ; k < grid.ktot + kGhostZ; k++) {
        for (int j = -kGhostY; j < grid.jtot + kGhostY; j++) {
            for (int i = -kGhostX; i < grid.itot + kGhostX; i++) {
                size_t idx = static_cast<size_t>(
                    (k + kGhostZ) * grid.kstride() + (j + kGhostY) * grid.jstride()
                    + (i + kGhostX));
                u.vec()[idx] = 2.0 * i + 0.5 * j - k;
                v.vec()[idx] = -i + j + 3.0 * k;
                w.vec()[idx] = 0.25 * i;
            }
        }
    }
    diff_uvw_reference<double>(ut, vt, wt, u, v, w, 1e-2, 1.0, 1.0, 1.0);
    for (int k = 0; k < grid.ktot; k++) {
        for (int j = 0; j < grid.jtot; j++) {
            for (int i = 0; i < grid.itot; i++) {
                ASSERT_NEAR(ut.at(i, j, k), 0.0, 1e-10);
                ASSERT_NEAR(vt.at(i, j, k), 0.0, 1e-10);
                ASSERT_NEAR(wt.at(i, j, k), 0.0, 1e-10);
            }
        }
    }
}

// --- tiled assignment ----------------------------------------------------------

TEST(TiledAssignment, CoversEveryPointExactlyOnce) {
    // Property: for a grab bag of shapes and permutations, the emulated
    // work assignment touches each interior point exactly once.
    Rng rng(77);
    for (int trial = 0; trial < 60; trial++) {
        TiledAssignment assign;
        static const int64_t blocks[] = {1, 2, 3, 5, 8};
        static const int64_t tiles[] = {1, 2, 4};
        static const char* orders[] = {"XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"};
        for (int a = 0; a < 3; a++) {
            assign.block[a] = blocks[rng.next_below(5)];
            assign.tile[a] = tiles[rng.next_below(3)];
            assign.contiguous[a] = rng.next_bool();
        }
        sim::parse_unravel_order(orders[rng.next_below(6)], assign.order);

        const int64_t n[3] = {
            static_cast<int64_t>(1 + rng.next_below(21)),
            static_cast<int64_t>(1 + rng.next_below(13)),
            static_cast<int64_t>(1 + rng.next_below(9))};
        const uint32_t total_blocks = static_cast<uint32_t>(
            assign.blocks_along(0, n[0]) * assign.blocks_along(1, n[1])
            * assign.blocks_along(2, n[2]));

        std::vector<int> visits(static_cast<size_t>(n[0] * n[1] * n[2]), 0);
        assign.for_each_point(total_blocks, n, [&](int64_t x, int64_t y, int64_t z) {
            ASSERT_GE(x, 0);
            ASSERT_LT(x, n[0]);
            ASSERT_LT(y, n[1]);
            ASSERT_LT(z, n[2]);
            visits[static_cast<size_t>((z * n[1] + y) * n[0] + x)]++;
        });
        for (int count : visits) {
            ASSERT_EQ(count, 1) << "trial " << trial;
        }
    }
}

TEST(TiledAssignment, MismatchedLaunchGridThrows) {
    TiledAssignment assign;
    assign.block[0] = 8;
    const int64_t n[3] = {64, 1, 1};
    EXPECT_THROW(assign.for_each_point(7, n, [](int64_t, int64_t, int64_t) {}),
                 Error);
    EXPECT_NO_THROW(assign.for_each_point(8, n, [](int64_t, int64_t, int64_t) {}));
}

TEST(TiledAssignment, FromConstantsValidation) {
    sim::ConstantMap constants;
    constants.set("BLOCK_SIZE_X", "0");
    constants.set("BLOCK_SIZE_Y", "1");
    constants.set("BLOCK_SIZE_Z", "1");
    EXPECT_THROW(TiledAssignment::from_constants(constants), Error);
}

// --- the central property: every configuration matches the reference -----------

struct SweepCase {
    const char* kernel;
    const char* precision;
};

// Prints the case itself, so the test name is stable from build to build
// (without it gtest prints the bytes of the pointers).
void PrintTo(const SweepCase& sweep, std::ostream* os) {
    *os << sweep.kernel << ' ' << sweep.precision;
}

class ConfigSweep: public ::testing::TestWithParam<SweepCase> {};

template<typename real>
void run_config_sweep(const std::string& kernel_name) {
    auto context = sim::Context::create("NVIDIA A100-PCIE-40GB");
    const Precision prec =
        sizeof(real) == 4 ? Precision::Float32 : Precision::Float64;
    core::KernelDef def = kernel_name == "advec_u"
        ? make_advec_u_builder(prec).build()
        : make_diff_uvw_builder(prec).build();

    // Odd extents exercise the bounds checks of every tiling.
    Grid grid(21, 14, 9);
    const real dxi = real(grid.itot), dyi = real(grid.jtot), dzi = real(grid.ktot);
    const real visc = real(0.01);
    const size_t cells = static_cast<size_t>(grid.ncells());

    Field3d<real> u(grid), v(grid), w(grid);
    u.fill_turbulent(1);
    v.fill_turbulent(2);
    w.fill_turbulent(3);

    // Scalar reference.
    Field3d<real> ref_ut(grid), ref_vt(grid), ref_wt(grid);
    if (kernel_name == "advec_u") {
        advec_u_reference<real>(ref_ut, u, dxi, dyi, dzi);
    } else {
        diff_uvw_reference<real>(ref_ut, ref_vt, ref_wt, u, v, w, visc, dxi, dyi, dzi);
    }

    core::DeviceArray<real> d_u(u.vec()), d_v(v.vec()), d_w(w.vec());
    core::DeviceArray<real> d_ut(cells), d_vt(cells), d_wt(cells);

    // Random configurations (seeded) plus hand-picked corner cases.
    std::vector<core::Config> configs;
    configs.push_back(def.space.default_config());
    Rng rng(2024);
    while (configs.size() < 24) {
        std::optional<core::Config> c = def.space.random_config(rng);
        if (c.has_value()) {
            configs.push_back(std::move(*c));
        }
    }
    {
        // Every unravel order at least once, with aggressive tiling.
        for (const char* order : {"XYZ", "XZY", "YXZ", "YZX", "ZXY", "ZYX"}) {
            core::Config c = def.space.default_config();
            c.set("BLOCK_SIZE_X", core::Value(16));
            c.set("BLOCK_SIZE_Y", core::Value(2));
            c.set("BLOCK_SIZE_Z", core::Value(2));
            c.set("TILE_FACTOR_X", core::Value(4));
            c.set("TILE_FACTOR_Y", core::Value(4));
            c.set("TILE_FACTOR_Z", core::Value(4));
            c.set("UNRAVEL_ORDER", core::Value(order));
            configs.push_back(std::move(c));
        }
    }

    const core::ProblemSize problem(grid.itot, grid.jtot, grid.ktot);
    for (const core::Config& config : configs) {
        ASSERT_TRUE(def.space.is_valid(config)) << config.to_string();
        core::KernelCompiler::Output compiled =
            core::KernelCompiler::compile(def, config, context->device(), &problem);
        auto module = sim::Module::load(*context, std::move(compiled.image));

        // Poison outputs so untouched points are detected.
        context->memset_d8(d_ut.ptr(), 0xCD, d_ut.byte_size());
        context->memset_d8(d_vt.ptr(), 0xCD, d_vt.byte_size());
        context->memset_d8(d_wt.ptr(), 0xCD, d_wt.byte_size());

        std::vector<core::KernelArg> args;
        if (kernel_name == "advec_u") {
            args = core::into_args(
                d_ut, d_u, dxi, dyi, dzi, grid.itot, grid.jtot, grid.ktot,
                grid.icells(), static_cast<int>(grid.kstride()));
        } else {
            args = core::into_args(
                d_ut, d_vt, d_wt, d_u, d_v, d_w, visc, dxi, dyi, dzi, grid.itot,
                grid.jtot, grid.ktot, grid.icells(), static_cast<int>(grid.kstride()));
        }
        core::KernelDef::Geometry geom = def.eval_geometry(config, args);
        std::vector<void*> slots = core::arg_slots(args);
        context->launch(
            module->get_function(kernel_name), geom.grid, geom.block,
            geom.shared_mem_bytes, context->default_stream(), slots.data(),
            slots.size());

        std::vector<real> out = d_ut.copy_to_host();
        for (int k = 0; k < grid.ktot; k++) {
            for (int j = 0; j < grid.jtot; j++) {
                for (int i = 0; i < grid.itot; i++) {
                    const size_t ijk = static_cast<size_t>(grid.index(i, j, k));
                    ASSERT_EQ(out[ijk], ref_ut.vec()[ijk])
                        << kernel_name << " (" << i << "," << j << "," << k
                        << ") config: " << config.to_string();
                }
            }
        }
        if (kernel_name == "diff_uvw") {
            std::vector<real> vt_out = d_vt.copy_to_host();
            std::vector<real> wt_out = d_wt.copy_to_host();
            const size_t probe = static_cast<size_t>(
                grid.index(grid.itot - 1, grid.jtot - 1, grid.ktot - 1));
            ASSERT_EQ(vt_out[probe], ref_vt.vec()[probe]) << config.to_string();
            ASSERT_EQ(wt_out[probe], ref_wt.vec()[probe]) << config.to_string();
        }
    }
}

TEST_P(ConfigSweep, EveryConfigurationMatchesScalarReference) {
    const SweepCase& param = GetParam();
    if (std::string(param.precision) == "float") {
        run_config_sweep<float>(param.kernel);
    } else {
        run_config_sweep<double>(param.kernel);
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndPrecisions,
    ConfigSweep,
    ::testing::Values(
        SweepCase {"advec_u", "float"},
        SweepCase {"advec_u", "double"},
        SweepCase {"diff_uvw", "float"},
        SweepCase {"diff_uvw", "double"}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
        return std::string(info.param.kernel) + "_" + info.param.precision;
    });

// --- definitions -----------------------------------------------------------------

TEST(Definitions, Table2SpaceShape) {
    core::KernelDef def = make_advec_u_builder(Precision::Float32).build();
    EXPECT_EQ(def.space.cardinality(), 7'776'000u);
    EXPECT_EQ(def.space.params().size(), 14u);
    EXPECT_EQ(def.space.restrictions().size(), 2u);

    core::Config def_config = def.space.default_config();
    EXPECT_EQ(def_config.at("BLOCK_SIZE_X").as_int(), 256);
    EXPECT_EQ(def_config.at("BLOCK_SIZE_Y").as_int(), 1);
    EXPECT_EQ(def_config.at("TILE_FACTOR_X").as_int(), 1);
    EXPECT_EQ(def_config.at("UNROLL_X").as_bool(), false);
    EXPECT_EQ(def_config.at("UNRAVEL_ORDER").as_string(), "XYZ");
    EXPECT_EQ(def_config.at("BLOCKS_PER_SM").as_int(), 1);

    EXPECT_EQ(def.key(), "advec_u_float");
    EXPECT_EQ(make_diff_uvw_builder(Precision::Float64).build().key(),
              "diff_uvw_double");
    EXPECT_TRUE(def.is_output_arg(0));
    EXPECT_FALSE(def.is_output_arg(1));
}

TEST(Definitions, OneDimensionalLaunchGrid) {
    core::KernelDef def = make_advec_u_builder(Precision::Float32).build();
    core::Config config = def.space.default_config();
    config.set("BLOCK_SIZE_X", core::Value(64));
    config.set("TILE_FACTOR_X", core::Value(2));
    config.set("TILE_FACTOR_Z", core::Value(4));
    std::vector<core::KernelArg> args;
    args.push_back(core::KernelArg::buffer(1000, core::ScalarType::F32, 1));
    args.push_back(core::KernelArg::buffer(2000, core::ScalarType::F32, 1));
    args.push_back(core::KernelArg::scalar(1.0f));
    args.push_back(core::KernelArg::scalar(1.0f));
    args.push_back(core::KernelArg::scalar(1.0f));
    for (int v : {256, 256, 256, 262, 262 * 262}) {
        args.push_back(core::KernelArg::scalar<int32_t>(v));
    }
    core::KernelDef::Geometry geom = def.eval_geometry(config, args);
    // blocks: x ceil(256/128)=2, y 256, z ceil(256/4)=64 -> 32768, 1D.
    EXPECT_EQ(geom.grid, sim::Dim3(2 * 256 * 64, 1, 1));
    EXPECT_EQ(geom.block, sim::Dim3(64, 1, 1));
}

// --- Model driver ------------------------------------------------------------------

TEST(Model, StepsAndConverges) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    Grid grid(16, 16, 8);
    Model<float>::Options options;
    options.wisdom.wisdom_dir(make_temp_dir("kl-model"));
    Model<float> model(grid, *context, options);

    model.step(1e-5f);
    EXPECT_EQ(model.steps_taken(), 1);
    double first = model.last_tendency_norm();
    EXPECT_GT(first, 0);
    EXPECT_TRUE(std::isfinite(first));

    for (int i = 0; i < 3; i++) {
        model.step(1e-5f);
        EXPECT_TRUE(std::isfinite(model.last_tendency_norm()));
    }
    // Kernel instances are reused across steps.
    EXPECT_FALSE(model.advec_kernel().last_launch_was_cold());
    EXPECT_FALSE(model.diff_kernel().last_launch_was_cold());
    EXPECT_EQ(context->launch_count(), 8u);  // 2 kernels x 4 steps
}

TEST(Model, DoublePrecisionVariant) {
    auto context = sim::Context::create("NVIDIA A100-PCIE-40GB");
    Grid grid(12, 12, 6);
    Model<double>::Options options;
    options.wisdom.wisdom_dir(make_temp_dir("kl-model"));
    Model<double> model(grid, *context, options);
    model.step(1e-5);
    EXPECT_TRUE(std::isfinite(model.last_tendency_norm()));
    EXPECT_GT(model.last_tendency_norm(), 0);
    Field3d<double> u = model.download_u();
    EXPECT_NE(u.at(3, 3, 3), 0.0);
}

}  // namespace
}  // namespace kl::microhh
