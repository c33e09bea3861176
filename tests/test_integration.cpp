// End-to-end integration tests of the paper's workflow (Figure 1):
// capture -> tune -> wisdom -> runtime selection, across devices and
// problem sizes, including output validation during tuning.

#include <gtest/gtest.h>

#include "core/kernel_launcher.hpp"
#include "microhh/model.hpp"
#include "tuner/session.hpp"
#include "util/fs.hpp"

namespace kl {
namespace {

using microhh::Grid;
using microhh::Model;
using microhh::Precision;

TEST(Integration, FullWorkflowCaptureTuneSelect) {
    const std::string dir = make_temp_dir("kl-e2e");
    Grid grid(24, 16, 12);

    // --- run the application with capture enabled -----------------------
    {
        auto context = sim::Context::create("NVIDIA RTX A4000");
        Model<float>::Options options;
        options.wisdom.wisdom_dir(dir).capture_dir(dir).capture_pattern("*");
        Model<float> model(grid, *context, options);
        EXPECT_EQ(model.step(1e-5f).advec.match, core::WisdomMatch::None);
    }
    std::vector<std::string> captures = core::list_captures(dir);
    ASSERT_EQ(captures.size(), 2u);  // advec_u_float + diff_uvw_float

    // --- tune each capture (functional, with output validation) ----------
    {
        auto context = sim::Context::create("NVIDIA RTX A4000");
        for (const std::string& path : captures) {
            core::CapturedLaunch capture = core::read_capture(path);
            tuner::SessionOptions options;
            options.max_evals = 40;
            tuner::CaptureReplayRunner::Options runner_options;
            runner_options.validate = true;
            tuner::TuningResult result = tuner::tune_capture_to_wisdom(
                capture, *context, "random", dir, options, runner_options);
            ASSERT_TRUE(result.success) << path;
            EXPECT_EQ(result.evaluations, 40u);
            // Validation must not reject legal configurations: every config
            // computes identical output in this simulator.
            EXPECT_EQ(result.invalid_evaluations, 0u);
        }
        EXPECT_TRUE(file_exists(path_join(dir, "advec_u_float.wisdom.json")));
        EXPECT_TRUE(file_exists(path_join(dir, "diff_uvw_float.wisdom.json")));
    }

    // --- rerun: exact selection, tuned configuration ----------------------
    {
        auto context = sim::Context::create("NVIDIA RTX A4000");
        Model<float>::Options options;
        options.wisdom.wisdom_dir(dir);
        Model<float> model(grid, *context, options);
        const microhh::StepOutcome outcome = model.step(1e-5f);
        EXPECT_EQ(outcome.advec.match, core::WisdomMatch::Exact);
        EXPECT_EQ(outcome.diff.match, core::WisdomMatch::Exact);

        core::WisdomFile wisdom = core::WisdomFile::load(
            path_join(dir, "advec_u_float.wisdom.json"), "advec_u_float");
        ASSERT_EQ(wisdom.records().size(), 1u);
        const core::WisdomFile::Selection selected = wisdom.select(
            context->device().name,
            context->device().architecture,
            core::ProblemSize(grid.itot, grid.jtot, grid.ktot));
        EXPECT_EQ(selected.match, core::WisdomMatch::Exact);
        EXPECT_EQ(selected.record, &wisdom.records()[0]);
    }

    // --- a different device of the same architecture: arch fallback -------
    {
        auto context = sim::Context::create("NVIDIA GeForce RTX 3090");
        Model<float>::Options options;
        options.wisdom.wisdom_dir(dir);
        Model<float> model(grid, *context, options);
        EXPECT_EQ(model.step(1e-5f).advec.match, core::WisdomMatch::ArchNearest);
    }

    // --- different architecture entirely: any-nearest fallback ------------
    {
        auto context = sim::Context::create("Tesla V100-SXM2-32GB");
        Model<float>::Options options;
        options.wisdom.wisdom_dir(dir);
        Model<float> model(grid, *context, options);
        EXPECT_EQ(model.step(1e-5f).advec.match, core::WisdomMatch::AnyNearest);
    }
}

TEST(Integration, TunedConfigIsNoSlowerThanDefault) {
    // The whole point of the library: after tuning, the selected
    // configuration's modeled time is at least as good as the default's.
    const std::string dir = make_temp_dir("kl-e2e");
    auto context = sim::Context::create("NVIDIA A100-PCIE-40GB", sim::ExecutionMode::TimingOnly);

    core::KernelDef def = microhh::make_advec_u_builder(Precision::Float32).build();
    core::CapturedLaunch capture;
    capture.def = def;
    capture.problem_size = core::ProblemSize(64, 64, 64);
    capture.device_name = context->device().name;
    capture.device_architecture = context->device().architecture;
    {
        Grid grid(64, 64, 64);
        const size_t cells = static_cast<size_t>(grid.ncells());
        core::CapturedArg buf;
        buf.is_buffer = true;
        buf.type = core::ScalarType::F32;
        buf.count = cells;
        buf.is_output = true;
        capture.args.push_back(buf);
        buf.is_output = false;
        capture.args.push_back(buf);
        for (int i = 0; i < 3; i++) {
            core::CapturedArg s;
            s.type = core::ScalarType::F32;
            s.scalar_value = core::Value(64.0);
            capture.args.push_back(s);
        }
        for (int v : {64, 64, 64, grid.icells(), static_cast<int>(grid.kstride())}) {
            core::CapturedArg s;
            s.type = core::ScalarType::I32;
            s.scalar_value = core::Value(v);
            capture.args.push_back(s);
        }
    }

    tuner::CaptureReplayRunner runner(capture, *context);
    tuner::EvalOutcome default_outcome = runner.evaluate(def.space.default_config());
    ASSERT_TRUE(default_outcome.valid);

    tuner::SessionOptions options;
    options.max_evals = 200;
    tuner::TuningResult result =
        tuner::tune_capture_to_wisdom(capture, *context, "bayes", dir, options);
    ASSERT_TRUE(result.success);
    EXPECT_LE(result.best_seconds, default_outcome.kernel_seconds);

    // The wisdom record reproduces the measured best when re-evaluated.
    tuner::EvalOutcome confirm = runner.evaluate(result.best_config);
    ASSERT_TRUE(confirm.valid);
    EXPECT_NEAR(confirm.kernel_seconds, result.best_seconds, 1e-9);
}

TEST(Integration, RetuningImprovesOrKeepsWisdom) {
    const std::string dir = make_temp_dir("kl-e2e");
    auto context =
        sim::Context::create("NVIDIA RTX A4000", sim::ExecutionMode::TimingOnly);
    core::KernelDef def = microhh::make_diff_uvw_builder(Precision::Float32).build();

    core::CapturedLaunch capture;
    capture.def = def;
    capture.problem_size = core::ProblemSize(48, 48, 48);
    capture.device_name = context->device().name;
    capture.device_architecture = context->device().architecture;
    Grid grid(48, 48, 48);
    const size_t cells = static_cast<size_t>(grid.ncells());
    for (int i = 0; i < 6; i++) {
        core::CapturedArg buf;
        buf.is_buffer = true;
        buf.type = core::ScalarType::F32;
        buf.count = cells;
        buf.is_output = i < 3;
        capture.args.push_back(buf);
    }
    for (int i = 0; i < 4; i++) {
        core::CapturedArg s;
        s.type = core::ScalarType::F32;
        s.scalar_value = core::Value(1.0);
        capture.args.push_back(s);
    }
    for (int v : {48, 48, 48, grid.icells(), static_cast<int>(grid.kstride())}) {
        core::CapturedArg s;
        s.type = core::ScalarType::I32;
        s.scalar_value = core::Value(v);
        capture.args.push_back(s);
    }

    tuner::SessionOptions weak;
    weak.max_evals = 10;
    weak.seed = 1;
    tuner::TuningResult first =
        tuner::tune_capture_to_wisdom(capture, *context, "random", dir, weak);
    ASSERT_TRUE(first.success);

    tuner::SessionOptions strong;
    strong.max_evals = 120;
    strong.seed = 2;
    tuner::TuningResult second =
        tuner::tune_capture_to_wisdom(capture, *context, "bayes", dir, strong);
    ASSERT_TRUE(second.success);

    core::WisdomFile wisdom = core::WisdomFile::load(
        path_join(dir, "diff_uvw_float.wisdom.json"), "diff_uvw_float");
    ASSERT_EQ(wisdom.records().size(), 1u);
    // The stored record is the better of the two sessions.
    double stored = wisdom.records()[0].time_seconds;
    EXPECT_LE(stored, first.best_seconds + 1e-12);
    EXPECT_LE(stored, second.best_seconds + 1e-12);
    EXPECT_EQ(wisdom.records()[0].provenance.contains("date"), true);
}

TEST(Integration, ProblemSizeChangeRecompilesAndSelectsIndependently) {
    const std::string dir = make_temp_dir("kl-e2e");
    auto context = sim::Context::create("NVIDIA RTX A4000");

    // Seed wisdom for two problem sizes with different configurations.
    core::KernelDef def = microhh::make_advec_u_builder(Precision::Float32).build();
    {
        core::WisdomFile wisdom("advec_u_float");
        for (auto [n, bx] : {std::pair<int, int> {16, 64}, std::pair<int, int> {32, 128}}) {
            core::WisdomRecord record;
            record.problem_size = core::ProblemSize(n, n, n);
            record.device_name = context->device().name;
            record.device_architecture = context->device().architecture;
            core::Config config = def.space.default_config();
            config.set("BLOCK_SIZE_X", core::Value(bx));
            record.config = config;
            record.time_seconds = 1e-3;
            wisdom.add(record);
        }
        wisdom.save(path_join(dir, "advec_u_float.wisdom.json"));
    }

    core::WisdomKernel kernel(def, core::WisdomSettings().wisdom_dir(dir));
    for (int n : {16, 32}) {
        Grid grid(n, n, n);
        core::DeviceArray<float> ut(static_cast<size_t>(grid.ncells()));
        core::DeviceArray<float> u(static_cast<size_t>(grid.ncells()));
        const core::LaunchOutcome outcome = kernel.launch(
            ut, u, 1.0f, 1.0f, 1.0f, grid.itot, grid.jtot, grid.ktot, grid.icells(),
            static_cast<int>(grid.kstride()));
        EXPECT_TRUE(outcome.cold);
        EXPECT_EQ(outcome.match, core::WisdomMatch::Exact);
        EXPECT_EQ(context->last_launch().block.x, n == 16 ? 64u : 128u);
    }
    EXPECT_EQ(kernel.stats().compiles_started, 2u);
}

}  // namespace
}  // namespace kl
