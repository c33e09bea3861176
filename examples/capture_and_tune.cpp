// The paper's full workflow (Figure 1) in one program:
//
//   1. run the application with KERNEL_LAUNCHER_CAPTURE set, so the
//      kernels' launches are exported to capture files;
//   2. replay the captures through the auto-tuner (the stand-in for the
//      paper's Kernel-Tuner-based command-line script), producing wisdom;
//   3. rerun the application: Kernel Launcher now selects the tuned
//      configurations at runtime.
//
// Usage: capture_and_tune [grid=32] [evals=150]

#include <cstdio>
#include <cstdlib>

#include "cudasim/context.hpp"
#include "microhh/model.hpp"
#include "tuner/session.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

using namespace kl;

int main(int argc, char** argv) {
    const int grid_size = argc > 1 ? std::atoi(argv[1]) : 32;
    const int evals = argc > 2 ? std::atoi(argv[2]) : 150;

    const std::string workdir = make_temp_dir("kl-capture-tune");
    std::printf("working directory: %s\n\n", workdir.c_str());

    microhh::Grid grid(grid_size, grid_size, grid_size);

    // ---- 1. capture -------------------------------------------------------
    std::printf("[1/3] running the application with capture enabled\n");
    {
        auto context = sim::Context::create("NVIDIA RTX A4000");
        microhh::Model<float>::Options options;
        options.wisdom.wisdom_dir(workdir).capture_dir(workdir)
            .capture_pattern("advec_*")
            .capture_pattern("diff_*");
        microhh::Model<float> model(grid, *context, options);
        model.step(1e-4f);
    }
    std::vector<std::string> captures = core::list_captures(workdir);
    for (const std::string& path : captures) {
        std::printf("  captured: %s (%s)\n", path_filename(path).c_str(),
                    format_bytes(file_size(path)).c_str());
    }

    // ---- 2. tune ----------------------------------------------------------
    std::printf("\n[2/3] tuning the captured kernels (bayes, %d evaluations each)\n",
                evals);
    {
        auto context =
            sim::Context::create("NVIDIA RTX A4000", sim::ExecutionMode::Functional);
        for (const std::string& path : captures) {
            core::CapturedLaunch capture = core::read_capture(path);
            tuner::SessionOptions options;
            options.max_evals = static_cast<uint64_t>(evals);
            tuner::CaptureReplayRunner::Options runner_options;
            runner_options.validate = true;  // compare outputs vs reference
            tuner::TuningResult result = tuner::tune_capture_to_wisdom(
                capture, *context, "bayes", workdir, options, runner_options);
            std::printf(
                "  %-16s best %.4f ms after %llu evals (%llu invalid) -> %s\n",
                capture.def.key().c_str(), result.best_seconds * 1e3,
                static_cast<unsigned long long>(result.evaluations),
                static_cast<unsigned long long>(result.invalid_evaluations),
                path_filename(workdir + "/" + capture.def.key() + ".wisdom.json").c_str());
        }
    }

    // ---- 3. rerun with wisdom ---------------------------------------------
    std::printf("\n[3/3] rerunning the application with wisdom available\n");
    {
        auto context = sim::Context::create("NVIDIA RTX A4000");
        microhh::Model<float>::Options options;
        options.wisdom.wisdom_dir(workdir);
        microhh::Model<float> model(grid, *context, options);
        const microhh::StepOutcome outcome = model.step(1e-4f);
        std::printf("  advec_u selection: %s\n",
                    core::wisdom_match_name(outcome.advec.match));
        std::printf("  diff_uvw selection: %s\n",
                    core::wisdom_match_name(outcome.diff.match));
    }

    std::printf("\ncapture_and_tune OK\n");
    return 0;
}
