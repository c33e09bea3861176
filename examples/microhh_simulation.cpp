// A miniature MicroHH run (the paper's §5.1 application): a turbulent
// velocity field on a 3D grid advanced by explicit Euler steps whose
// tendencies come from the two tunable GPU kernels, launched through
// Kernel Launcher. Demonstrates that one application binary transparently
// reuses compiled kernel instances across time steps and recompiles when
// the problem size changes mid-run.
//
// Usage: microhh_simulation [grid=48] [steps=5]

#include <cstdio>
#include <cstdlib>

#include "cudasim/context.hpp"
#include "microhh/model.hpp"
#include "util/fs.hpp"

using namespace kl;

int main(int argc, char** argv) {
    const int grid_size = argc > 1 ? std::atoi(argv[1]) : 48;
    const int steps = argc > 2 ? std::atoi(argv[2]) : 5;

    auto context = sim::Context::create("NVIDIA RTX A4000");

    microhh::Model<float>::Options options;
    options.viscosity = 5e-3;
    options.wisdom.wisdom_dir(make_temp_dir("kl-microhh"));

    microhh::Grid grid(grid_size, grid_size, grid_size);
    std::printf("MicroHH mini-model: %s grid, %d steps, float, on %s\n\n",
                grid.to_string().c_str(), steps, context->device().name.c_str());

    microhh::Model<float> model(grid, *context, options);
    const float dt = 1e-4f;
    for (int step = 0; step < steps; step++) {
        const microhh::StepOutcome outcome = model.step(dt);
        std::printf(
            "step %2d: |du/dt| = %.5f   advec %s, diff %s\n", step + 1,
            model.last_tendency_norm(),
            outcome.advec.cold ? "compiled" : "cached",
            outcome.diff.cold ? "compiled" : "cached");
    }

    std::printf("\nsimulated device time: %.3f ms across %llu kernel launches\n",
                context->clock().now() * 1e3,
                static_cast<unsigned long long>(context->launch_count()));

    // A second model at a different resolution: Kernel Launcher compiles a
    // fresh instance per problem size within the same process.
    microhh::Grid grid2(grid_size / 2, grid_size / 2, grid_size);
    microhh::Model<float> refined(grid2, *context, options);
    const microhh::StepOutcome resized = refined.step(dt);
    std::printf("resized run %s: advec instance %s\n", grid2.to_string().c_str(),
                resized.advec.cold ? "compiled" : "cached");
    std::printf("microhh_simulation OK\n");
    return 0;
}
