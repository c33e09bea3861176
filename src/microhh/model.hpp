#pragma once

#include <memory>

#include "core/device_buffer.hpp"
#include "core/wisdom_kernel.hpp"
#include "microhh/definitions.hpp"
#include "microhh/grid.hpp"
#include "microhh/reference.hpp"

namespace kl::microhh {

/// How the two launches of one Model::step resolved.
struct StepOutcome {
    core::LaunchOutcome advec;
    core::LaunchOutcome diff;
};

/// A miniature MicroHH: three velocity fields on a 3D grid, advanced by
/// explicit Euler steps whose tendencies come from the two tunable GPU
/// kernels (advec_u, diff_uvw) launched through Kernel Launcher. Used by
/// the example applications and the end-to-end tests.
template<typename real>
class Model {
  public:
    struct Options {
        double viscosity = 1e-2;
        uint64_t seed = 2023;
        core::WisdomSettings wisdom = core::WisdomSettings::from_env();
    };

    Model(const Grid& grid, sim::Context& context): Model(grid, context, Options()) {}
    Model(const Grid& grid, sim::Context& context, Options options);

    /// Advances the flow by one explicit Euler step of size `dt`:
    /// launches advec_u and diff_uvw through the WisdomKernels, then (in
    /// functional simulation mode) integrates the tendencies on the host.
    /// Returns how the two launches resolved.
    StepOutcome step(real dt);

    const Grid& grid() const noexcept {
        return grid_;
    }

    /// Host copies of the current fields (functional mode only).
    Field3d<real> download_u() const;

    /// Mean absolute tendency of the last step (a cheap stability probe).
    double last_tendency_norm() const noexcept {
        return last_tendency_norm_;
    }

    core::WisdomKernel& advec_kernel() noexcept {
        return advec_;
    }
    core::WisdomKernel& diff_kernel() noexcept {
        return diff_;
    }

    int steps_taken() const noexcept {
        return steps_;
    }

  private:
    static constexpr Precision precision() {
        return sizeof(real) == 4 ? Precision::Float32 : Precision::Float64;
    }

    Grid grid_;
    sim::Context* context_;
    Options options_;

    core::DeviceArray<real> u_, v_, w_;
    core::DeviceArray<real> ut_, vt_, wt_;
    core::WisdomKernel advec_;
    core::WisdomKernel diff_;

    double last_tendency_norm_ = 0;
    int steps_ = 0;
};

extern template class Model<float>;
extern template class Model<double>;

}  // namespace kl::microhh
