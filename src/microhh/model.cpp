#include "microhh/model.hpp"

#include <cmath>

namespace kl::microhh {

template<typename real>
Model<real>::Model(const Grid& grid, sim::Context& context, Options options):
    grid_(grid),
    context_(&context),
    options_(options),
    u_(static_cast<size_t>(grid.ncells()), context),
    v_(static_cast<size_t>(grid.ncells()), context),
    w_(static_cast<size_t>(grid.ncells()), context),
    ut_(static_cast<size_t>(grid.ncells()), context),
    vt_(static_cast<size_t>(grid.ncells()), context),
    wt_(static_cast<size_t>(grid.ncells()), context),
    advec_(make_advec_u_builder(precision()).build(), options.wisdom),
    diff_(make_diff_uvw_builder(precision()).build(), options.wisdom) {
    Field3d<real> field(grid_);
    field.fill_turbulent(options_.seed, 1.0);
    u_.copy_from_host(field.vec());
    field.fill_turbulent(options_.seed + 1, 0.8);
    v_.copy_from_host(field.vec());
    field.fill_turbulent(options_.seed + 2, 0.4);
    w_.copy_from_host(field.vec());
    ut_.fill_zero();
    vt_.fill_zero();
    wt_.fill_zero();
}

template<typename real>
StepOutcome Model<real>::step(real dt) {
    const real dxi = static_cast<real>(1.0 / grid_.dx());
    const real dyi = static_cast<real>(1.0 / grid_.dy());
    const real dzi = static_cast<real>(1.0 / grid_.dz());
    const int icells = grid_.icells();
    const int ijcells = static_cast<int>(grid_.kstride());

    // Tendencies from the two tunable kernels.
    StepOutcome outcome;
    outcome.advec = advec_.launch(
        ut_, u_, dxi, dyi, dzi, grid_.itot, grid_.jtot, grid_.ktot, icells, ijcells);
    outcome.diff = diff_.launch(
        ut_, vt_, wt_, u_, v_, w_, static_cast<real>(options_.viscosity), dxi, dyi, dzi,
        grid_.itot, grid_.jtot, grid_.ktot, icells, ijcells);
    context_->synchronize();

    // Host-side explicit Euler update (only meaningful when the simulator
    // executes kernels functionally).
    if (context_->mode() == sim::ExecutionMode::Functional) {
        std::vector<real> u = u_.copy_to_host();
        std::vector<real> v = v_.copy_to_host();
        std::vector<real> w = w_.copy_to_host();
        std::vector<real> ut = ut_.copy_to_host();
        std::vector<real> vt = vt_.copy_to_host();
        std::vector<real> wt = wt_.copy_to_host();

        double norm = 0;
        for (int k = 0; k < grid_.ktot; k++) {
            for (int j = 0; j < grid_.jtot; j++) {
                const int64_t row = grid_.index(0, j, k);
                for (int i = 0; i < grid_.itot; i++) {
                    const size_t ijk = static_cast<size_t>(row + i);
                    u[ijk] += dt * ut[ijk];
                    v[ijk] += dt * vt[ijk];
                    w[ijk] += dt * wt[ijk];
                    norm += std::abs(static_cast<double>(ut[ijk]));
                }
            }
        }
        last_tendency_norm_ =
            norm / (static_cast<double>(grid_.itot) * grid_.jtot * grid_.ktot);

        u_.copy_from_host(u);
        v_.copy_from_host(v);
        w_.copy_from_host(w);
    }
    steps_++;
    return outcome;
}

template<typename real>
Field3d<real> Model<real>::download_u() const {
    Field3d<real> out(grid_);
    out.vec() = u_.copy_to_host();
    return out;
}

template class Model<float>;
template class Model<double>;

}  // namespace kl::microhh
