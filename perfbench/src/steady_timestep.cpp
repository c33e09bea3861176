// steady_timestep: why it exists and what it bypasses.
//
// A TimingOnly context runs a seeded sequence of MicroHH timesteps, each
// an eager advec_u + diff_uvw launch on one of a few warm grid sizes (so
// the instance table has several entries), with the scalar coefficients
// that no geometry expression reads (dxi, dyi, dzi, visc) changing every
// step. It loads the per-call path of an eager launch: lint gate, problem
// size, instance lookup, geometry, marshalling and the simulated driver's
// Context::launch. Every compile tier (nvrtcsim, rtccache, netwisdom) and
// graph are bypassed once set-up has warmed the instances. Changing
// coefficients separate a memo keyed on the geometry inputs from one keyed
// on all arguments.
#include <atomic>
#include <cmath>

#include "microhh/reference.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr size_t kWarmGrids = 3;
constexpr uint64_t kTuneEvals = 100;
/// Length of the seeded step schedule; the modeled metric averages over
/// exactly these steps, so it repeats exactly for a seed.
constexpr size_t kSchedule = 4096;

struct Schedule {
    std::vector<size_t> grid;
    std::vector<double> factor;

    Schedule(uint64_t seed, size_t grids) {
        kl::Rng rng(seed ^ 0x73746561647931ull);
        for (size_t i = 0; i < kSchedule; i++) {
            grid.push_back(static_cast<size_t>(rng.next_below(grids)));
            factor.push_back(1.0 + 0.02 * (rng.next_double() - 0.5));
        }
    }
};

/// One timestep on the caller's copies of the arguments: returns host
/// nanoseconds of each launch.
inline void timestep(
    kl::core::WisdomKernel& advec,
    kl::core::WisdomKernel& diff,
    LaunchArgs& a,
    LaunchArgs& d,
    double factor,
    uint64_t request,
    int64_t& advec_ns,
    int64_t& diff_ns) {
    a.set_coefficients(factor);
    d.set_coefficients(factor);
    Span step(Layer::Bench, "timestep", request);
    const int64_t t0 = now_ns();
    {
        Span span(Layer::Core, "launch_args");
        advec.launch_args(a.args);
    }
    const int64_t t1 = now_ns();
    {
        Span span(Layer::Core, "launch_args");
        diff.launch_args(d.args);
    }
    const int64_t t2 = now_ns();
    advec_ns = t1 - t0;
    diff_ns = t2 - t1;
}

/// The end-to-end phases: one thread for `budget_1t`, then `threads`
/// threads for `budget_mt` in five equal windows.
void measure(
    TimestepFixture& fx,
    const Options& options,
    const Schedule& schedule,
    double budget_1t,
    double budget_mt,
    Result& result) {
    WindowedSamples call_ns(budget_1t, 20);
    WindowedSamples unit_us(budget_1t, 20);
    std::vector<LaunchArgs> a = fx.advec_args;
    std::vector<LaunchArgs> d = fx.diff_args;
    uint64_t launches = 0;
    for (size_t i = 0; call_ns.tick() && unit_us.tick();) {
        for (size_t chunk = 0; chunk < 64; chunk++, i++) {
            const size_t s = i % kSchedule;
            const size_t g = schedule.grid[s];
            int64_t advec_ns = 0;
            int64_t diff_ns = 0;
            launches += 2;
            try {
                timestep(*fx.advec, *fx.diff, a[g], d[g], schedule.factor[s], i + 1, advec_ns, diff_ns);
            } catch (const std::exception& e) {
                result.fail(std::string("eager timestep: ") + e.what());
                continue;
            }
            call_ns.add(static_cast<double>(advec_ns));
            call_ns.add(static_cast<double>(diff_ns));
            unit_us.add(static_cast<double>(advec_ns + diff_ns) / 1e3);
        }
    }

    std::vector<double> rates;
    std::atomic<uint64_t> mt_failures {0};
    for (int window = 0; window < kWindowsMt; window++) {
        const double window_deadline = now_seconds() + budget_mt / kWindowsMt;
        std::atomic<uint64_t> total {0};
        const double elapsed = run_threads(options.threads, [&](int t) {
            std::vector<LaunchArgs> ta = fx.advec_args;
            std::vector<LaunchArgs> td = fx.diff_args;
            uint64_t count = 0;
            size_t i = static_cast<size_t>(t) * 997;
            while (now_seconds() < window_deadline) {
                for (int chunk = 0; chunk < 32; chunk++, i++) {
                    const size_t s = i % kSchedule;
                    const size_t g = schedule.grid[s];
                    int64_t advec_ns = 0;
                    int64_t diff_ns = 0;
                    try {
                        timestep(*fx.advec, *fx.diff, ta[g], td[g], schedule.factor[s], i + 1,
                                 advec_ns, diff_ns);
                        count += 2;
                    } catch (const std::exception&) {
                        mt_failures++;
                    }
                }
            }
            total += count;
        });
        rates.push_back(static_cast<double>(total.load()) / elapsed);
        launches += total.load();
    }
    for (uint64_t f = 0; f < mt_failures.load(); f++) {
        result.fail("eager timestep on a worker thread threw");
    }
    result.attempted(launches + mt_failures.load());

    double model = 0;
    for (size_t s = 0; s < kSchedule; s++) {
        model += fx.step_model_seconds[schedule.grid[s]];
    }
    result.metric("call_ns", call_ns.median_of_medians(), "ns");
    result.metric("call_ns_tail", call_ns.median_of_p99s(), "ns");
    result.metric("call_samples", static_cast<double>(call_ns.count()), "count");
    result.metric("calls_per_s_mt", median(rates), "1/s");
    result.metric("unit_us", unit_us.median_of_medians(), "us");
    result.metric("raw.call_ns", call_ns.raw_median_of_medians(), "ns");
    result.metric("raw.call_ns_tail", call_ns.raw_median_of_p99s(), "ns");
    result.metric("raw.unit_us", unit_us.raw_median_of_medians(), "us");
    result.metric("raw.reference_ns", call_ns.reference(), "ns");
    result.metric("model_us", model / kSchedule * 1e6, "us");
}

}  // namespace

std::unique_ptr<TimestepFixture> TimestepFixture::create(const std::string& dir, Result& result) {
    using kl::microhh::Precision;
    auto fx = std::make_unique<TimestepFixture>();
    fresh_dir(dir);
    fx->wisdom_dir = dir + "/wisdom";
    fx->context = kl::sim::Context::create(kDevice, kl::sim::ExecutionMode::TimingOnly);
    fx->grids = domain_grids(kWarmGrids);

    kl::core::KernelDef advec_def;
    kl::core::KernelDef diff_def;
    {
        Span span(Layer::Microhh, "make_builders");
        advec_def = make_def(KernelKind::AdvecU, Precision::Float32);
        diff_def = make_def(KernelKind::DiffUvw, Precision::Float32);
    }
    for (const kl::microhh::Grid& grid : fx->grids) {
        fx->buffers.push_back(std::make_unique<GridBuffers>(*fx->context, grid, 4));
        fx->advec_args.push_back(
            make_args(KernelKind::AdvecU, Precision::Float32, grid, *fx->buffers.back()));
        fx->diff_args.push_back(
            make_args(KernelKind::DiffUvw, Precision::Float32, grid, *fx->buffers.back()));
    }

    // Wisdom: one random-search session per (kernel, grid).
    const double tune_start = now_seconds();
    for (size_t g = 0; g < fx->grids.size(); g++) {
        Span span(Layer::Tuner, "tune_capture_to_wisdom");
        fx->tune_evals += tune_into(*fx->context, advec_def, fx->advec_args[g], "random",
                                    kTuneEvals, 1 + g, fx->wisdom_dir);
        fx->tune_evals += tune_into(*fx->context, diff_def, fx->diff_args[g], "random",
                                    kTuneEvals, 101 + g, fx->wisdom_dir);
    }
    fx->tune_seconds = now_seconds() - tune_start;

    const kl::core::WisdomSettings settings =
        kl::core::WisdomSettings().wisdom_dir(fx->wisdom_dir);
    {
        Span span(Layer::Core, "register");
        fx->advec = std::make_unique<kl::core::WisdomKernel>(advec_def, settings);
    }
    {
        Span span(Layer::Core, "register");
        fx->diff = std::make_unique<kl::core::WisdomKernel>(diff_def, settings);
    }

    // First launches compile every instance; a second launch per grid
    // reads the modeled device time of a warm step.
    for (size_t g = 0; g < fx->grids.size(); g++) {
        {
            Span span(Layer::Core, "first_launch");
            fx->advec->launch_args(fx->advec_args[g].args);
            fx->diff->launch_args(fx->diff_args[g].args);
        }
        fx->advec->launch_args(fx->advec_args[g].args);
        double step = fx->context->last_launch().timing.seconds;
        fx->diff->launch_args(fx->diff_args[g].args);
        step += fx->context->last_launch().timing.seconds;
        fx->step_model_seconds.push_back(step);

        for (auto* pair : {&fx->advec_args[g], &fx->diff_args[g]}) {
            kl::core::WisdomKernel& kernel =
                pair->kind == KernelKind::AdvecU ? *fx->advec : *fx->diff;
            const kl::core::Config ran = kernel.bake_launch(pair->args).config;
            const kl::core::Config wanted = expected_config(
                kernel.def(), fx->wisdom_dir, kernel.def().eval_problem_size(pair->args));
            result.check(ran == wanted,
                         std::string(kernel_name(pair->kind)) + " " + pair->grid.to_string()
                             + " runs a configuration its wisdom does not select");
        }
    }
    return fx;
}

std::unique_ptr<TimestepFixture> set_up_timestep(
    const Options& options,
    int repeats,
    Result& result) {
    std::vector<double> seconds;
    std::vector<double> raw_seconds;
    std::vector<double> step_models;
    std::unique_ptr<TimestepFixture> fx;
    for (int r = 0; r < repeats; r++) {
        fx.reset();
        const double start = now_seconds();
        fx = TimestepFixture::create(options.work_dir + "/fixture", result);
        raw_seconds.push_back(now_seconds() - start);
        seconds.push_back(raw_seconds.back() / speed_factor(reference_ns()));
        if (r > 0) {
            result.check(fx->step_model_seconds == step_models,
                         "modeled step times differ between identical set-ups");
        }
        step_models = fx->step_model_seconds;
    }
    result.metric("setup_s", median(seconds), "s");
    result.metric("raw.setup_s", median(raw_seconds), "s");
    return fx;
}

void check_against_reference(TimestepFixture& fx, uint64_t seed, Result& result) {
    using kl::microhh::Field3d;
    using kl::microhh::Precision;
    kl::sim::Context& context = *fx.context;
    context.set_mode(kl::sim::ExecutionMode::Functional);
    const kl::microhh::Grid grid(20, 16, 12);
    GridBuffers buffers(context, grid, 4);
    Field3d<float> u(grid), v(grid), w(grid);
    {
        Span span(Layer::Microhh, "fill_turbulent");
        u.fill_turbulent(seed + 1);
        v.fill_turbulent(seed + 2);
        w.fill_turbulent(seed + 3);
    }
    context.memcpy_htod(buffers.u, u.data(), buffers.bytes);
    context.memcpy_htod(buffers.v, v.data(), buffers.bytes);
    context.memcpy_htod(buffers.w, w.data(), buffers.bytes);
    for (kl::sim::DevicePtr out : {buffers.st, buffers.ut, buffers.vt, buffers.wt}) {
        context.memset_d8(out, 0, buffers.bytes);
    }

    const double factor = 1.0 + 0.01 * static_cast<double>(seed % 7);
    LaunchArgs a = make_args(KernelKind::AdvecU, Precision::Float32, grid, buffers);
    LaunchArgs d = make_args(KernelKind::DiffUvw, Precision::Float32, grid, buffers);
    a.set_coefficients(factor);
    d.set_coefficients(factor);
    try {
        fx.advec->launch_args(a.args);
        fx.diff->launch_args(d.args);
        context.synchronize();
    } catch (const std::exception& e) {
        result.check(false, std::string("functional launch threw: ") + e.what());
        context.set_mode(kl::sim::ExecutionMode::TimingOnly);
        return;
    }

    auto download = [&](kl::sim::DevicePtr ptr) {
        Field3d<float> field(grid);
        context.memcpy_dtoh(field.data(), ptr, buffers.bytes);
        return field;
    };
    Field3d<float> st = download(buffers.st);
    Field3d<float> ut = download(buffers.ut);
    Field3d<float> vt = download(buffers.vt);
    Field3d<float> wt = download(buffers.wt);

    const float dxi = a.args[2].scalar_value<float>();
    const float dyi = a.args[3].scalar_value<float>();
    const float dzi = a.args[4].scalar_value<float>();
    const float visc = d.args[6].scalar_value<float>();
    Field3d<float> st_ref(grid), ut_ref(grid), vt_ref(grid), wt_ref(grid);
    {
        Span span(Layer::Microhh, "reference");
        kl::microhh::advec_u_reference(st_ref, u, dxi, dyi, dzi);
        kl::microhh::diff_uvw_reference(ut_ref, vt_ref, wt_ref, u, v, w, visc, dxi, dyi, dzi);
    }
    auto matches = [&](const Field3d<float>& got, const Field3d<float>& want, const char* name) {
        double max_err = 0;
        double max_ref = 0;
        for (int k = 0; k < grid.ktot; k++) {
            for (int j = 0; j < grid.jtot; j++) {
                for (int i = 0; i < grid.itot; i++) {
                    const double ref = want.at(i, j, k);
                    const double err = std::abs(got.at(i, j, k) - ref) / std::max(1.0, std::abs(ref));
                    max_err = std::max(max_err, err);
                    max_ref = std::max(max_ref, std::abs(ref));
                }
            }
        }
        result.check(max_err <= 1e-5 && max_ref > 0,
                     std::string(name) + " differs from the MicroHH reference (max rel err "
                         + std::to_string(max_err) + ")");
    };
    matches(st, st_ref, "advec_u tendency");
    matches(ut, ut_ref, "diff_uvw ut");
    matches(vt, vt_ref, "diff_uvw vt");
    matches(wt, wt_ref, "diff_uvw wt");
    context.set_mode(kl::sim::ExecutionMode::TimingOnly);
}

void run_steady_timestep(const Options& options, Result& result) {
    spans::set_enabled(options.trace);
    std::unique_ptr<TimestepFixture> fx = set_up_timestep(options, 5, result);
    spans::set_enabled(false);
    const Schedule schedule(options.seed, fx->grids.size());
    run_timestep_phases(*fx, options, result, [&](double budget_1t, double budget_mt, Result& out) {
        measure(*fx, options, schedule, budget_1t, budget_mt, out);
    });
    check_against_reference(*fx, options.seed, result);
    check_cold_start(options, result);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

void run_timestep_phases(
    TimestepFixture& fx,
    const Options& options,
    Result& result,
    const std::function<void(double, double, Result&)>& measure) {
    const double s = options.seconds;
    if (!options.trace) {
        measure(0.45 * s, 0.45 * s, result);
        return;
    }
    Result untraced;
    measure(0.15 * s, 0.15 * s, untraced);
    kl::core::WisdomKernel::Stats before = fx.advec->stats();
    add_stats(before, fx.diff->stats());
    spans::set_enabled(true);
    measure(0.15 * s, 0.15 * s, result);
    result.metric("trace.span_overhead_call_ns",
                  result.value("call_ns") - untraced.value("call_ns"), "ns");
    result.metric("trace.span_overhead_unit_us",
                  result.value("unit_us") - untraced.value("unit_us"), "us");

    ProbeInputs inputs;
    inputs.context = fx.context.get();
    inputs.advec = fx.advec.get();
    inputs.diff = fx.diff.get();
    inputs.advec_args = &fx.advec_args[0];
    inputs.diff_args = &fx.diff_args[0];
    inputs.buffers = fx.buffers[0].get();
    inputs.wisdom_dir = fx.wisdom_dir;
    inputs.tune_evals_per_s = static_cast<double>(fx.tune_evals) / fx.tune_seconds;
    // Only what the traced phase did: subtract set-up and the untraced
    // phase (the timestep workloads never touch the disk or the daemon).
    inputs.stats = fx.advec->stats();
    add_stats(inputs.stats, fx.diff->stats());
    inputs.stats.warm_hits -= before.warm_hits;
    inputs.stats.cold_launches -= before.cold_launches;
    inputs.stats.compiles_started -= before.compiles_started;
    inputs.unit_us = result.value("raw.setup_s") * 1e6;
    inputs.kernels_per_unit = 2;
    run_layer_probe(options, inputs, 0.3 * s, result);
    spans::set_enabled(false);
}

void add_stats(kl::core::WisdomKernel::Stats& a, const kl::core::WisdomKernel::Stats& b) {
    a.compiles_started += b.compiles_started;
    a.compiles_in_flight += b.compiles_in_flight;
    a.compiles_failed += b.compiles_failed;
    a.cold_launches += b.cold_launches;
    a.launch_waits += b.launch_waits;
    a.warm_hits += b.warm_hits;
    a.disk_hits += b.disk_hits;
    a.disk_misses += b.disk_misses;
    a.net_hits += b.net_hits;
    a.net_misses += b.net_misses;
}

}  // namespace perfbench
