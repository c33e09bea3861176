// graph_timestep: why it exists and what it bypasses.
//
// The steady_timestep step (advec_u + diff_uvw on warm grids) is recorded
// once as a LaunchGraph with upload, memset and launch nodes and replayed,
// with update_scalar of the coefficients between replays. On a seeded
// schedule the workload re-records for another grid size and calls
// clear_cache, which forces a stale-replay rebake (and recompiles). The
// graph subsystem does the per-call work here: the eager per-launch path
// (lint gate, instance lookup, per-call geometry and marshalling) is
// bypassed, and re-recording and rebaking use graph and analysis
// differently from replay. A 1-thread phase is followed by an nproc-thread
// phase that replays copies of one GraphExec.
#include <atomic>

#include "graph/graph.hpp"
#include "microhh/grid.hpp"
#include "spans.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {


/// Segments in the seeded schedule; the modeled metric averages over all
/// of them, so it repeats exactly for a seed.
constexpr size_t kSegments = 1024;

void update_coefficients(kl::graph::GraphExec& exec, const LaunchArgs& a, const LaunchArgs& d, double factor) {
    Span span(Layer::Graph, "update_scalar");
    const kl::microhh::Grid& g = a.grid;
    exec.update_scalar(kAdvecNode, a.coefficient_index(), static_cast<float>(factor / g.dx()));
    exec.update_scalar(kDiffNode, d.coefficient_index(), static_cast<float>(1e-2 * factor));
}

/// Seeded rebuild schedule: segment k replays grid `grid[k]` for
/// `length[k]` iterations, then re-records for the next grid. Every cycle
/// of as many segments as grids visits each grid once, in seeded order.
struct Schedule {
    std::vector<size_t> grid;
    std::vector<size_t> length;
    std::vector<double> factor;

    Schedule(uint64_t seed, size_t grids) {
        kl::Rng rng(seed ^ 0x6772617068ull);
        std::vector<size_t> cycle(grids);
        for (size_t g = 0; g < grids; g++) {
            cycle[g] = g;
        }
        while (grid.size() < kSegments) {
            for (size_t i = grids - 1; i > 0; i--) {
                std::swap(cycle[i], cycle[rng.next_below(i + 1)]);
            }
            for (size_t g : cycle) {
                grid.push_back(g);
                length.push_back(static_cast<size_t>(rng.next_between(150, 450)));
            }
        }
        for (size_t i = 0; i < 4096; i++) {
            factor.push_back(1.0 + 0.02 * (rng.next_double() - 0.5));
        }
    }
};

void measure(
    TimestepFixture& fx,
    const Options& options,
    const Schedule& schedule,
    const std::vector<double>& replay_model,
    double budget_1t,
    double budget_mt,
    Result& result) {
    WindowedSamples call_ns(budget_1t, 20);
    WindowedSamples rebuild_us(budget_1t, 20);
    uint64_t attempted = 0;

    auto rebuild = [&](size_t g, uint64_t request) {
        Span span(Layer::Bench, "rebuild", request);
        const double start = now_seconds();
        kl::graph::LaunchGraph graph = [&] {
            Span capture(Layer::Graph, "capture");
            return record_timestep(*fx.advec, *fx.diff, fx.advec_args[g], fx.diff_args[g], *fx.buffers[g]);
        }();
        kl::graph::GraphExec exec = [&] {
            Span instantiate(Layer::Graph, "instantiate");
            return graph.instantiate();
        }();
        {
            Span clear(Layer::Core, "clear_cache");
            fx.advec->clear_cache();
            fx.diff->clear_cache();
        }
        {
            Span stale(Layer::Graph, "stale_replay");
            exec.replay();
        }
        rebuild_us.add((now_seconds() - start) * 1e6);
        return exec;
    };

    size_t segment = 0;
    size_t left = schedule.length[0];
    kl::graph::GraphExec exec = rebuild(schedule.grid[0], 1);
    attempted++;
    for (uint64_t i = 0; call_ns.tick() && rebuild_us.tick();) {
        for (int chunk = 0; chunk < 64; chunk++, i++) {
            if (left == 0) {
                segment = (segment + 1) % schedule.grid.size();
                left = schedule.length[segment];
                attempted++;
                try {
                    exec = rebuild(schedule.grid[segment], i + 1);
                } catch (const std::exception& e) {
                    result.fail(std::string("graph rebuild: ") + e.what());
                }
            }
            left--;
            const size_t g = schedule.grid[segment];
            attempted++;
            try {
                Span step(Layer::Bench, "timestep", i + 1);
                const int64_t t0 = now_ns();
                update_coefficients(exec, fx.advec_args[g], fx.diff_args[g], schedule.factor[i % 4096]);
                {
                    Span replay(Layer::Graph, "replay");
                    exec.replay();
                }
                call_ns.add(static_cast<double>(now_ns() - t0) / kNodes);
            } catch (const std::exception& e) {
                result.fail(std::string("graph replay: ") + e.what());
            }
        }
    }

    // Each thread runs the same update-and-replay loop on its own
    // instantiation of the current recording and its own stream. (Copies
    // of one GraphExec contend on its lock and counters; on this kind of
    // virtual machine that rate moved between 11M and 46M nodes/s from
    // run to run with the vCPU placement.)
    std::vector<double> rates;
    std::atomic<uint64_t> mt_failures {0};
    const size_t g = schedule.grid[segment];
    std::vector<kl::sim::Stream*> streams;
    for (int t = 0; t < options.threads; t++) {
        streams.push_back(&fx.context->create_stream());
    }
    const kl::graph::LaunchGraph recording =
        record_timestep(*fx.advec, *fx.diff, fx.advec_args[g], fx.diff_args[g], *fx.buffers[g]);
    for (int window = 0; window < kWindowsMt; window++) {
        const double window_deadline = now_seconds() + budget_mt / kWindowsMt;
        std::atomic<uint64_t> total {0};
        const double elapsed = run_threads(options.threads, [&](int t) {
            uint64_t count = 0;
            try {
                kl::graph::GraphExec own = recording.instantiate();
                for (size_t i = static_cast<size_t>(t) * 131; now_seconds() < window_deadline;) {
                    for (int chunk = 0; chunk < 32; chunk++, i++) {
                        update_coefficients(own, fx.advec_args[g], fx.diff_args[g], schedule.factor[i % 4096]);
                        Span replay(Layer::Graph, "replay");
                        own.replay(streams[static_cast<size_t>(t)]);
                        count++;
                    }
                }
            } catch (const std::exception&) {
                mt_failures++;
            }
            total += count;
        });
        rates.push_back(static_cast<double>(total.load() * kNodes) / elapsed);
        attempted += total.load();
    }
    for (uint64_t f = 0; f < mt_failures.load(); f++) {
        result.fail("graph replay on a worker thread threw");
    }
    result.attempted(attempted + mt_failures.load());

    // Modeled device time per replayed step over the whole schedule.
    double model = 0;
    double replays = 0;
    for (size_t k = 0; k < kSegments; k++) {
        model += replay_model[schedule.grid[k]] * static_cast<double>(schedule.length[k]);
        replays += static_cast<double>(schedule.length[k]);
    }

    result.metric("call_ns", call_ns.median_of_medians(), "ns");
    result.metric("call_ns_tail", call_ns.median_of_p99s(), "ns");
    result.metric("call_samples", static_cast<double>(call_ns.count()), "count");
    result.metric("calls_per_s_mt", median(rates), "1/s");
    result.metric("unit_us", rebuild_us.median_of_medians(), "us");
    result.metric("unit_samples", static_cast<double>(rebuild_us.count()), "count");
    result.metric("model_us", model / replays * 1e6, "us");
    result.metric("raw.call_ns", call_ns.raw_median_of_medians(), "ns");
    result.metric("raw.call_ns_tail", call_ns.raw_median_of_p99s(), "ns");
    result.metric("raw.unit_us", rebuild_us.raw_median_of_medians(), "us");
    result.metric("raw.reference_ns", call_ns.reference(), "ns");
}

/// Functional-mode check: a replay after update_scalar must produce
/// exactly the bytes of the same eager launches.
void check_replay_equals_eager(TimestepFixture& fx, uint64_t seed, Result& result) {
    using kl::microhh::Precision;
    kl::sim::Context& context = *fx.context;
    context.set_mode(kl::sim::ExecutionMode::Functional);
    const kl::microhh::Grid grid(20, 16, 12);
    GridBuffers buffers(context, grid, 4);
    kl::microhh::Field3d<float> u(grid);
    u.fill_turbulent(seed + 11);
    LaunchArgs a = make_args(KernelKind::AdvecU, Precision::Float32, grid, buffers);
    LaunchArgs d = make_args(KernelKind::DiffUvw, Precision::Float32, grid, buffers);
    const double factor = 1.0 + 0.01 * static_cast<double>(seed % 5);
    const kl::sim::DevicePtr outputs[] = {buffers.st, buffers.ut, buffers.vt, buffers.wt};

    auto reset = [&] {
        for (kl::sim::DevicePtr out : outputs) {
            context.memset_d8(out, 0, buffers.bytes);
        }
        context.memcpy_htod(buffers.u, u.data(), buffers.bytes);
        context.memset_d8(buffers.v, 0x3C, buffers.bytes);
        context.memset_d8(buffers.w, 0x3C, buffers.bytes);
    };
    auto snapshot = [&] {
        std::vector<char> bytes(4 * buffers.bytes);
        for (size_t i = 0; i < 4; i++) {
            context.memcpy_dtoh(bytes.data() + i * buffers.bytes, outputs[i], buffers.bytes);
        }
        return bytes;
    };

    try {
        reset();
        kl::graph::GraphExec exec =
            record_timestep(*fx.advec, *fx.diff, a, d, buffers).instantiate();
        update_coefficients(exec, a, d, factor);
        reset();
        exec.replay();
        context.synchronize();
        const std::vector<char> replayed = snapshot();

        reset();
        context.memset_d8(buffers.v, 0, buffers.bytes);
        context.memset_d8(buffers.w, 0, buffers.bytes);
        a.args[a.coefficient_index()] = a.real(static_cast<float>(factor / grid.dx()));
        d.args[d.coefficient_index()] = d.real(static_cast<float>(1e-2 * factor));
        fx.advec->launch_args(a.args);
        fx.diff->launch_args(d.args);
        context.synchronize();
        const std::vector<char> eager = snapshot();

        bool nonzero = false;
        for (char c : eager) {
            nonzero = nonzero || c != 0;
        }
        result.check(nonzero && replayed == eager, "graph replay output differs from eager output");
    } catch (const std::exception& e) {
        result.check(false, std::string("replay-vs-eager check threw: ") + e.what());
    }
    context.set_mode(kl::sim::ExecutionMode::TimingOnly);
}

}  // namespace

kl::graph::LaunchGraph record_timestep(
    kl::core::WisdomKernel& advec,
    kl::core::WisdomKernel& diff,
    const LaunchArgs& a,
    const LaunchArgs& d,
    const GridBuffers& buffers) {
    kl::graph::GraphCapture capture;
    const kl::graph::NodeId up = capture.add_upload(buffers.u);
    const kl::graph::NodeId mv = capture.add_memset(buffers.v, 0, buffers.bytes);
    const kl::graph::NodeId mw = capture.add_memset(buffers.w, 0, buffers.bytes);
    capture.add_launch(advec, a.args, {up});
    capture.add_launch(diff, d.args, {up, mv, mw});
    return capture.finish();
}

void run_graph_timestep(const Options& options, Result& result) {
    spans::set_enabled(options.trace);
    std::unique_ptr<TimestepFixture> fx = set_up_timestep(options, 5, result);
    spans::set_enabled(false);
    const Schedule schedule(options.seed, fx->grids.size());

    // Modeled device time of one replayed step, per grid.
    std::vector<double> replay_model;
    for (size_t g = 0; g < fx->grids.size(); g++) {
        kl::graph::GraphExec exec = record_timestep(
            *fx->advec, *fx->diff, fx->advec_args[g], fx->diff_args[g], *fx->buffers[g]).instantiate();
        fx->context->synchronize();
        const double start = fx->context->clock().now();
        exec.replay();
        replay_model.push_back(exec.last_replay_end() - start);
    }

    run_timestep_phases(*fx, options, result, [&](double budget_1t, double budget_mt, Result& out) {
        measure(*fx, options, schedule, replay_model, budget_1t, budget_mt, out);
    });
    check_replay_equals_eager(*fx, options.seed, result);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
