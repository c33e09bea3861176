// The three workloads and the per-layer probe they share.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/wisdom_kernel.hpp"
#include "graph/graph.hpp"

namespace perfbench {

/// What every workload hands the per-layer probe: a current context, two
/// warm WisdomKernels (advec_u and diff_uvw) and the arguments the
/// end-to-end phase launched them with, plus counters of that phase.
struct ProbeInputs {
    kl::sim::Context* context = nullptr;
    kl::core::WisdomKernel* advec = nullptr;
    kl::core::WisdomKernel* diff = nullptr;
    const LaunchArgs* advec_args = nullptr;
    const LaunchArgs* diff_args = nullptr;
    const GridBuffers* buffers = nullptr;
    std::string wisdom_dir;

    /// Set-up tuning throughput (the tuner's only appearance).
    double tune_evals_per_s = 0;
    /// Stats summed over every WisdomKernel of the traced end-to-end phase.
    kl::core::WisdomKernel::Stats stats;
    uint64_t net_failures = 0;
    /// Raw host time of the unit that registers kernels (a process start,
    /// or set-up when the workload has none) and the kernels registered per
    /// unit, for the share of that unit spent in registration lint.
    double unit_us = 0;
    double kernels_per_unit = 0;
};

/// A timestep fixture: a TimingOnly context, float advec_u/diff_uvw
/// WisdomKernels tuned and warm on a seeded set of grids, and per-grid
/// buffers and arguments. Shared by steady_timestep and graph_timestep.
struct TimestepFixture {
    std::unique_ptr<kl::sim::Context> context;
    std::string wisdom_dir;
    std::vector<kl::microhh::Grid> grids;
    std::vector<std::unique_ptr<GridBuffers>> buffers;
    std::vector<LaunchArgs> advec_args;
    std::vector<LaunchArgs> diff_args;
    std::unique_ptr<kl::core::WisdomKernel> advec;
    std::unique_ptr<kl::core::WisdomKernel> diff;
    uint64_t tune_evals = 0;
    double tune_seconds = 0;
    /// Modeled device seconds of one advec_u + diff_uvw step, per grid.
    std::vector<double> step_model_seconds;

    /// Builds the fixture in `dir` (wiped first). Registration, tuning and
    /// first launches all happen here; a configuration that differs from
    /// what the wisdom selects is a failed check.
    static std::unique_ptr<TimestepFixture> create(const std::string& dir, Result& result);
};

/// Builds the fixture `repeats` times (each from scratch), reports the
/// median wall time as setup_s, and returns the last one.
std::unique_ptr<TimestepFixture> set_up_timestep(
    const Options& options,
    int repeats,
    Result& result);

/// Runs a timestep workload's phases: with --trace 0 the end-to-end phase
/// (`measure(budget_1t, budget_mt, result)`) for most of the run; with
/// --trace 1 a shorter untraced phase, the same traced, the difference as
/// the tracing overhead, and the per-layer probe on the fixture.
void run_timestep_phases(
    TimestepFixture& fixture,
    const Options& options,
    Result& result,
    const std::function<void(double, double, Result&)>& measure);

/// Functional-mode output check of advec_u and diff_uvw at a small grid
/// against the MicroHH reference implementations.
void check_against_reference(TimestepFixture& fixture, uint64_t seed, Result& result);

/// One cold_start round (every disk, daemon and compile tier, their
/// output checks) and the Fig. 5 check, as output checks only.
void check_cold_start(const Options& options, Result& result);

void run_steady_timestep(const Options& options, Result& result);
void run_graph_timestep(const Options& options, Result& result);
void run_cold_start(const Options& options, Result& result);

/// Times each layer's public functions in isolation on the workload's
/// inputs (spans on), and reports every per-layer metric.
void run_layer_probe(const Options& options, ProbeInputs& inputs, double budget_s, Result& result);

/// Reports the per-layer self times and span-derived metrics once the
/// traced phases are done, and writes the Chrome trace.
void report_spans(const Options& options, Result& result);

/// One simulated process start: makes and registers advec_u and diff_uvw
/// for both precisions with `settings`, then first-launches `launches`.
/// Returns the host seconds from the first registration until the last
/// launch returned. Optional outputs: per-launch host seconds, per-launch
/// modeled seconds (virtual-clock advance), and the kernels' summed
/// stats. `inspect` sees the kernels afterwards, outside the timing.
struct StartLaunch {
    int kernel = 0;  ///< 0..3: advec f32, diff f32, advec f64, diff f64
    const LaunchArgs* args = nullptr;
};
double process_start(
    const kl::core::WisdomSettings& settings,
    const std::vector<StartLaunch>& launches,
    std::vector<double>* launch_seconds,
    kl::core::WisdomKernel::Stats* stats,
    std::vector<double>* launch_model,
    const std::function<void(std::vector<std::unique_ptr<kl::core::WisdomKernel>>&)>& inspect);

/// Nodes of a recorded timestep: upload(u), memset(v), memset(w), then
/// the advec_u and diff_uvw launches.
inline constexpr size_t kNodes = 5;
inline constexpr size_t kAdvecNode = 3;
inline constexpr size_t kDiffNode = 4;

/// Records one timestep (dependency-complete, so the KL006-KL009 analysis
/// has nothing to report). `buffers` supplies u, v and w.
kl::graph::LaunchGraph record_timestep(
    kl::core::WisdomKernel& advec,
    kl::core::WisdomKernel& diff,
    const LaunchArgs& a,
    const LaunchArgs& d,
    const GridBuffers& buffers);

/// Adds `b` into `a` field by field.
void add_stats(kl::core::WisdomKernel::Stats& a, const kl::core::WisdomKernel::Stats& b);

}  // namespace perfbench
