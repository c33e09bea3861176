// Reproduces Figure 5 of the paper: the cost of the first launch of a
// WisdomKernel (reading the wisdom file, NVRTC runtime compilation,
// cuModuleLoad, cuLaunchKernel) versus subsequent launches, which reuse
// the compiled instance and only pay the ~3 us kernel-launch overhead.
//
// The breakdown is reported in simulated time (the quantity the paper
// measures on real hardware). The host-side cost of the warm launch path
// itself is perfbench's steady_timestep `call_ns` and
// `core.eager_launch_ns`.

#include <cstdio>
#include <memory>

#include "common.hpp"
#include "rtccache/rtccache.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/fs.hpp"

using namespace kl;
using namespace kl::bench;

namespace {

struct Fixture {
    std::unique_ptr<sim::Context> context;
    std::unique_ptr<core::CapturedLaunch> capture;
    std::unique_ptr<core::CapturedLaunch::Replay> replay;
    std::unique_ptr<core::WisdomKernel> kernel;

    /// A non-empty `cache_dir` enables the persistent compile cache in
    /// readwrite mode, as KERNEL_LAUNCHER_CACHE=readwrite would.
    explicit Fixture(const std::string& wisdom_dir, const std::string& cache_dir = "") {
        Scenario scenario {
            "advec_u", 256, microhh::Precision::Float32, "NVIDIA A100-PCIE-40GB"};
        context = sim::Context::create(scenario.device, sim::ExecutionMode::TimingOnly);
        capture = std::make_unique<core::CapturedLaunch>(make_scenario_capture(scenario));
        replay = std::make_unique<core::CapturedLaunch::Replay>(*capture, *context);
        core::WisdomSettings settings = core::WisdomSettings().wisdom_dir(wisdom_dir);
        if (!cache_dir.empty()) {
            settings.cache_mode(rtccache::Mode::ReadWrite).cache_dir(cache_dir);
        }
        kernel = std::make_unique<core::WisdomKernel>(capture->def, settings);
    }

    core::LaunchOutcome launch() {
        return kernel->launch_args(replay->args());
    }
};

}  // namespace

int main() {
    const std::string wisdom_dir = make_temp_dir("kl-fig5");

    // Seed a wisdom file so the first launch exercises the full path
    // (read + match + compile + load + launch).
    {
        Scenario scenario {
            "advec_u", 256, microhh::Precision::Float32, "NVIDIA A100-PCIE-40GB"};
        core::CapturedLaunch capture = make_scenario_capture(scenario);
        auto context = sim::Context::create(scenario.device, sim::ExecutionMode::TimingOnly);
        tuner::SessionOptions options;
        options.max_evals = 200;
        tuner::tune_capture_to_wisdom(capture, *context, "bayes", wisdom_dir, options);
    }

    std::printf("=== Figure 5: first vs subsequent launch overhead ===\n\n");

    // Trace the cold launch itself: the spans recorded here are the same
    // breakdown the printf report below derives from OverheadBreakdown,
    // as the trace test suite verifies.
    trace::set_mode(trace::Mode::Full);
    trace::clear();

    Fixture fixture(wisdom_dir);
    double before = fixture.context->clock().now();
    const core::OverheadBreakdown cold = fixture.launch().overhead;
    double first_total = fixture.context->clock().now() - before;

    std::printf("first launch (simulated): %.1f ms total (paper: ~294 ms)\n",
                first_total * 1e3);
    auto line = [&](const char* label, double seconds) {
        std::printf("  %-28s %8.3f ms  (%4.1f%%)\n", label, seconds * 1e3,
                    100.0 * seconds / cold.total());
    };
    line("read wisdom file", cold.wisdom_seconds);
    line("nvrtcCompileProgram", cold.compile_seconds);
    line("cuModuleLoad", cold.module_load_seconds);
    line("cuLaunchKernel", cold.launch_seconds);
    std::printf("  (paper: NVRTC accounts for ~80%% of the first-launch overhead)\n\n");

    // The same first launch, as recorded by the trace subsystem: write the
    // Chrome trace (KERNEL_LAUNCHER_TRACE=full would do this automatically
    // via KERNEL_LAUNCHER_TRACE_FILE) and print the per-span aggregate.
    const std::string trace_path = path_join(wisdom_dir, "fig5_trace.json");
    trace::write_trace_file(trace_path);
    std::printf("--- the same launch, from the trace recorder ---\n");
    std::printf("%s", trace::live_flame_summary().c_str());
    std::printf("Chrome trace written to %s (open in Perfetto, or replay\n"
                "with: kl-trace %s)\n\n",
                trace_path.c_str(), trace_path.c_str());
    trace::set_mode(trace::Mode::Off);
    trace::clear();

    // Subsequent launches: simulated host cost per launch.
    const int warm_launches = 1000;
    before = fixture.context->clock().now();
    for (int i = 0; i < warm_launches; i++) {
        fixture.launch();
    }
    double warm = (fixture.context->clock().now() - before) / warm_launches;
    std::printf(
        "subsequent launches (simulated): %.2f us per launch (paper: ~3 us)\n\n",
        warm * 1e6);

    // Async compile-ahead: the same cold start, but the build runs on the
    // background worker pool and overlaps with application work, so the
    // launch itself only pays whatever build time was NOT overlapped.
    std::printf("=== compile-ahead: overlapped cold start ===\n\n");
    auto overlapped = [&](const char* label, double app_work_seconds) {
        Fixture fx(wisdom_dir);
        const core::ProblemSize problem = fx.capture->problem_size;
        fx.kernel->compile_ahead(problem);
        fx.context->clock().advance(app_work_seconds);  // application work
        double before_launch = fx.context->clock().now();
        const core::OverheadBreakdown launch_o = fx.launch().overhead;
        double caller_cost = fx.context->clock().now() - before_launch;

        auto build = fx.kernel->cached_build_overhead(problem);
        double build_total = build ? build->total() : 0;
        core::WisdomKernel::Stats stats = fx.kernel->stats();
        std::printf("%s (%.0f ms of app work after compile_ahead):\n",
                    label, app_work_seconds * 1e3);
        std::printf("  background build            %8.3f ms  "
                    "(wisdom %.3f + nvrtc %.3f + load %.3f)\n",
                    build_total * 1e3,
                    build ? build->wisdom_seconds * 1e3 : 0,
                    build ? build->compile_seconds * 1e3 : 0,
                    build ? build->module_load_seconds * 1e3 : 0);
        std::printf("  caller-visible cold launch  %8.3f ms  "
                    "(wait %.3f ms + launch %.1f us)\n",
                    caller_cost * 1e3,
                    launch_o.wait_seconds * 1e3,
                    launch_o.launch_seconds * 1e6);
        // Whether the launch found the background build still in flight
        // (a wait) or already published (a warm hit) is a host-thread race,
        // so only their sum is a function of the seed.
        std::printf("  counters: %llu compile, %llu wait+warm, %llu cold\n\n",
                    static_cast<unsigned long long>(stats.compiles_started),
                    static_cast<unsigned long long>(stats.launch_waits + stats.warm_hits),
                    static_cast<unsigned long long>(stats.cold_launches));
    };
    overlapped("no overlap (launch immediately)", 0.0);
    overlapped("partial overlap", 0.1);
    overlapped("full overlap", 0.5);
    std::printf("(synchronous first launch above: %.1f ms — fully hidden when the\n"
                " application has >= the build time of its own work to do)\n\n",
                first_total * 1e3);

    // Warm process start: re-run the cold start of the top section with a
    // populated persistent compile cache (KERNEL_LAUNCHER_CACHE=readwrite).
    // The first process pays the full NVRTC cost and stores the result; a
    // fresh WisdomKernel in the "next process" hits the disk entry and the
    // compile component drops to zero.
    std::printf("=== warm start: persistent compile cache (docs/CACHING.md) ===\n\n");
    const std::string cache_dir = make_temp_dir("kl-fig5-cache");
    {
        Fixture cold_fx(wisdom_dir, cache_dir);
        // Populates <cache_dir>/klc-<hash>.json.
        const core::OverheadBreakdown populate = cold_fx.launch().overhead;
        core::WisdomKernel::Stats stats = cold_fx.kernel->stats();
        std::printf("populating process: %llu disk miss, %llu disk hit, "
                    "compile %.1f ms\n",
                    static_cast<unsigned long long>(stats.disk_misses),
                    static_cast<unsigned long long>(stats.disk_hits),
                    populate.compile_seconds * 1e3);
    }
    Fixture warm_fx(wisdom_dir, cache_dir);
    before = warm_fx.context->clock().now();
    const core::OverheadBreakdown hit = warm_fx.launch().overhead;
    const double warm_first_total = warm_fx.context->clock().now() - before;
    core::WisdomKernel::Stats warm_stats = warm_fx.kernel->stats();
    std::printf("warm process:       %llu disk miss, %llu disk hit\n\n",
                static_cast<unsigned long long>(warm_stats.disk_misses),
                static_cast<unsigned long long>(warm_stats.disk_hits));
    std::printf("first launch, warm process (simulated): %.1f ms total\n",
                warm_first_total * 1e3);
    auto hit_line = [&](const char* label, double seconds) {
        std::printf("  %-28s %8.3f ms  (%4.1f%%)\n", label, seconds * 1e3,
                    100.0 * seconds / hit.total());
    };
    hit_line("read wisdom file", hit.wisdom_seconds);
    hit_line("cache entry read", hit.cache_seconds);
    hit_line("nvrtcCompileProgram", hit.compile_seconds);
    hit_line("cuModuleLoad", hit.module_load_seconds);
    hit_line("cuLaunchKernel", hit.launch_seconds);
    std::printf("\ncold %.1f ms -> warm %.1f ms: %.1fx less first-launch overhead\n"
                "(compile is skipped entirely; kl-cache inspects the directory)\n\n",
                first_total * 1e3,
                warm_first_total * 1e3,
                first_total / warm_first_total);
    return 0;
}
