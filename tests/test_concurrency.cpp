// Concurrency tests: the async compile-ahead pipeline (worker pool,
// WisdomKernel state machine) and the thread-safety of the launch path
// under many threads hammering shared kernels and registries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "graph/graph.hpp"
#include "nvrtcsim/nvrtc.hpp"
#include "nvrtcsim/registry.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/thread_pool.hpp"

namespace kl::core {
namespace {

KernelBuilder vector_add_builder(const std::string& tuning_key = "") {
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source("vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    Expr block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(arg3).template_args(block_size).block_size(block_size);
    if (!tuning_key.empty()) {
        builder.tuning_key(tuning_key);
    }
    return builder;
}

/// vector_add without the template argument for its required `block_size`
/// constant: compiles fine to a KernelDef but fails in (simulated) NVRTC.
KernelBuilder broken_vector_add_builder() {
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source("vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    builder.problem_size(arg3);
    return builder;
}

struct Fixture {
    std::string dir = make_temp_dir("kl-conc");
    std::unique_ptr<sim::Context> context = sim::Context::create("NVIDIA RTX A4000");

    WisdomSettings settings() {
        return WisdomSettings().wisdom_dir(dir).capture_dir(dir);
    }
};

void expect_vector_add_result(DeviceArray<float>& c, int n) {
    std::vector<float> out = c.copy_to_host();
    for (int i = 0; i < n; i++) {
        ASSERT_FLOAT_EQ(out[i], 3.0f * static_cast<float>(i)) << "at index " << i;
    }
}

std::pair<std::vector<float>, std::vector<float>> host_inputs(int n) {
    std::vector<float> a(static_cast<size_t>(n)), b(static_cast<size_t>(n));
    for (int i = 0; i < n; i++) {
        a[static_cast<size_t>(i)] = static_cast<float>(i);
        b[static_cast<size_t>(i)] = static_cast<float>(2 * i);
    }
    return {a, b};
}

// ---------------------------------------------------------------------------
// Worker pool

TEST(ThreadPool, RunsSubmittedJobsToCompletion) {
    util::ThreadPool pool(4);
    EXPECT_EQ(pool.worker_count(), 4u);
    std::atomic<int> counter {0};
    for (int i = 0; i < 100; i++) {
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 100);
    EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPool, TaskExceptionsDoNotKillWorkers) {
    util::ThreadPool pool(2);
    std::atomic<int> counter {0};
    for (int i = 0; i < 10; i++) {
        pool.submit([] { throw std::runtime_error("task failure"); });
        pool.submit([&counter] { counter.fetch_add(1); });
    }
    pool.wait_idle();
    EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, DestructorDrainsQueue) {
    std::atomic<int> counter {0};
    {
        util::ThreadPool pool(2);
        for (int i = 0; i < 50; i++) {
            pool.submit([&counter] { counter.fetch_add(1); });
        }
    }
    EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, GlobalCompilePoolExists) {
    util::ThreadPool& pool = util::compile_pool();
    EXPECT_GE(pool.worker_count(), 2u);
    EXPECT_EQ(&pool, &util::compile_pool());
}

// ---------------------------------------------------------------------------
// WisdomKernel async state machine

TEST(AsyncCompile, CompileAheadThenLaunchIsWarm) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    ProblemSize problem(n);

    EXPECT_EQ(kernel.instance_state(problem), WisdomKernel::InstanceState::Uncompiled);
    kernel.compile_ahead(problem);
    EXPECT_TRUE(kernel.wait_ready(problem));
    EXPECT_EQ(kernel.instance_state(problem), WisdomKernel::InstanceState::Ready);

    auto [ha, hb] = host_inputs(n);
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    double before = fx.context->clock().now();
    kernel.launch(c, a, b, n);
    double elapsed = fx.context->clock().now() - before;

    // The caller never pays the ~300 ms first-launch cost: only the ~3 us
    // launch overhead remains.
    EXPECT_LT(elapsed, 1e-4);
    EXPECT_FALSE(kernel.last_launch_was_cold());
    OverheadBreakdown o = kernel.last_launch_overhead();
    EXPECT_EQ(o.compile_seconds, 0);
    EXPECT_EQ(o.wisdom_seconds, 0);
    EXPECT_EQ(o.wait_seconds, 0);
    EXPECT_GT(o.launch_seconds, 0);
    expect_vector_add_result(c, n);

    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.compiles_started, 1u);
    EXPECT_EQ(stats.cold_launches, 0u);
    EXPECT_EQ(stats.launch_waits + stats.warm_hits, 1u);
}

TEST(AsyncCompile, BuildCostIsPaidOffThread) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    ProblemSize problem(1000);
    kernel.compile_ahead(problem);

    // Simulated application work fully overlapping the background build
    // (which models ~0.3 s of wisdom + NVRTC + module load).
    fx.context->clock().advance(1.0);
    ASSERT_TRUE(kernel.wait_ready(problem));

    std::optional<OverheadBreakdown> build = kernel.cached_build_overhead(problem);
    ASSERT_TRUE(build.has_value());
    EXPECT_GT(build->compile_seconds, 0.1);
    EXPECT_GT(build->wisdom_seconds, 0);
    EXPECT_GT(build->module_load_seconds, 0);

    const int n = 1000;
    auto [ha, hb] = host_inputs(n);
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    kernel.launch(c, a, b, n);
    // Fully overlapped: no wait charged.
    EXPECT_EQ(kernel.last_launch_overhead().wait_seconds, 0);
    expect_vector_add_result(c, n);
}

TEST(AsyncCompile, PartialOverlapChargesOnlyRemainingBuildTime) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    ProblemSize problem(n);

    double submit_time = fx.context->clock().now();
    kernel.compile_ahead(problem);
    EXPECT_EQ(fx.context->clock().now(), submit_time);  // returned immediately

    // Only 50 ms of application work before the launch: the launch must
    // block for the remainder of the modeled build.
    const double app_work = 0.05;
    fx.context->clock().advance(app_work);

    auto [ha, hb] = host_inputs(n);
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    double before_launch = fx.context->clock().now();  // includes alloc/copy time
    kernel.launch(c, a, b, n);

    std::optional<OverheadBreakdown> build = kernel.cached_build_overhead(problem);
    ASSERT_TRUE(build.has_value());
    double build_total = build->wisdom_seconds + build->compile_seconds
        + build->module_load_seconds;
    ASSERT_GT(submit_time + build_total, before_launch);  // otherwise vacuous

    OverheadBreakdown o = kernel.last_launch_overhead();
    EXPECT_FALSE(kernel.last_launch_was_cold());
    EXPECT_NEAR(o.wait_seconds, (submit_time + build_total) - before_launch, 1e-9);
    // The clock ends exactly at the build's modeled completion (+ launch).
    EXPECT_NEAR(
        fx.context->clock().now(),
        submit_time + build_total + o.launch_seconds,
        1e-9);
    expect_vector_add_result(c, n);
}

TEST(AsyncCompile, FailedCompileSurfacesLogOnEveryLaunch) {
    Fixture fx;
    WisdomKernel kernel(broken_vector_add_builder(), fx.settings());
    const int n = 256;
    ProblemSize problem(n);

    kernel.compile_ahead(problem);  // must not throw: error is deferred
    EXPECT_FALSE(kernel.wait_ready(problem));
    EXPECT_EQ(kernel.instance_state(problem), WisdomKernel::InstanceState::Failed);

    DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    for (int attempt = 0; attempt < 2; attempt++) {
        try {
            kernel.launch(c, a, b, n);
            FAIL() << "expected CompileError";
        } catch (const CompileError& e) {
            EXPECT_NE(std::string(e.log()).find("undefined"), std::string::npos);
        }
    }

    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.compiles_started, 1u);
    EXPECT_EQ(stats.compiles_failed, 1u);
    EXPECT_EQ(stats.compiles_in_flight, 0u);
}

TEST(AsyncCompile, CompileAheadIsIdempotent) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    ProblemSize problem(1000);
    for (int i = 0; i < 5; i++) {
        kernel.compile_ahead(problem);
    }
    ASSERT_TRUE(kernel.wait_ready(problem));
    EXPECT_EQ(kernel.stats().compiles_started, 1u);
    EXPECT_EQ(kernel.cached_instance_count(), 1u);
}

// ---------------------------------------------------------------------------
// The resolve step launch_args and bake_launch share, seen from the bake
// side: it joins a background build at the modeled ready time a launch
// would, counts only the compile it starts, and rethrows a deferred build
// error on every call.

/// Where a background build submitted at `submit_time` is modeled to
/// complete: a clock started at the submit time and charged the finished
/// build's cost.
double modeled_ready_time(
    const WisdomKernel& kernel,
    const ProblemSize& problem,
    double submit_time) {
    std::optional<OverheadBreakdown> cost = kernel.cached_build_overhead(problem);
    EXPECT_TRUE(cost.has_value());
    sim::SimClock ready(submit_time);
    cost->charge_build(ready);
    return ready.now();
}

TEST(BakeResolve, JoiningCompileAheadAdvancesClockToTheLaunchReadyTime) {
    const int n = 1000;
    ProblemSize problem(n);
    double bake_wait = 0;
    double launch_wait = 0;
    {
        Fixture fx;
        WisdomKernel kernel(vector_add_builder(), fx.settings());
        DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
            b(static_cast<size_t>(n));
        const double submit = fx.context->clock().now();
        kernel.compile_ahead(problem);
        kernel.bake_launch(into_args(c, a, b, n));
        const double ready = modeled_ready_time(kernel, problem, submit);
        EXPECT_GT(ready, submit);
        EXPECT_EQ(fx.context->clock().now(), ready);
        bake_wait = ready - submit;
    }
    {
        Fixture fx;
        WisdomKernel kernel(vector_add_builder(), fx.settings());
        DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
            b(static_cast<size_t>(n));
        const double submit = fx.context->clock().now();
        kernel.compile_ahead(problem);
        kernel.launch(c, a, b, n);
        const double ready = modeled_ready_time(kernel, problem, submit);
        launch_wait = kernel.last_launch_overhead().wait_seconds;
        EXPECT_EQ(launch_wait, ready - submit);
    }
    EXPECT_EQ(bake_wait, launch_wait);
}

TEST(BakeResolve, BakeCountsTheCompileButNoLaunch) {
    trace::set_mode(trace::Mode::Counters);
    trace::clear();
    Fixture fx;
    const int n = 1000;
    DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    const std::vector<KernelArg> args = into_args(c, a, b, n);

    // A cold bake builds in the caller; a second bake finds it Ready.
    WisdomKernel cold(vector_add_builder(), fx.settings());
    cold.bake_launch(args);
    cold.bake_launch(args);
    // A bake that joins a background build.
    WisdomKernel joined(vector_add_builder(), fx.settings());
    joined.compile_ahead(ProblemSize(n));
    joined.bake_launch(args);

    for (const WisdomKernel* kernel : {&cold, &joined}) {
        WisdomKernel::Stats stats = kernel->stats();
        EXPECT_EQ(stats.compiles_started, 1u);
        EXPECT_EQ(stats.compiles_in_flight, 0u);
        EXPECT_EQ(stats.cold_launches, 0u);
        EXPECT_EQ(stats.launch_waits, 0u);
        EXPECT_EQ(stats.warm_hits, 0u);
    }
    std::map<std::string, uint64_t> counters = trace::counters_snapshot();
    EXPECT_EQ(counters["kl.compiles_started"], 2u);
    EXPECT_EQ(counters["kl.launches"], 0u);
    EXPECT_EQ(counters["kl.cold_launches"], 0u);
    EXPECT_EQ(counters["kl.launch_waits"], 0u);
    EXPECT_EQ(counters["kl.warm_hits"], 0u);
    trace::clear();
    trace::set_mode(trace::Mode::Off);
}

TEST(BakeResolve, FailedBackgroundBuildRethrowsOnEveryBake) {
    Fixture fx;
    WisdomKernel kernel(broken_vector_add_builder(), fx.settings());
    const int n = 256;
    DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    const std::vector<KernelArg> args = into_args(c, a, b, n);

    kernel.compile_ahead(ProblemSize(n));  // must not throw: error is deferred
    for (int attempt = 0; attempt < 3; attempt++) {
        try {
            kernel.bake_launch(args);
            FAIL() << "expected CompileError on bake #" << attempt;
        } catch (const CompileError& e) {
            EXPECT_NE(std::string(e.log()).find("undefined"), std::string::npos);
        }
    }
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.compiles_started, 1u);
    EXPECT_EQ(stats.compiles_failed, 1u);
    EXPECT_EQ(stats.compiles_in_flight, 0u);
}

TEST(AsyncCompile, DestroyingKernelWithBuildInFlightIsSafe) {
    Fixture fx;
    {
        WisdomKernel kernel(vector_add_builder(), fx.settings());
        kernel.compile_ahead(ProblemSize(4096));
        // Kernel destroyed while the background job may still be running.
    }
    util::compile_pool().wait_idle();
}

TEST(AsyncCompile, SyncModeCompilesEagerlyInCaller) {
    Fixture fx;
    WisdomSettings settings = fx.settings();
    settings.async_compile(false);
    WisdomKernel kernel(vector_add_builder(), settings);
    const int n = 1000;
    ProblemSize problem(n);

    double before = fx.context->clock().now();
    kernel.compile_ahead(problem);
    double elapsed = fx.context->clock().now() - before;
    // Eager: the caller's clock pays the full build (NVRTC dominates).
    EXPECT_GT(elapsed, 0.2);
    EXPECT_EQ(kernel.instance_state(problem), WisdomKernel::InstanceState::Ready);

    auto [ha, hb] = host_inputs(n);
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    before = fx.context->clock().now();
    kernel.launch(c, a, b, n);
    EXPECT_LT(fx.context->clock().now() - before, 1e-4);
    EXPECT_EQ(kernel.last_launch_overhead().wait_seconds, 0);
    expect_vector_add_result(c, n);
}

TEST(AsyncCompile, PlainColdLaunchIdenticalInBothModes) {
    // Without compile_ahead, a cold launch is synchronous and charges the
    // caller the identical Figure 5 breakdown regardless of the async
    // setting — KERNEL_LAUNCHER_ASYNC=0 changes nothing on this path.
    const int n = 1000;
    OverheadBreakdown breakdowns[2];
    for (int async_mode = 0; async_mode < 2; async_mode++) {
        Fixture fx;
        WisdomSettings settings = fx.settings();
        settings.async_compile(async_mode == 1);
        WisdomKernel kernel(vector_add_builder(), settings);
        auto [ha, hb] = host_inputs(n);
        DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
        double before = fx.context->clock().now();
        kernel.launch(c, a, b, n);
        double elapsed = fx.context->clock().now() - before;
        EXPECT_TRUE(kernel.last_launch_was_cold());
        breakdowns[async_mode] = kernel.last_cold_overhead();
        EXPECT_NEAR(breakdowns[async_mode].total(), elapsed, 1e-9);
        expect_vector_add_result(c, n);
    }
    EXPECT_EQ(breakdowns[0].wisdom_seconds, breakdowns[1].wisdom_seconds);
    EXPECT_EQ(breakdowns[0].compile_seconds, breakdowns[1].compile_seconds);
    EXPECT_EQ(breakdowns[0].module_load_seconds, breakdowns[1].module_load_seconds);
    EXPECT_EQ(breakdowns[0].wait_seconds, 0);
    EXPECT_EQ(breakdowns[1].wait_seconds, 0);
}

TEST(AsyncCompile, EnvVariableControlsAsyncMode) {
    ASSERT_EQ(setenv("KERNEL_LAUNCHER_ASYNC", "0", 1), 0);
    EXPECT_FALSE(WisdomSettings::from_env().async_compile());
    ASSERT_EQ(setenv("KERNEL_LAUNCHER_ASYNC", "off", 1), 0);
    EXPECT_FALSE(WisdomSettings::from_env().async_compile());
    ASSERT_EQ(setenv("KERNEL_LAUNCHER_ASYNC", "FALSE", 1), 0);
    EXPECT_FALSE(WisdomSettings::from_env().async_compile());
    ASSERT_EQ(setenv("KERNEL_LAUNCHER_ASYNC", "1", 1), 0);
    EXPECT_TRUE(WisdomSettings::from_env().async_compile());
    ASSERT_EQ(unsetenv("KERNEL_LAUNCHER_ASYNC"), 0);
    EXPECT_TRUE(WisdomSettings::from_env().async_compile());
}

TEST(AsyncCompile, ClearCacheResetsStateMachine) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    ProblemSize problem(512);
    kernel.compile_ahead(problem);
    ASSERT_TRUE(kernel.wait_ready(problem));
    // clear_cache waits for in-flight builds, then drops instances.
    kernel.clear_cache();
    EXPECT_EQ(kernel.cached_instance_count(), 0u);
    EXPECT_EQ(kernel.instance_state(problem), WisdomKernel::InstanceState::Uncompiled);
}

// ---------------------------------------------------------------------------
// Multi-threaded launch path

TEST(Concurrency, ExactlyOneCompilePerInstanceUnderContention) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const std::vector<int> sizes {256, 777, 1000, 4096};
    const int threads = 8, reps = 4;

    std::atomic<int> start_gate {0};
    std::atomic<int> failures {0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
        workers.emplace_back([&, t] {
            start_gate.fetch_add(1);
            while (start_gate.load() < threads) {
            }
            for (int rep = 0; rep < reps; rep++) {
                for (int n : sizes) {
                    auto [ha, hb] = host_inputs(n);
                    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
                    kernel.launch(c, a, b, n);
                    std::vector<float> out = c.copy_to_host();
                    for (int i = 0; i < n; i++) {
                        if (out[static_cast<size_t>(i)] != 3.0f * static_cast<float>(i)) {
                            failures.fetch_add(1);
                            break;
                        }
                    }
                }
            }
            (void) t;
        });
    }
    for (std::thread& w : workers) {
        w.join();
    }

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(kernel.cached_instance_count(), sizes.size());

    WisdomKernel::Stats stats = kernel.stats();
    // The heart of the pipeline: no duplicated compilation work, ever.
    EXPECT_EQ(stats.compiles_started, sizes.size());
    EXPECT_EQ(stats.compiles_in_flight, 0u);
    EXPECT_EQ(stats.compiles_failed, 0u);
    // Every launch is accounted for exactly once.
    const uint64_t total = static_cast<uint64_t>(threads) * reps * sizes.size();
    EXPECT_EQ(stats.cold_launches, sizes.size());
    EXPECT_EQ(stats.cold_launches + stats.launch_waits + stats.warm_hits, total);
}

TEST(Concurrency, RegistryLaunchesFromManyThreads) {
    Fixture fx;
    WisdomKernelRegistry registry(fx.settings());
    const int threads = 8, reps = 3;
    const std::vector<std::string> keys {"va_reg_a", "va_reg_b", "va_reg_c"};

    std::atomic<int> failures {0};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
        workers.emplace_back([&] {
            for (int rep = 0; rep < reps; rep++) {
                for (const std::string& key : keys) {
                    const int n = 512;
                    auto [ha, hb] = host_inputs(n);
                    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
                    registry.launch(vector_add_builder(key).build(), c, a, b, n);
                    std::vector<float> out = c.copy_to_host();
                    for (int i = 0; i < n; i++) {
                        if (out[static_cast<size_t>(i)] != 3.0f * static_cast<float>(i)) {
                            failures.fetch_add(1);
                            break;
                        }
                    }
                }
            }
        });
    }
    for (std::thread& w : workers) {
        w.join();
    }

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(registry.size(), keys.size());
    for (const std::string& key : keys) {
        WisdomKernel::Stats stats = registry.lookup(vector_add_builder(key)).stats();
        EXPECT_EQ(stats.compiles_started, 1u) << key;
        const uint64_t total = static_cast<uint64_t>(threads) * reps;
        EXPECT_EQ(stats.cold_launches + stats.launch_waits + stats.warm_hits, total) << key;
    }
}

TEST(Concurrency, LookupReferencesStableUnderConcurrentInsert) {
    Fixture fx;
    WisdomKernelRegistry registry(fx.settings());
    const KernelDef shared_def = vector_add_builder("va_shared").build();
    WisdomKernel* expected = &registry.lookup(shared_def);

    const int threads = 8;
    std::vector<WisdomKernel*> seen(static_cast<size_t>(threads), nullptr);
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
        workers.emplace_back([&, t] {
            // Interleave inserts of fresh defs with lookups of the shared
            // one: the shared reference must never move.
            for (int i = 0; i < 10; i++) {
                registry.lookup(
                    vector_add_builder("va_t" + std::to_string(t) + "_" + std::to_string(i)));
                seen[static_cast<size_t>(t)] = &registry.lookup(shared_def);
            }
        });
    }
    for (std::thread& w : workers) {
        w.join();
    }
    for (WisdomKernel* p : seen) {
        EXPECT_EQ(p, expected);
    }
    EXPECT_EQ(registry.size(), 1u + 8u * 10u);
}

TEST(Concurrency, ClearCacheWhileOtherThreadsLaunch) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int threads = 4, reps = 6;

    std::atomic<int> failures {0};
    std::atomic<bool> done {false};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
        workers.emplace_back([&] {
            for (int rep = 0; rep < reps; rep++) {
                const int n = 777;
                auto [ha, hb] = host_inputs(n);
                DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
                kernel.launch(c, a, b, n);
                std::vector<float> out = c.copy_to_host();
                for (int i = 0; i < n; i++) {
                    if (out[static_cast<size_t>(i)] != 3.0f * static_cast<float>(i)) {
                        failures.fetch_add(1);
                        break;
                    }
                }
            }
        });
    }
    std::thread clearer([&] {
        while (!done.load()) {
            kernel.clear_cache();
            std::this_thread::yield();
        }
    });
    for (std::thread& w : workers) {
        w.join();
    }
    done.store(true);
    clearer.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(kernel.stats().compiles_in_flight, 0u);
}

TEST(Concurrency, CompileAheadManyProblemSizesInParallel) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const std::vector<int> sizes {128, 256, 512, 1024, 2048, 4096};
    for (int n : sizes) {
        kernel.compile_ahead(ProblemSize(n));
    }
    for (int n : sizes) {
        EXPECT_TRUE(kernel.wait_ready(ProblemSize(n))) << n;
    }
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.compiles_started, sizes.size());
    EXPECT_EQ(stats.compiles_in_flight, 0u);

    // Every launch afterwards is warm.
    for (int n : sizes) {
        auto [ha, hb] = host_inputs(n);
        DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
        double before = fx.context->clock().now();
        kernel.launch(c, a, b, n);
        EXPECT_LT(fx.context->clock().now() - before, 1e-4);
        EXPECT_FALSE(kernel.last_launch_was_cold());
        expect_vector_add_result(c, n);
    }
}

// ---------------------------------------------------------------------------
// MemoryPool::release_all vs in-flight work (docs/MEMORY.md). release_all is
// epoch-fenced: it drains every functional access holding the reclaim fence,
// drops all mappings, and bumps the pool epoch so baked graphs re-validate.

TEST(Concurrency, ReleaseAllDuringGraphReplaysStaysCoherent) {
    Fixture fx;

    constexpr int kThreads = 4;
    constexpr int kReplays = 50;
    const uint64_t bytes = 4096;

    // Each thread owns a private graph over private device blocks, so the
    // only cross-thread interaction is with release_all itself.
    struct PerThread {
        sim::DevicePtr src = 0;
        sim::DevicePtr dst = 0;
        std::vector<unsigned char> out;
        std::unique_ptr<graph::GraphExec> exec;
    };
    std::vector<PerThread> work(kThreads);
    std::vector<unsigned char> host(bytes, 0x3C);
    for (PerThread& w : work) {
        w.src = fx.context->malloc(bytes);
        w.dst = fx.context->malloc(bytes);
        w.out.assign(bytes, 0);
        fx.context->memcpy_htod(w.src, host.data(), bytes);
        graph::GraphCapture capture;
        graph::NodeId up = capture.add_upload(w.src);
        graph::NodeId copy = capture.add_memcpy_dtod(w.dst, w.src, bytes, {up});
        capture.add_memcpy_dtoh(w.out.data(), w.dst, bytes, {copy});
        w.exec = std::make_unique<graph::GraphExec>(capture.finish().instantiate());
    }

    std::atomic<uint64_t> ok {0};
    std::atomic<uint64_t> invalidated {0};
    std::vector<std::thread> replayers;
    replayers.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        replayers.emplace_back([&, t] {
            PerThread& w = work[static_cast<size_t>(t)];
            for (int i = 0; i < kReplays; i++) {
                try {
                    w.exec->replay();
                    // A completed replay must have produced the full
                    // snapshot contents; a release cannot tear it.
                    ASSERT_EQ(w.out[0], 0x3C);
                    ASSERT_EQ(w.out[bytes - 1], 0x3C);
                    ok.fetch_add(1);
                } catch (const CudaError&) {
                    // The pool was released under this graph: from here on
                    // its blocks are permanently unmapped (addresses are
                    // never recycled), so every later replay throws too.
                    invalidated.fetch_add(1);
                }
            }
        });
    }
    std::thread releaser([&] {
        for (int i = 0; i < 10; i++) {
            fx.context->memory().release_all();
            std::this_thread::yield();
        }
    });
    for (std::thread& thread : replayers) {
        thread.join();
    }
    releaser.join();

    EXPECT_EQ(ok.load() + invalidated.load(), uint64_t(kThreads) * kReplays);
    // The releaser ran to completion, so every graph's blocks are now
    // permanently unmapped (addresses are never recycled): one more replay
    // must deterministically fail its re-validation.
    EXPECT_THROW(work[0].exec->replay(), CudaError);

    // The pool itself stays fully usable after the storm.
    sim::DevicePtr fresh = fx.context->malloc(bytes);
    fx.context->memcpy_htod(fresh, host.data(), bytes);
    std::vector<unsigned char> back(bytes, 0);
    fx.context->memcpy_dtoh(back.data(), fresh, bytes);
    EXPECT_EQ(back, host);
    fx.context->free(fresh);
}

TEST(Concurrency, ReleaseAllDuringAsyncChurnKeepsAccountingCoherent) {
    Fixture fx;
    sim::MemoryPool& pool = fx.context->memory();

    constexpr int kThreads = 4;
    constexpr int kIters = 200;
    std::vector<std::thread> churners;
    churners.reserve(kThreads);
    for (int t = 0; t < kThreads; t++) {
        churners.emplace_back([&, t] {
            sim::Stream stream(100 + t);
            for (int i = 0; i < kIters; i++) {
                try {
                    sim::DevicePtr p =
                        pool.allocate_async(256, stream, /*host_now=*/0.0);
                    pool.free_async(p, stream, /*host_now=*/0.0);
                } catch (const CudaError&) {
                    // release_all landed between the alloc and the free:
                    // the pointer is gone. The next iteration starts clean.
                }
            }
        });
    }
    std::thread releaser([&] {
        for (int i = 0; i < 20; i++) {
            pool.release_all();
            std::this_thread::yield();
        }
    });
    for (std::thread& thread : churners) {
        thread.join();
    }
    releaser.join();

    // One final fenced release: the books must close exactly.
    pool.release_all();
    EXPECT_EQ(pool.bytes_in_use(), 0u);
    EXPECT_EQ(pool.allocation_count(), 0u);
    sim::MemoryPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.deferred_blocks, 0u);
    EXPECT_EQ(stats.deferred_bytes, 0u);
    EXPECT_EQ(stats.slab_count, 0u);
}

}  // namespace
}  // namespace kl::core
