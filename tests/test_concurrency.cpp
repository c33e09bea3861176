// Concurrency tests: the async compile-ahead pipeline (worker pool,
// WisdomKernel state machine) and the thread-safety of the launch path
// under many threads hammering shared kernels and registries.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/kernel_launcher.hpp"
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

/// Returns once every job submitted to compile_pool() so far has finished.
/// The pool takes jobs in order, so one barrier task per worker can only
/// all be running once no earlier job is left on any worker.
void drain_compile_pool() {
    struct Barrier {
        explicit Barrier(std::ptrdiff_t n): all_running(n), finished(n) {}
        std::latch all_running;
        std::latch finished;
    };
    util::ThreadPool& pool = util::compile_pool();
    const auto workers = static_cast<std::ptrdiff_t>(pool.worker_count());
    // Shared, so a task still returning from count_down() never touches a
    // destroyed latch.
    auto barrier = std::make_shared<Barrier>(workers);
    for (std::ptrdiff_t i = 0; i < workers; i++) {
        pool.submit([barrier] {
            barrier->all_running.arrive_and_wait();
            barrier->finished.count_down();
        });
    }
    barrier->finished.wait();
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
    std::atomic<int> counter {0};
    {
        util::ThreadPool pool(4);
        EXPECT_EQ(pool.worker_count(), 4u);
        for (int i = 0; i < 100; i++) {
            pool.submit([&counter] { counter.fetch_add(1); });
        }
    }
    EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, TaskExceptionsDoNotKillWorkers) {
    std::atomic<int> counter {0};
    {
        util::ThreadPool pool(2);
        for (int i = 0; i < 10; i++) {
            pool.submit([] { throw std::runtime_error("task failure"); });
            pool.submit([&counter] { counter.fetch_add(1); });
        }
    }
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

    EXPECT_EQ(kernel.stats().compiles_started, 0u);
    kernel.compile_ahead(problem);
    auto [ha, hb] = host_inputs(n);
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    kernel.bake_launch(into_args(c, a, b, n));  // joins the background build
    EXPECT_TRUE(kernel.cached_build_overhead(problem).has_value());

    double before = fx.context->clock().now();
    const LaunchOutcome outcome = kernel.launch(c, a, b, n);
    double elapsed = fx.context->clock().now() - before;

    // The caller never pays the ~300 ms first-launch cost: only the ~3 us
    // launch overhead remains.
    EXPECT_LT(elapsed, 1e-4);
    EXPECT_FALSE(outcome.cold);
    const OverheadBreakdown& o = outcome.overhead;
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

    const int n = 1000;
    auto [ha, hb] = host_inputs(n);
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    // Fully overlapped: no wait charged.
    EXPECT_EQ(kernel.launch(c, a, b, n).overhead.wait_seconds, 0);
    expect_vector_add_result(c, n);

    std::optional<OverheadBreakdown> build = kernel.cached_build_overhead(problem);
    ASSERT_TRUE(build.has_value());
    EXPECT_GT(build->compile_seconds, 0.1);
    EXPECT_GT(build->wisdom_seconds, 0);
    EXPECT_GT(build->module_load_seconds, 0);
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
    const LaunchOutcome outcome = kernel.launch(c, a, b, n);

    std::optional<OverheadBreakdown> build = kernel.cached_build_overhead(problem);
    ASSERT_TRUE(build.has_value());
    double build_total = build->wisdom_seconds + build->compile_seconds
        + build->module_load_seconds;
    ASSERT_GT(submit_time + build_total, before_launch);  // otherwise vacuous

    const OverheadBreakdown& o = outcome.overhead;
    EXPECT_FALSE(outcome.cold);
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
    DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    EXPECT_THROW(kernel.bake_launch(into_args(c, a, b, n)), CompileError);
    EXPECT_EQ(kernel.stats().compiles_failed, 1u);

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
    const int n = 1000;
    ProblemSize problem(n);
    for (int i = 0; i < 5; i++) {
        kernel.compile_ahead(problem);
    }
    DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    kernel.bake_launch(into_args(c, a, b, n));
    EXPECT_EQ(kernel.stats().compiles_started, 1u);
    EXPECT_TRUE(kernel.cached_build_overhead(problem).has_value());
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
        launch_wait = kernel.launch(c, a, b, n).overhead.wait_seconds;
        const double ready = modeled_ready_time(kernel, problem, submit);
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
    drain_compile_pool();
}

TEST(AsyncCompile, PlainColdLaunchIdenticalInBothModes) {
    // Without compile_ahead, a cold launch is synchronous: the caller
    // builds the instance and is charged the Figure 5 breakdown, with no
    // wait on the background pool.
    const int n = 1000;
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    auto [ha, hb] = host_inputs(n);
    DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
    double before = fx.context->clock().now();
    const LaunchOutcome outcome = kernel.launch(c, a, b, n);
    double elapsed = fx.context->clock().now() - before;
    EXPECT_TRUE(outcome.cold);
    const OverheadBreakdown& breakdown = outcome.overhead;
    EXPECT_NEAR(breakdown.total(), elapsed, 1e-9);
    EXPECT_GT(breakdown.wisdom_seconds, 0);
    EXPECT_GT(breakdown.compile_seconds, 0.2);  // NVRTC dominates
    EXPECT_GT(breakdown.module_load_seconds, 0);
    EXPECT_EQ(breakdown.wait_seconds, 0);
    EXPECT_EQ(kernel.stats().compiles_started, 1u);
    expect_vector_add_result(c, n);
}

TEST(AsyncCompile, ClearCacheResetsStateMachine) {
    Fixture fx;
    WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 512;
    ProblemSize problem(n);
    kernel.compile_ahead(problem);
    DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
        b(static_cast<size_t>(n));
    kernel.bake_launch(into_args(c, a, b, n));
    // clear_cache waits for in-flight builds, then drops instances.
    kernel.clear_cache();
    EXPECT_FALSE(kernel.cached_build_overhead(problem).has_value());
    EXPECT_EQ(kernel.stats().compiles_in_flight, 0u);
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
    for (int n : sizes) {
        EXPECT_TRUE(kernel.cached_build_overhead(ProblemSize(n)).has_value()) << n;
    }

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
        DeviceArray<float> c(static_cast<size_t>(n)), a(static_cast<size_t>(n)),
            b(static_cast<size_t>(n));
        kernel.bake_launch(into_args(c, a, b, n));
    }
    WisdomKernel::Stats stats = kernel.stats();
    EXPECT_EQ(stats.compiles_started, sizes.size());
    EXPECT_EQ(stats.compiles_in_flight, 0u);

    // Every launch afterwards is warm.
    for (int n : sizes) {
        auto [ha, hb] = host_inputs(n);
        DeviceArray<float> c(static_cast<size_t>(n)), a(ha), b(hb);
        double before = fx.context->clock().now();
        EXPECT_FALSE(kernel.launch(c, a, b, n).cold);
        EXPECT_LT(fx.context->clock().now() - before, 1e-4);
        expect_vector_add_result(c, n);
    }
}

}  // namespace
}  // namespace kl::core
