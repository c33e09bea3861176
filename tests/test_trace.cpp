// Tests for the trace subsystem: the event/counter recorder, its Chrome
// trace_event JSON export and round-trip parser, the flame summary, and
// the instrumentation threaded through WisdomKernel / the cudasim driver /
// the async compile pipeline.

#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "core/kernel_launcher.hpp"
#include "nvrtcsim/registry.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace kl::trace {
namespace {

/// Forces one mode for the duration of a test and wipes all recorded
/// state on both entry and exit, so tests cannot see each other's events.
struct ScopedMode {
    explicit ScopedMode(Mode m) {
        set_mode(m);
        clear();
    }
    ~ScopedMode() {
        clear();
        set_mode(Mode::Off);
    }
};

core::KernelBuilder vector_add_builder() {
    rtc::register_builtin_kernels();
    core::KernelBuilder builder(
        "vector_add",
        core::KernelSource::inline_source(
            "vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    core::Expr block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(core::arg3).template_args(block_size).block_size(block_size);
    return builder;
}

struct Fixture {
    std::string dir = make_temp_dir("kl-trace");
    std::unique_ptr<sim::Context> context = sim::Context::create("NVIDIA RTX A4000");

    core::WisdomSettings settings() {
        return core::WisdomSettings().wisdom_dir(dir).capture_dir(dir);
    }
};

uint64_t count_events(const std::vector<TraceEvent>& events, const std::string& name) {
    uint64_t n = 0;
    for (const TraceEvent& event : events) {
        if (event.name == name) {
            n++;
        }
    }
    return n;
}

const TraceEvent* find_event(
    const std::vector<TraceEvent>& events,
    const std::string& name) {
    for (const TraceEvent& event : events) {
        if (event.name == name) {
            return &event;
        }
    }
    return nullptr;
}

TEST(TraceMode, ParseAndNames) {
    EXPECT_EQ(parse_mode("off"), Mode::Off);
    EXPECT_EQ(parse_mode("0"), Mode::Off);
    EXPECT_EQ(parse_mode(""), Mode::Off);
    EXPECT_EQ(parse_mode("counters"), Mode::Counters);
    EXPECT_EQ(parse_mode("STATS"), Mode::Counters);
    EXPECT_EQ(parse_mode("full"), Mode::Full);
    EXPECT_EQ(parse_mode(" On "), Mode::Full);
    EXPECT_THROW(parse_mode("verbose"), Error);
    EXPECT_STREQ(mode_name(Mode::Counters), "counters");
}

TEST(TraceMode, OffRecordsNothing) {
    ScopedMode scope(Mode::Off);
    emit_complete(Domain::Sim, "test", "span", 0.0, 1.0);
    emit_instant(Domain::Sim, "test", "marker", 0.0);
    counter("test.off_counter");  // interning is allowed...
    { HostSpan span("test", "host_span"); }
    EXPECT_TRUE(events_snapshot().empty());
    EXPECT_FALSE(counters_enabled());
    EXPECT_FALSE(spans_enabled());
}

TEST(TraceMode, OffKernelPipelineRecordsNothing) {
    ScopedMode scope(Mode::Off);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    kernel.launch(c, a, b, n);
    kernel.launch(c, a, b, n);
    EXPECT_TRUE(events_snapshot().empty());
    for (const auto& [name, value] : counters_snapshot()) {
        EXPECT_EQ(value, 0u) << name;
    }
}

TEST(TraceCounters, CountersModeRecordsCountersButNoEvents) {
    ScopedMode scope(Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    a.copy_from_host(std::vector<float>(n, 1.0f));
    kernel.launch(c, a, b, n);
    kernel.launch(c, a, b, n);

    EXPECT_TRUE(events_snapshot().empty());
    std::map<std::string, uint64_t> counters = counters_snapshot();
    EXPECT_EQ(counters["kl.launches"], 2u);
    EXPECT_EQ(counters["kl.compiles_started"], 1u);
    EXPECT_EQ(counters["kl.cold_launches"], 1u);
    EXPECT_EQ(counters["kl.warm_hits"], 1u);
    EXPECT_EQ(counters["cuda.launches"], 2u);
    EXPECT_EQ(counters["nvrtc.compiles"], 1u);
    EXPECT_EQ(counters["cuda.module_loads"], 1u);
    EXPECT_EQ(counters["wisdom.loads"], 1u);
    EXPECT_GE(counters["cuda.mallocs"], 3u);
    EXPECT_GT(counters["cuda.bytes_moved"], 0u);
}

TEST(TraceCounters, StatsAndCounterRegistryAgree) {
    ScopedMode scope(Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n1 = 1000, n2 = 5000;
    core::DeviceArray<float> c(n2), a(n2), b(n2);
    kernel.launch(c, a, b, n1);
    kernel.launch(c, a, b, n1);
    kernel.launch(c, a, b, n2);

    // The per-kernel Stats block and the process-wide counter registry are
    // fed through one interface, so they can never drift apart.
    core::WisdomKernel::Stats stats = kernel.stats();
    std::map<std::string, uint64_t> counters = counters_snapshot();
    EXPECT_EQ(counters["kl.compiles_started"], static_cast<uint64_t>(stats.compiles_started));
    EXPECT_EQ(counters["kl.cold_launches"], static_cast<uint64_t>(stats.cold_launches));
    EXPECT_EQ(counters["kl.warm_hits"], static_cast<uint64_t>(stats.warm_hits));
    EXPECT_EQ(counters["kl.launch_waits"], static_cast<uint64_t>(stats.launch_waits));
    EXPECT_EQ(counters["kl.compiles_failed"], static_cast<uint64_t>(stats.compiles_failed));
}

TEST(TraceCounters, RaceFreeUnderConcurrentIncrements) {
    ScopedMode scope(Mode::Counters);
    constexpr int kThreads = 8;
    constexpr int kIncrements = 10000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([] {
            Counter& c = counter("test.race");
            for (int i = 0; i < kIncrements; i++) {
                c.add(1);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    EXPECT_EQ(counter("test.race").value(), uint64_t(kThreads) * kIncrements);
}

TEST(TraceFull, ColdLaunchSpansMatchOverheadBreakdown) {
    ScopedMode scope(Mode::Full);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    clear();  // drop the malloc spans of the arrays above
    const core::OverheadBreakdown cold = kernel.launch(c, a, b, n).overhead;
    std::vector<TraceEvent> events = events_snapshot();

    const TraceEvent* wisdom = find_event(events, "wisdom.read");
    const TraceEvent* compile = find_event(events, "nvrtc.compile");
    const TraceEvent* load = find_event(events, "module.load");
    const TraceEvent* launch = find_event(events, "kernel.launch");
    ASSERT_NE(wisdom, nullptr);
    ASSERT_NE(compile, nullptr);
    ASSERT_NE(load, nullptr);
    ASSERT_NE(launch, nullptr);

    // The Fig. 5 spans carry exactly the modeled costs the kernel reports.
    EXPECT_NEAR(wisdom->duration_us, cold.wisdom_seconds * 1e6, 1e-6);
    EXPECT_NEAR(compile->duration_us, cold.compile_seconds * 1e6, 1e-6);
    EXPECT_NEAR(load->duration_us, cold.module_load_seconds * 1e6, 1e-6);
    EXPECT_NEAR(launch->duration_us, cold.launch_seconds * 1e6, 1e-3);

    // ... laid out back-to-back on the virtual timeline.
    EXPECT_EQ(wisdom->domain, Domain::Sim);
    EXPECT_NEAR(compile->start_us, wisdom->start_us + wisdom->duration_us, 1e-6);
    EXPECT_NEAR(load->start_us, compile->start_us + compile->duration_us, 1e-6);

    EXPECT_EQ(count_events(events, "cache.miss"), 1u);
    kernel.launch(c, a, b, n);
    EXPECT_EQ(count_events(events_snapshot(), "cache.hit"), 1u);
}

TEST(TraceFull, AsyncCompileSpansLandOnWorkerTrack) {
    ScopedMode scope(Mode::Full);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const core::ProblemSize problem(2048);
    kernel.compile_ahead(problem);
    ASSERT_TRUE(kernel.wait_ready(problem));

    std::vector<TraceEvent> events = events_snapshot();
    const TraceEvent* queue_wait = find_event(events, "compile.queue_wait");
    const TraceEvent* execute = find_event(events, "compile.execute");
    const TraceEvent* compile = find_event(events, "nvrtc.compile");
    ASSERT_NE(queue_wait, nullptr);
    ASSERT_NE(execute, nullptr);
    ASSERT_NE(compile, nullptr);
    EXPECT_EQ(queue_wait->domain, Domain::Host);
    EXPECT_EQ(execute->domain, Domain::Host);
    EXPECT_EQ(execute->category, "compile");

    // The build ran on a pool worker, so its spans sit on the worker's own
    // track — which by then carries a "compile-worker-N" display name —
    // not on the test thread's track.
    EXPECT_NE(compile->track, current_track());
    EXPECT_EQ(compile->track, queue_wait->track);
    EXPECT_EQ(execute->track, queue_wait->track);
    std::vector<std::string> names = track_names();
    ASSERT_LT(compile->track, names.size());
    EXPECT_EQ(names[compile->track].rfind("compile-worker-", 0), 0u) << names[compile->track];
}

TEST(TraceFull, StreamExecutionGetsItsOwnTrack) {
    ScopedMode scope(Mode::Full);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    kernel.launch(c, a, b, n);

    std::vector<TraceEvent> events = events_snapshot();
    const TraceEvent* exec = find_event(events, "kernel.exec");
    ASSERT_NE(exec, nullptr);
    std::vector<std::string> names = track_names();
    ASSERT_LT(exec->track, names.size());
    EXPECT_EQ(names[exec->track], "stream 0");
}

TEST(TraceFull, ChromeJsonRoundTripsThroughParser) {
    ScopedMode scope(Mode::Full);
    emit_complete(
        Domain::Sim, "compile", "nvrtc.compile", 0.018, 0.235, {{"kernel", "advec_u"}});
    emit_instant(Domain::Sim, "cache", "cache.miss", 0.018);
    counter("kl.launches").add(3);
    { HostSpan span("lint", "lint.registration"); }

    ParsedTrace parsed = parse_chrome_trace(json::parse(chrome_trace_json()));
    ASSERT_EQ(parsed.events.size(), 3u);
    EXPECT_EQ(parsed.counters.at("kl.launches"), 3u);
    EXPECT_EQ(parsed.processes.at(1), "sim (virtual time)");
    EXPECT_EQ(parsed.processes.at(2), "host (wall clock)");

    const TraceEvent* compile = find_event(parsed.events, "nvrtc.compile");
    ASSERT_NE(compile, nullptr);
    EXPECT_EQ(compile->phase, TraceEvent::Phase::Complete);
    EXPECT_EQ(compile->domain, Domain::Sim);
    EXPECT_EQ(compile->category, "compile");
    EXPECT_NEAR(compile->start_us, 18000.0, 1e-6);
    EXPECT_NEAR(compile->duration_us, 235000.0, 1e-6);
    ASSERT_EQ(compile->args.size(), 1u);
    EXPECT_EQ(compile->args[0].first, "kernel");
    EXPECT_EQ(compile->args[0].second, "advec_u");

    const TraceEvent* miss = find_event(parsed.events, "cache.miss");
    ASSERT_NE(miss, nullptr);
    EXPECT_EQ(miss->phase, TraceEvent::Phase::Instant);

    const TraceEvent* lint = find_event(parsed.events, "lint.registration");
    ASSERT_NE(lint, nullptr);
    EXPECT_EQ(lint->domain, Domain::Host);
}

TEST(TraceFull, FlameSummaryAggregatesSpans) {
    ScopedMode scope(Mode::Full);
    emit_complete(Domain::Sim, "compile", "nvrtc.compile", 0.0, 0.2);
    emit_complete(Domain::Sim, "compile", "nvrtc.compile", 0.2, 0.3);
    emit_complete(Domain::Sim, "compile", "wisdom.read", 0.5, 0.018);

    std::vector<FlameRow> rows = aggregate_flame(events_snapshot());
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].name, "nvrtc.compile");  // largest total first
    EXPECT_EQ(rows[0].count, 2u);
    EXPECT_NEAR(rows[0].total_us, 5e5, 1e-3);
    EXPECT_NEAR(rows[0].max_us, 3e5, 1e-3);

    std::string summary = render_flame_summary(events_snapshot(), counters_snapshot());
    EXPECT_NE(summary.find("nvrtc.compile"), std::string::npos);
    EXPECT_NE(summary.find("sim"), std::string::npos);
}

TEST(TraceFull, WriteTraceFileEmitsLoadableJson) {
    ScopedMode scope(Mode::Full);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 1000;
    core::DeviceArray<float> c(n), a(n), b(n);
    kernel.launch(c, a, b, n);

    const std::string path = path_join(fx.dir, "trace.json");
    write_trace_file(path);
    ParsedTrace parsed = parse_chrome_trace(json::parse_file(path));
    EXPECT_GE(parsed.events.size(), 5u);
    EXPECT_GE(parsed.counters.at("kl.launches"), 1u);

    // In Counters mode the same call writes the counters-only dump.
    set_mode(Mode::Counters);
    write_trace_file(path);
    json::Value counters_doc = json::parse_file(path);
    EXPECT_NE(counters_doc.find("counters"), nullptr);
    EXPECT_EQ(counters_doc.find("traceEvents"), nullptr);
}

TEST(TraceFull, ClearCacheKeepsTraceCoherent) {
    ScopedMode scope(Mode::Full);
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());

    // Launch clear_cache() concurrently with background builds: it must
    // wait for in-flight compiles, so afterwards every started build has
    // all three Fig. 5 spans in the buffer (no torn traces), and the
    // instant marker for the clear itself is recorded.
    for (int round = 0; round < 4; round++) {
        kernel.compile_ahead(core::ProblemSize(1000 + round));
        kernel.clear_cache();
        std::vector<TraceEvent> events = events_snapshot();
        EXPECT_EQ(
            count_events(events, "wisdom.read"),
            count_events(events, "module.load"));
    }
    EXPECT_EQ(count_events(events_snapshot(), "cache.clear"), 4u);
    EXPECT_EQ(counters_snapshot()["kl.cache_clears"], 4u);
}

TEST(TraceFull, DroppedEventCounterClearsWithBuffer) {
    ScopedMode scope(Mode::Full);
    EXPECT_EQ(dropped_events(), 0u);
    clear();
    EXPECT_EQ(dropped_events(), 0u);
    EXPECT_TRUE(events_snapshot().empty());
}

}  // namespace
}  // namespace kl::trace
