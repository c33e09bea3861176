// Per-layer probe: drives each module's public functions in isolation, on
// the inputs the workload's end-to-end phase used, with a span around
// every call. Times exclude the span's own cost (the clock is read inside
// it). Also reports the ROADMAP's printed gates as plain numbers with
// their spread across alternating blocks, without gating on them.
#include <cmath>

#include "analysis/lint.hpp"
#include "netwisdom/client.hpp"
#include "netwisdom/server.hpp"
#include "rtccache/rtccache.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

template<typename T>
void keep(const T& value) {
    asm volatile("" : : "g"(&value) : "memory");
}

/// Calls `f` (which returns the nanoseconds it measured) until `budget`
/// seconds pass, at least `min_calls` and at most `max_calls` times.
template<typename F>
std::vector<double> sample(double budget, size_t min_calls, size_t max_calls, F&& f) {
    std::vector<double> ns;
    const double deadline = now_seconds() + budget;
    while (ns.size() < max_calls && (ns.size() < min_calls || now_seconds() < deadline)) {
        ns.push_back(f());
    }
    return ns;
}

/// Times one call of `body` inside a span.
template<typename F>
double timed(Layer layer, const char* name, F&& body) {
    Span span(layer, name);
    const int64_t start = now_ns();
    body();
    return static_cast<double>(now_ns() - start);
}

double ratio(uint64_t hits, uint64_t misses) {
    return hits + misses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

/// Median of per-block medians and their IQR.
struct Blocks {
    std::vector<double> values;
    void report(Result& result, const std::string& name, const std::string& unit) const {
        result.metric(name, median(values), unit);
        result.metric(name + "_iqr", iqr(values), unit);
    }
};

}  // namespace

void run_layer_probe(const Options& options, ProbeInputs& in, double budget, Result& result) {
    Span root(Layer::Bench, "layer_probe", 1);
    kl::sim::Context& context = *in.context;
    kl::core::WisdomKernel& advec = *in.advec;
    const kl::core::KernelDef& def = advec.def();
    const std::vector<kl::core::KernelArg>& args = in.advec_args->args;
    const double slice = budget / 40;  // per ns-scale function
    const kl::core::ProblemSize problem = def.eval_problem_size(args);

    // --- core: the eager path's stages ---
    const kl::core::WisdomKernel::BakedLaunch baked = advec.bake_launch(args);
    result.metric("core.eval_problem_size_ns", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Core, "eval_problem_size", [&] { keep(def.eval_problem_size(args)); });
    })), "ns");
    result.metric("core.eval_geometry_ns", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Core, "eval_geometry", [&] { keep(def.eval_geometry(baked.config, args)); });
    })), "ns");
    result.metric("core.bake_launch_ns", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Core, "bake_launch", [&] { keep(advec.bake_launch(args)); });
    })), "ns");
    const double eager_ns = median(sample(2 * slice, 200, 400000, [&] {
        return timed(Layer::Core, "launch_args", [&] { advec.launch_args(args); });
    }));
    result.metric("core.eager_launch_ns", eager_ns, "ns");

    // --- cudasim: the simulated driver on the baked image and geometry ---
    std::vector<void*> slots;
    for (const kl::core::KernelArg& arg : args) {
        slots.push_back(const_cast<void*>(arg.slot()));
    }
    const kl::core::KernelDef::Geometry& g = baked.geometry;
    const double launch_ns = median(sample(2 * slice, 200, 400000, [&] {
        return timed(Layer::Cudasim, "launch", [&] {
            context.launch(*baked.image, g.grid, g.block, g.shared_mem_bytes,
                           context.default_stream(), slots.data(), slots.size());
        });
    }));
    result.metric("cudasim.launch_ns", launch_ns, "ns");
    result.metric("core.library_ns", eager_ns - launch_ns, "ns");
    result.metric("cudasim.validate_geometry_ns", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Cudasim, "validate_launch_geometry", [&] {
            kl::sim::validate_launch_geometry(context.device(), *baked.image, g.grid, g.block,
                                              g.shared_mem_bytes);
        });
    })), "ns");
    result.metric("cudasim.perf_model_ns", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Cudasim, "estimate", [&] {
            keep(context.perf_model().estimate(context.device(), *baked.image, g.grid, g.block,
                                               g.shared_mem_bytes));
        });
    })), "ns");

    // --- analysis ---
    result.metric("analysis.lint_launch_args_ns", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Analysis, "lint_launch_args", [&] {
            keep(kl::analysis::lint_launch_args(def, args));
        });
    })), "ns");
    const kl::core::WisdomSettings settings = kl::core::WisdomSettings().wisdom_dir(in.wisdom_dir);
    const double lint_registration_us = median(sample(slice, 6, 40, [&] {
        return timed(Layer::Analysis, "lint_registration", [&] {
            keep(kl::analysis::lint_registration(def, settings));
        });
    })) / 1e3;
    result.metric("analysis.lint_registration_us", lint_registration_us, "us");
    result.metric("analysis.lint_registration_share",
                  in.unit_us > 0 ? in.kernels_per_unit * lint_registration_us / in.unit_us : 0.0,
                  "ratio");
    result.metric("core.register_us", median(sample(slice, 6, 40, [&] {
        return timed(Layer::Core, "register", [&] { kl::core::WisdomKernel kernel(def, settings); });
    })) / 1e3, "us");

    // --- core: wisdom ---
    const std::string wisdom_path = settings.wisdom_path(def.key());
    result.metric("core.wisdom_load_us", median(sample(slice, 20, 20000, [&] {
        return timed(Layer::Core, "wisdom_load", [&] {
            keep(kl::core::WisdomFile::load(wisdom_path, def.key()));
        });
    })) / 1e3, "us");
    const kl::core::WisdomFile wisdom = kl::core::WisdomFile::load(wisdom_path, def.key());
    result.metric("core.wisdom_select_us", median(sample(slice, 20, 200000, [&] {
        return timed(Layer::Core, "wisdom_select", [&] {
            keep(wisdom.select(context.device().name, context.device().architecture, problem));
        });
    })) / 1e3, "us");
    const uint64_t launches = in.stats.warm_hits + in.stats.cold_launches + in.stats.launch_waits;
    result.metric("core.warm_hit_ratio", ratio(in.stats.warm_hits, launches - in.stats.warm_hits), "ratio");

    // --- nvrtcsim ---
    const kl::core::KernelCompiler::Lowered lowered =
        kl::core::KernelCompiler::lower(def, baked.config, context.device(), &problem);
    kl::core::KernelCompiler::Output compiled;
    result.metric("nvrtcsim.compile_host_us", median(sample(slice, 6, 2000, [&] {
        return timed(Layer::Nvrtcsim, "compile_lowered", [&] {
            compiled = kl::core::KernelCompiler::compile_lowered(def, lowered);
        });
    })) / 1e3, "us");
    result.metric("nvrtcsim.compile_model_ms", compiled.compile_seconds * 1e3, "ms");
    // Every build counts as started; disk and daemon hits skip nvrtc.
    result.metric("nvrtcsim.compiles",
                  static_cast<double>(in.stats.compiles_started - in.stats.disk_hits - in.stats.net_hits),
                  "count");

    // --- rtccache ---
    kl::rtccache::Settings cache_settings;
    cache_settings.mode = kl::rtccache::Mode::ReadWrite;
    cache_settings.dir = options.work_dir + "/probe-cache";
    fresh_dir(cache_settings.dir);
    const kl::rtccache::DiskCache cache(cache_settings);
    const kl::rtccache::CacheKey key {
        def.name, context.device().architecture, lowered.source, lowered.options, lowered.name_expression};
    result.metric("rtccache.store_us", median(sample(slice, 6, 2000, [&] {
        return timed(Layer::Rtccache, "store", [&] {
            cache.store(key, compiled.image, compiled.log, compiled.compile_seconds);
        });
    })) / 1e3, "us");
    bool loads_ok = true;
    result.metric("rtccache.load_us", median(sample(slice, 6, 2000, [&] {
        return timed(Layer::Rtccache, "load", [&] { loads_ok = loads_ok && cache.load(key).has_value(); });
    })) / 1e3, "us");
    result.check(loads_ok, "rtccache probe: a stored entry did not load");
    const std::string entry_text =
        kl::rtccache::encode_entry(key, compiled.image, compiled.log, compiled.compile_seconds);
    result.metric("rtccache.validate_us", median(sample(slice, 6, 20000, [&] {
        return timed(Layer::Rtccache, "validate_entry_text", [&] {
            keep(kl::rtccache::validate_entry_text(entry_text));
        });
    })) / 1e3, "us");
    result.metric("rtccache.hit_ratio", ratio(in.stats.disk_hits, in.stats.disk_misses), "ratio");

    // --- netwisdom: a daemon on loopback, one client ---
    {
        kl::netwisdom::Server server {kl::netwisdom::ServerOptions {}};
        server.start();
        for (const kl::core::WisdomRecord& record : wisdom.records()) {
            server.wisdom().put(def.key(), record.to_json());
        }
        kl::netwisdom::Settings net;
        net.server = "127.0.0.1:" + std::to_string(server.port());
        kl::netwisdom::Client client(net);
        bool net_ok = client.ping();
        result.metric("netwisdom.artifact_put_us", median(sample(slice, 20, 20000, [&] {
            return timed(Layer::Netwisdom, "artifact_put", [&] {
                net_ok = client.artifact_put(key.id(), entry_text) && net_ok;
            });
        })) / 1e3, "us");
        const std::vector<double> get_ns = sample(2 * slice, 100, 20000, [&] {
            return timed(Layer::Netwisdom, "artifact_get", [&] {
                net_ok = client.artifact_get(key.id()).has_value() && net_ok;
            });
        });
        result.metric("netwisdom.artifact_get_us", median(get_ns) / 1e3, "us");
        result.metric("netwisdom.artifact_get_us_p99", quantile(get_ns, 0.99) / 1e3, "us");
        const kl::json::Value problem_json = problem.to_json();
        result.metric("netwisdom.wisdom_get_us", median(sample(slice, 20, 20000, [&] {
            return timed(Layer::Netwisdom, "wisdom_get", [&] {
                net_ok = client.wisdom_get(def.key(), context.device().name,
                                           context.device().architecture, problem_json)
                             .has_value()
                    && net_ok;
            });
        })) / 1e3, "us");
        result.check(net_ok, "netwisdom probe: a request to a live daemon failed");
        client.reset();
        server.stop();
    }
    result.metric("netwisdom.hit_ratio", ratio(in.stats.net_hits, in.stats.net_misses), "ratio");
    result.metric("netwisdom.failures", static_cast<double>(in.net_failures), "count");

    // Fail-open cost: process starts against a dead daemon versus none,
    // in alternating pairs, compile tier each time.
    {
        uint16_t dead_port = 0;
        {
            kl::netwisdom::Server probe {kl::netwisdom::ServerOptions {}};
            probe.start();
            dead_port = probe.port();
            probe.stop();
        }
        const kl::core::WisdomSettings none = kl::core::WisdomSettings().wisdom_dir(in.wisdom_dir);
        kl::core::WisdomSettings dead = none;
        dead.net_server("127.0.0.1:" + std::to_string(dead_port));
        const std::vector<StartLaunch> start = {{0, in.advec_args}, {1, in.diff_args}};
        std::vector<double> overhead_pct;
        for (int pair = 0; pair < 7; pair++) {
            const double t_none = process_start(none, start, nullptr, nullptr, nullptr, nullptr);
            const double t_dead = process_start(dead, start, nullptr, nullptr, nullptr, nullptr);
            overhead_pct.push_back((t_dead - t_none) / t_none * 100);
        }
        Blocks {overhead_pct}.report(result, "netwisdom.failopen_overhead_pct", "%");
    }

    // --- graph ---
    kl::core::WisdomKernel& diff = *in.diff;
    const LaunchArgs& a = *in.advec_args;
    const LaunchArgs& d = *in.diff_args;
    result.metric("graph.capture_us", median(sample(slice, 20, 20000, [&] {
        return timed(Layer::Graph, "capture", [&] { keep(record_timestep(advec, diff, a, d, *in.buffers)); });
    })) / 1e3, "us");
    const kl::graph::LaunchGraph recorded = record_timestep(advec, diff, a, d, *in.buffers);
    result.metric("graph.instantiate_us", median(sample(slice, 20, 20000, [&] {
        return timed(Layer::Graph, "instantiate", [&] { keep(recorded.instantiate()); });
    })) / 1e3, "us");
    // The analysis is memoized per recording: lint a fresh one each time.
    result.metric("analysis.lint_graph_us", median(sample(slice, 20, 20000, [&] {
        const kl::graph::LaunchGraph fresh = record_timestep(advec, diff, a, d, *in.buffers);
        return timed(Layer::Analysis, "lint_graph", [&] { keep(fresh.lint()); });
    })) / 1e3, "us");
    kl::graph::GraphExec exec = recorded.instantiate();
    result.metric("graph.replay_us", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Graph, "replay", [&] { exec.replay(); });
    })) / 1e3, "us");
    const float dxi = a.args[a.coefficient_index()].scalar_value<float>();
    result.metric("graph.update_scalar_ns", median(sample(slice, 200, 200000, [&] {
        return timed(Layer::Graph, "update_scalar", [&] {
            exec.update_scalar(kAdvecNode, a.coefficient_index(), dxi);
        });
    })), "ns");

    // Replay versus eager, and both under KERNEL_LAUNCHER_TRACE=counters,
    // in alternating blocks; one span per block, so that the span cost
    // stays out of these rates.
    auto eager_block = [&] {
        Span span(Layer::Core, "launch_args_block");
        std::vector<double> ns;
        const double deadline = now_seconds() + slice / 2;
        while (now_seconds() < deadline) {
            const int64_t start = now_ns();
            advec.launch_args(args);
            ns.push_back(static_cast<double>(now_ns() - start));
        }
        return ns;
    };
    auto replay_rate = [&] {
        Span span(Layer::Graph, "replay_block");
        uint64_t replays = 0;
        const double start = now_seconds();
        const double deadline = start + slice / 2;
        while (now_seconds() < deadline) {
            for (int i = 0; i < 16; i++) {
                exec.replay();
            }
            replays += 16;
        }
        return static_cast<double>(replays * kNodes) / (now_seconds() - start);
    };
    auto set_trace_mode = [](kl::trace::Mode mode) {
        Span span(Layer::Trace, "set_mode");
        kl::trace::set_mode(mode);
    };
    Blocks replay_over_eager;
    Blocks counters_eager;
    Blocks counters_replay;
    for (int block = 0; block < 5; block++) {
        const double eager = median(eager_block());
        replay_over_eager.values.push_back(replay_rate() * eager / 1e9);
        set_trace_mode(kl::trace::Mode::Counters);
        const std::vector<double> counted = eager_block();
        counters_eager.values.push_back(median(counted));
        counters_replay.values.push_back(replay_rate());
        uint64_t launches_counted = 0;
        {
            Span span(Layer::Trace, "counters_snapshot");
            launches_counted = kl::trace::counters_snapshot()["kl.launches"];
        }
        set_trace_mode(kl::trace::Mode::Off);
        {
            Span span(Layer::Trace, "clear");
            kl::trace::clear();
        }
        result.check(launches_counted == counted.size(),
                     "kl.launches counted " + std::to_string(launches_counted) + " of "
                         + std::to_string(counted.size()) + " eager launches");
    }
    replay_over_eager.report(result, "graph.replay_over_eager", "ratio");
    counters_eager.report(result, "trace.counters_eager_launch_ns", "ns");
    counters_replay.report(result, "trace.counters_replay_nodes_per_s", "1/s");

    // Stale replay: clear_cache drops the instances, so the next replay
    // rebakes and recompiles.
    result.metric("graph.stale_replay_us", median(sample(slice, 6, 200, [&] {
        advec.clear_cache();
        diff.clear_cache();
        return timed(Layer::Graph, "stale_replay", [&] { exec.replay(); });
    })) / 1e3, "us");

    result.metric("tuner.evals_per_s", in.tune_evals_per_s, "1/s");
}

void report_spans(const Options& options, Result& result) {
    const spans::LayerTotals totals = spans::layer_totals();
    for (int i = 0; i < static_cast<int>(Layer::Count); i++) {
        result.metric(std::string(layer_name(static_cast<Layer>(i))) + ".self_ms",
                      static_cast<double>(totals.self_ns[i]) / 1e6, "ms");
    }
    result.metric("trace.spans_recorded", static_cast<double>(spans::recorded()), "count");
    result.metric("trace.spans_dropped", static_cast<double>(spans::dropped()), "count");
    spans::write_chrome_trace(options.work_dir + "/trace.json");
}

}  // namespace perfbench
