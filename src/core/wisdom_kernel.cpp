#include "core/wisdom_kernel.hpp"

#include <condition_variable>
#include <mutex>

#include "analysis/lint.hpp"
#include "nvrtcsim/registry.hpp"
#include "rtccache/rtccache.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/thread_pool.hpp"

namespace kl::core {

namespace {

/// Modeled time to read and match a wisdom file: a filesystem round-trip
/// plus parse cost proportional to the file size.
double wisdom_read_seconds(const std::string& path) {
    double seconds = 18.0e-3;
    if (file_exists(path)) {
        seconds += static_cast<double>(file_size(path)) / 150e6;
    }
    return seconds;
}

/// §4.5 selection from the kernel's local wisdom file: the best-matching
/// record's configuration, or the search space's default when none does.
std::pair<Config, WisdomMatch> select_from_wisdom(
    const KernelDef& def,
    const std::string& wisdom_path,
    const sim::DeviceProperties& device,
    const ProblemSize& problem) {
    WisdomFile wisdom = WisdomFile::load(wisdom_path, def.key());
    WisdomFile::Selection selection =
        wisdom.select(device.name, device.architecture, problem);
    return {
        selection.record != nullptr ? selection.record->config : def.space.default_config(),
        selection.match};
}

/// KL004: checks launch arguments against the parsed kernel signature,
/// enforced in the kernel's lint mode (which must not be Off).
void lint_args(const KernelDef& def, LintMode mode, const std::vector<KernelArg>& args) {
    if (trace::counters_enabled()) {
        trace::counter("lint.runs").add(1);
    }
    trace::HostSpan span("lint", "lint.launch_args", {{"kernel", def.name}});
    analysis::enforce(analysis::lint_launch_args(def, args), mode, def.name);
}

}  // namespace

/// Result of one build attempt, produced without touching any context
/// clock so that it can run on a worker thread.
struct WisdomKernel::BuildOutcome {
    Config config;
    WisdomMatch match = WisdomMatch::None;
    std::shared_ptr<sim::Module> module;
    OverheadBreakdown cost;    ///< wisdom + cache + net + compile + load components
    std::exception_ptr error;  ///< set when the build failed
};

/// One (device, problem size) instance. `state` transitions only under
/// SharedState::mutex; every other field is written exactly once, before
/// the transition out of Compiling, and is immutable afterwards — readers
/// that observed Ready/Failed under the mutex (or after cv notification)
/// may use them without further locking.
struct WisdomKernel::Instance {
    InstanceState state = InstanceState::Compiling;
    bool background = false;  ///< built by the worker pool, off the caller's clock
    BuildOutcome built;
    double ready_time = 0;  ///< virtual-clock time the modeled build completes
};

struct WisdomKernel::SharedState {
    std::mutex mutex;
    std::condition_variable cv;
    std::map<Key, std::shared_ptr<Instance>> instances;
    std::map<Key, bool> captured;
    Stats stats;
    /// Bumped by clear_cache(); read lock-free by graph replay to detect
    /// stale baked instances (see BakedLaunch::epoch).
    std::atomic<uint64_t> epoch {0};

    /// The one canonical metrics surface of the compile/launch pipeline:
    /// every counter is bumped through these helpers, which update the
    /// per-kernel Stats and the process-wide trace counter registry (the
    /// aggregate "kl.*" counters) together, so stats() and
    /// trace::counters_snapshot() can never disagree about what happened.
    /// Callers must hold `mutex`.
    void note(uint64_t Stats::*field, const char* counter) {
        ++(stats.*field);
        bump(counter);
    }
    void note_compile_started() {
        stats.compiles_started++;
        stats.compiles_in_flight++;
        bump("kl.compiles_started");
    }
    void note_compile_finished(bool failed) {
        stats.compiles_in_flight--;
        if (failed) {
            stats.compiles_failed++;
            bump("kl.compiles_failed");
        }
    }

    static void bump(const char* name) {
        if (trace::counters_enabled()) {
            trace::counter(name).add(1);
        }
    }
    OverheadBreakdown last_overhead;
    OverheadBreakdown last_cold_overhead;
    WisdomMatch last_match = WisdomMatch::None;
    bool last_cold = false;
    /// Launch arguments are checked against the parsed kernel signature
    /// once, on the first launch that passes the check (so an Error-mode
    /// rejection keeps rejecting).
    bool args_linted = false;
};

WisdomKernel::WisdomKernel(KernelDef def, WisdomSettings settings):
    def_(std::move(def)),
    settings_(std::move(settings)),
    state_(std::make_shared<SharedState>()) {
    // The trace recorder must be constructed before the compile pool is
    // first touched (compile_ahead), so background jobs can record safely
    // during process teardown.
    trace::ensure_initialized();

    // Resolve the shared network transport once (nullptr when no wisdom
    // server is configured); all kernels pointed at the same server share
    // one connection and one circuit breaker.
    net_ = netwisdom::client_for(settings_.net_settings());

    // Registration-time static analysis (kl-lint). In the default Warn
    // mode findings go to stderr and registration proceeds; under
    // KERNEL_LAUNCHER_LINT=error a defective definition fails here, at
    // the registration site, instead of at the first launch.
    if (settings_.lint_mode() != LintMode::Off) {
        if (trace::counters_enabled()) {
            trace::counter("lint.runs").add(1);
        }
        trace::HostSpan span("lint", "lint.registration", {{"kernel", def_.name}});
        analysis::enforce(
            analysis::lint_registration(def_, settings_),
            settings_.lint_mode(),
            def_.name);
    }
}

WisdomKernel::WisdomKernel(const KernelBuilder& builder, WisdomSettings settings):
    WisdomKernel(builder.build(), std::move(settings)) {}

Config WisdomKernel::select_config(const ProblemSize& problem) const {
    return select_from_wisdom(
               def_,
               settings_.wisdom_path(def_.key()),
               sim::Context::current().device(),
               problem)
        .first;
}

WisdomKernel::BuildOutcome WisdomKernel::build_instance(
    const KernelDef& def,
    const std::string& wisdom_path,
    const rtccache::Settings& cache_settings,
    const std::shared_ptr<netwisdom::Client>& net,
    const sim::DeviceProperties& device,
    const ProblemSize& problem,
    double sim_start,
    SharedState& state) {
    BuildOutcome out;
    bool disk_hit = false;
    bool net_hit = false;
    // Decoding a cached or served entry resolves the kernel's host impl
    // from the registry; in a fresh process the builtins are otherwise
    // only registered by the first *compile*, which a warm start skips.
    rtc::register_builtin_kernels();
    try {
        // 1. Read the wisdom file and select a configuration (§4.5).
        out.cost.wisdom_seconds = wisdom_read_seconds(wisdom_path);
        std::tie(out.config, out.match) =
            select_from_wisdom(def, wisdom_path, device, problem);

        // 1b. Network wisdom tier: when a server is configured and the
        // local file did not match exactly, ask the fleet aggregate for a
        // better answer. The server runs the same §4.5 heuristic over
        // every uploaded tuning session, so its match rank is directly
        // comparable; local wins ties. One modeled round trip is charged;
        // a transport failure silently keeps the local selection.
        if (net != nullptr && out.match != WisdomMatch::Exact) {
            out.cost.net_seconds += netwisdom::net_read_seconds(0);
            std::optional<netwisdom::WisdomAnswer> answer = net->wisdom_get(
                def.key(), device.name, device.architecture, problem.to_json());
            if (answer.has_value()) {
                try {
                    const WisdomMatch remote = wisdom_match_from_name(answer->match);
                    if (remote < out.match) {
                        out.config = Config::from_json(answer->config);
                        out.match = remote;
                    }
                } catch (const Error&) {
                    // Malformed remote config: keep the local selection.
                }
            }
        }

        // 2. Lower the compile request and probe the persistent cache: the
        // content hash of the lowered request (source + options +
        // instantiation + arch) names the on-disk entry, see docs/CACHING.md.
        KernelCompiler::Lowered lowered =
            KernelCompiler::lower(def, out.config, device, &problem);
        rtccache::DiskCache cache(cache_settings);
        rtccache::CacheKey cache_key;
        const bool keyed = cache.readable() || net != nullptr;
        if (keyed) {
            cache_key = rtccache::CacheKey {
                def.name,
                device.architecture,
                lowered.source,
                lowered.options,
                lowered.name_expression};
        }
        std::optional<rtccache::CachedResult> hit;
        if (cache.readable()) {
            hit = cache.load(cache_key);
            std::lock_guard<std::mutex> lock(state.mutex);
            if (hit.has_value()) {
                state.note(&Stats::disk_hits, "kl.cache.disk.hit");
            } else {
                state.note(&Stats::disk_misses, "kl.cache.disk.miss");
            }
        }

        // 2b. Network artifact tier: on a local miss, ask the server for
        // the compiled entry by content hash. A served entry is decoded by
        // the same codec as a disk entry (corrupt bytes count as a miss,
        // never an error), charged at the modeled transfer cost, and
        // written through to the local disk cache for the next process.
        if (!hit.has_value() && net != nullptr) {
            std::optional<std::string> entry_text = net->artifact_get(cache_key.id());
            if (entry_text.has_value()) {
                rtccache::CachedResult fetched;
                if (rtccache::decode_entry(*entry_text, cache_key, fetched)
                    == rtccache::EntryDecode::Ok) {
                    out.cost.net_seconds += netwisdom::net_read_seconds(entry_text->size());
                    hit = std::move(fetched);
                    cache.store_text(cache_key, *entry_text);
                }
            }
            std::lock_guard<std::mutex> lock(state.mutex);
            if (hit.has_value()) {
                net_hit = true;
                state.note(&Stats::net_hits, "kl.net.hit");
            } else {
                state.note(&Stats::net_misses, "kl.net.miss");
            }
        }

        // 3. On a hit, reconstruct the image from the entry and charge the
        // modeled entry-read cost; on a miss, run the (simulated) NVRTC and
        // persist the result when the cache is writable — and push it to
        // the server so the rest of the fleet never compiles it again.
        sim::KernelImage image;
        if (hit.has_value()) {
            disk_hit = !net_hit;
            if (disk_hit) {
                out.cost.cache_seconds = rtccache::disk_read_seconds(hit->entry_bytes);
            }
            image = std::move(hit->image);
        } else {
            KernelCompiler::Output compiled = KernelCompiler::compile_lowered(def, lowered);
            out.cost.compile_seconds = compiled.compile_seconds;
            if (cache.writable()) {
                cache.store(cache_key, compiled.image, compiled.log, compiled.compile_seconds);
            }
            if (net != nullptr) {
                const std::string entry_text = rtccache::encode_entry(
                    cache_key, compiled.image, compiled.log, compiled.compile_seconds);
                if (net->artifact_put(cache_key.id(), entry_text)) {
                    SharedState::bump("kl.net.artifact.push");
                }
            }
            image = std::move(compiled.image);
        }

        // 4. Stage the compiled image as a loaded module. The modeled
        // cuModuleLoad latency is recorded but charged by the caller (or
        // folded into ready_time for background builds).
        out.cost.module_load_seconds = sim::Module::load_seconds(image.ptx.size());
        std::vector<sim::KernelImage> images;
        images.push_back(std::move(image));
        out.module = std::make_shared<sim::Module>(std::move(images));
    } catch (...) {
        out.error = std::current_exception();
    }

    // The Fig. 5 breakdown as Sim-domain spans, laid out back-to-back from
    // `sim_start` (the virtual-clock time the build was charged from: the
    // caller's clock for synchronous builds, the submit time for background
    // ones). Emitting here, on whatever thread ran the build, is what puts
    // async compile spans on the worker's own track.
    if (trace::spans_enabled()) {
        trace::Args common {
            {"kernel", def.name},
            {"problem", problem.to_string()},
            {"device", device.name}};
        double t = sim_start;
        trace::emit_complete(
            trace::Domain::Sim, "compile", "wisdom.read", t, out.cost.wisdom_seconds, common);
        t += out.cost.wisdom_seconds;
        if (out.error == nullptr) {
            // The tier that produced the image stands between wisdom.read
            // and module.load. A disk hit's modeled entry read, or a
            // network fetch, replaces nvrtc.compile entirely: its absence
            // from a trace is how warm starts are verified
            // (docs/CACHING.md, docs/DISTRIBUTED.md).
            const char* category = disk_hit ? "cache" : net_hit ? "net" : "compile";
            const char* name =
                disk_hit ? "cache.disk.read" : net_hit ? "net.fetch" : "nvrtc.compile";
            const double seconds = disk_hit ? out.cost.cache_seconds
                : net_hit                   ? out.cost.net_seconds
                                            : out.cost.compile_seconds;
            trace::Args compile_args = common;
            compile_args.emplace_back("config", out.config.to_json().dump());
            trace::emit_complete(
                trace::Domain::Sim, category, name, t, seconds, std::move(compile_args));
            t += seconds;
            trace::emit_complete(
                trace::Domain::Sim,
                "compile",
                "module.load",
                t,
                out.cost.module_load_seconds,
                common);
        } else {
            trace::emit_instant(trace::Domain::Sim, "compile", "compile.error", t, common);
        }
    }
    return out;
}

void WisdomKernel::publish(
    SharedState& state,
    Instance& instance,
    BuildOutcome&& outcome,
    double ready_time) {
    std::lock_guard<std::mutex> lock(state.mutex);
    const bool failed = outcome.error != nullptr;
    instance.built = std::move(outcome);
    instance.ready_time = ready_time;
    instance.state = failed ? InstanceState::Failed : InstanceState::Ready;
    state.note_compile_finished(failed);
    state.cv.notify_all();
}

OverheadBreakdown WisdomKernel::build_in_caller(
    Instance& instance,
    const ProblemSize& problem,
    sim::Context& context) {
    BuildOutcome outcome = build_instance(
        def_,
        settings_.wisdom_path(def_.key()),
        settings_.cache_settings(),
        net_,
        context.device(),
        problem,
        context.clock().now(),
        *state_);
    OverheadBreakdown charged;
    if (outcome.error == nullptr) {
        charged = outcome.cost;
    } else {
        charged.wisdom_seconds = outcome.cost.wisdom_seconds;
    }
    charged.charge_build(context.clock());
    publish(*state_, instance, std::move(outcome), context.clock().now());
    return charged;
}

void WisdomKernel::compile_ahead(const ProblemSize& problem) {
    sim::Context& context = sim::Context::current();
    Key key {context.device().name, problem};

    std::shared_ptr<Instance> instance;
    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        if (state_->instances.count(key) != 0) {
            return;  // already compiling, ready or failed
        }
        instance = std::make_shared<Instance>();
        instance->background = settings_.async_compile();
        state_->instances.emplace(std::move(key), instance);
        state_->note_compile_started();
    }

    if (!instance->background) {
        // Eager synchronous prefetch: charged exactly like a synchronous
        // cold launch (minus the launch itself); a failure is deferred to
        // the next launch.
        build_in_caller(*instance, problem, context);
        return;
    }

    // Force the registries the job will touch into existence before the
    // pool (see util::compile_pool ordering contract).
    rtc::register_builtin_kernels();

    // The job is self-contained: it references the shared state block and
    // value copies, never the kernel or the context, so the kernel may be
    // destroyed (and the context torn down) while the job is in flight.
    if (trace::counters_enabled()) {
        trace::counter("pool.jobs_submitted").add(1);
    }
    const double submit_time = context.clock().now();
    const double submit_host = trace::host_now_seconds();
    util::compile_pool().submit(
        [state = state_,
         instance,
         def = def_,
         wisdom_path = settings_.wisdom_path(def_.key()),
         cache_settings = settings_.cache_settings(),
         net = net_,
         device = context.device(),
         problem,
         submit_time,
         submit_host] {
            if (trace::spans_enabled()) {
                if (int worker = util::ThreadPool::current_worker_index(); worker >= 0) {
                    trace::set_thread_name("compile-worker-" + std::to_string(worker));
                }
                // Real time the job sat in the pool queue before a worker
                // picked it up, as opposed to the modeled compile time.
                trace::emit_complete(
                    trace::Domain::Host,
                    "compile",
                    "compile.queue_wait",
                    submit_host,
                    trace::host_now_seconds() - submit_host,
                    {{"kernel", def.name}});
            }
            BuildOutcome outcome = [&] {
                trace::HostSpan span("compile", "compile.execute", {{"kernel", def.name}});
                return build_instance(
                    def, wisdom_path, cache_settings, net, device, problem, submit_time,
                    *state);
            }();
            sim::SimClock ready(submit_time);
            outcome.cost.charge_build(ready);
            publish(*state, *instance, std::move(outcome), ready.now());
        });
}

bool WisdomKernel::wait_ready(const ProblemSize& problem) {
    sim::Context& context = sim::Context::current();
    Key key {context.device().name, problem};

    std::shared_ptr<Instance> instance;
    {
        std::unique_lock<std::mutex> lock(state_->mutex);
        auto it = state_->instances.find(key);
        if (it == state_->instances.end()) {
            return false;
        }
        instance = it->second;
        state_->cv.wait(lock, [&] { return instance->state != InstanceState::Compiling; });
    }
    if (instance->state != InstanceState::Ready) {
        return false;
    }
    // Joining a background build means the caller sat out the remainder of
    // the modeled build time.
    if (instance->background) {
        context.clock().advance_to(instance->ready_time);
    }
    return true;
}

WisdomKernel::InstanceState WisdomKernel::instance_state(const ProblemSize& problem) const {
    Key key {sim::Context::current().device().name, problem};
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->instances.find(key);
    return it == state_->instances.end() ? InstanceState::Uncompiled : it->second->state;
}

WisdomKernel::Stats WisdomKernel::stats() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->stats;
}

bool WisdomKernel::last_launch_was_cold() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->last_cold;
}

OverheadBreakdown WisdomKernel::last_cold_overhead() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->last_cold_overhead;
}

OverheadBreakdown WisdomKernel::last_launch_overhead() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->last_overhead;
}

WisdomMatch WisdomKernel::last_match() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->last_match;
}

std::optional<OverheadBreakdown> WisdomKernel::cached_build_overhead(
    const ProblemSize& problem) const {
    Key key {sim::Context::current().device().name, problem};
    std::lock_guard<std::mutex> lock(state_->mutex);
    auto it = state_->instances.find(key);
    if (it == state_->instances.end() || it->second->state == InstanceState::Compiling) {
        return std::nullopt;
    }
    return it->second->built.cost;
}

void WisdomKernel::clear_cache() {
    std::unique_lock<std::mutex> lock(state_->mutex);
    // Let in-flight builds land first: a concurrent launch that is mid-
    // compile keeps its own shared_ptr and finishes correctly, but the
    // cache must not be cleared out from under the state transition. This
    // is also what keeps the trace coherent: every span of an in-flight
    // build has been emitted by the time the wait returns, so a trace cut
    // after clear_cache() never contains a half-built instance.
    state_->cv.wait(lock, [this] { return state_->stats.compiles_in_flight == 0; });
    state_->instances.clear();
    state_->captured.clear();
    state_->epoch.fetch_add(1, std::memory_order_release);
    SharedState::bump("kl.cache_clears");
    if (trace::spans_enabled()) {
        if (sim::Context* context = sim::Context::current_or_null()) {
            trace::emit_instant(
                trace::Domain::Sim,
                "cache",
                "cache.clear",
                context->clock().now(),
                {{"kernel", def_.name}});
        }
    }
}

size_t WisdomKernel::cached_instance_count() const {
    std::lock_guard<std::mutex> lock(state_->mutex);
    return state_->instances.size();
}

uint64_t WisdomKernel::cache_epoch() const noexcept {
    return state_->epoch.load(std::memory_order_acquire);
}

struct WisdomKernel::Acquired {
    std::shared_ptr<Instance> instance;  ///< Ready
    /// What the caller's clock paid: the build when it built the instance
    /// (cold), the remaining build time when it joined a background build.
    OverheadBreakdown cost;
    bool cold = false;
};

WisdomKernel::Acquired WisdomKernel::acquire(
    const Key& key,
    sim::Context& context,
    bool launch) {
    Acquired out;
    const double lookup_time = context.clock().now();
    {
        std::unique_lock<std::mutex> lock(state_->mutex);
        auto it = state_->instances.find(key);
        if (it == state_->instances.end()) {
            out.instance = std::make_shared<Instance>();
            state_->instances.emplace(key, out.instance);
            state_->note_compile_started();
            if (launch) {
                state_->note(&Stats::cold_launches, "kl.cold_launches");
            }
            out.cold = true;
        } else {
            out.instance = it->second;
            const Instance& found = *out.instance;
            if (found.state == InstanceState::Compiling) {
                if (launch) {
                    state_->note(&Stats::launch_waits, "kl.launch_waits");
                }
                state_->cv.wait(
                    lock, [&] { return found.state != InstanceState::Compiling; });
            } else if (found.state == InstanceState::Ready && launch) {
                state_->note(&Stats::warm_hits, "kl.warm_hits");
            }
        }
    }
    if (launch && trace::spans_enabled()) {
        trace::emit_instant(
            trace::Domain::Sim,
            "cache",
            out.cold ? "cache.miss" : "cache.hit",
            lookup_time,
            {{"kernel", def_.name}, {"problem", key.problem.to_string()}});
    }

    // After the build or the wait the instance has left Compiling, and its
    // fields are immutable from here on.
    Instance& instance = *out.instance;
    if (out.cold) {
        // Synchronous build: the caller pays wisdom read, NVRTC and module
        // load on its own (virtual) time, as in Fig. 5.
        out.cost = build_in_caller(instance, key.problem, context);
    }
    if (instance.state == InstanceState::Failed) {
        // Deferred compile error: surfaces on first (and every) use.
        std::rethrow_exception(instance.built.error);
    }

    // A background build completes at its modeled ready_time; whatever the
    // caller did not overlap with its own work is charged as wait.
    if (!out.cold && instance.background) {
        const double now = context.clock().now();
        if (instance.ready_time > now) {
            out.cost.wait_seconds = instance.ready_time - now;
            context.clock().advance_to(instance.ready_time);
            if (launch && trace::spans_enabled()) {
                trace::emit_complete(
                    trace::Domain::Sim,
                    "launch",
                    "launch.wait",
                    now,
                    out.cost.wait_seconds,
                    {{"kernel", def_.name}});
            }
        }
    }
    return out;
}

WisdomKernel::BakedLaunch WisdomKernel::bake_launch(const std::vector<KernelArg>& args) {
    sim::Context& context = sim::Context::current();

    // Instantiation is rare (once per graph, plus invalidations), so the
    // KL004 argument check runs on every bake — unlike the launch path,
    // which amortizes it over all launches.
    if (settings_.lint_mode() != LintMode::Off) {
        lint_args(def_, settings_.lint_mode(), args);
    }

    BakedLaunch baked;
    baked.epoch = cache_epoch();

    const Acquired acquired =
        acquire(Key {context.device().name, def_.eval_problem_size(args)}, context, false);
    baked.config = acquired.instance->built.config;
    baked.module = acquired.instance->built.module;
    baked.image = &baked.module->get_function(def_.name);
    baked.geometry = def_.eval_geometry(baked.config, args);
    return baked;
}

void WisdomKernel::launch_args(const std::vector<KernelArg>& args, sim::Stream* stream) {
    sim::Context& context = sim::Context::current();
    if (stream == nullptr) {
        stream = &context.default_stream();
    }

    if (settings_.lint_mode() != LintMode::Off) {
        bool check;
        {
            std::lock_guard<std::mutex> lock(state_->mutex);
            check = !state_->args_linted;
        }
        if (check) {
            lint_args(def_, settings_.lint_mode(), args);
            std::lock_guard<std::mutex> lock(state_->mutex);
            state_->args_linted = true;
        }
    }

    const Key key {context.device().name, def_.eval_problem_size(args)};

    SharedState::bump("kl.launches");

    Acquired acquired = acquire(key, context, true);
    const BuildOutcome& built = acquired.instance->built;
    OverheadBreakdown& overhead = acquired.cost;

    // Capture hook (§4.2): export the launch once per problem size when the
    // kernel name matches a KERNEL_LAUNCHER_CAPTURE pattern.
    if (settings_.should_capture(def_.key()) || settings_.should_capture(def_.name)) {
        bool write = false;
        {
            std::lock_guard<std::mutex> lock(state_->mutex);
            bool& captured = state_->captured[key];
            if (!captured) {
                captured = true;
                write = true;
            }
        }
        if (write) {
            write_capture(settings_.capture_dir(), def_, args, key.problem, context);
        }
    }

    KernelDef::Geometry geom;
    std::vector<void*> slots;
    {
        // Argument marshalling runs on the host proper (expression
        // evaluation plus slot collection), so it is timed in real time.
        trace::HostSpan span(
            "launch",
            "args.marshal",
            {{"kernel", def_.name}, {"args", std::to_string(args.size())}});
        geom = def_.eval_geometry(built.config, args);
        slots = arg_slots(args);
    }

    double before_launch = context.clock().now();
    context.launch(
        built.module->get_function(def_.name),
        geom.grid,
        geom.block,
        geom.shared_mem_bytes,
        *stream,
        slots.data(),
        slots.size());
    overhead.launch_seconds = context.clock().now() - before_launch;
    if (trace::spans_enabled()) {
        trace::emit_complete(
            trace::Domain::Sim,
            "launch",
            "kernel.launch",
            before_launch,
            overhead.launch_seconds,
            {{"kernel", def_.name},
             {"grid", geom.grid.to_string()},
             {"block", geom.block.to_string()},
             {"config", built.config.to_json().dump()}});
    }

    {
        std::lock_guard<std::mutex> lock(state_->mutex);
        state_->last_cold = acquired.cold;
        state_->last_match = built.match;
        state_->last_overhead = overhead;
        if (acquired.cold) {
            state_->last_cold_overhead = overhead;
        }
    }
}

}  // namespace kl::core
