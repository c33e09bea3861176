// cold_start: why it exists and what it bypasses.
//
// Not in BENCHMARK.json: its host times (first launches dominated by
// compile-cache file writes and loopback daemon round trips) spread by
// 14-55% between runs on a shared 4-vCPU virtual machine, beyond any bound
// the benchmark may set. It stays runnable through run.py, and
// steady_timestep runs one round of it plus the Fig. 5 check as output
// checks (check_cold_start).
//
// A seeded series of simulated process starts against one in-process
// kl-wisdomd Server on loopback. Each start registers fresh WisdomKernels
// (advec_u and diff_uvw, float and double) and first-launches a seeded
// set of (kernel, precision, grid) instances. Per round, some instances
// hit the local disk cache, some are served by the daemon (read plus
// write-through to disk) and some were never seen (compile, disk write and
// push), so writes happen beside reads. It is the only workload in which
// nvrtcsim, rtccache, netwisdom, registration lint and wisdom selection
// do most of the work; the warm eager path and graph are bypassed.
#include <atomic>
#include <cmath>
#include <thread>

#include "netwisdom/client.hpp"
#include "netwisdom/server.hpp"
#include "rtccache/rtccache.hpp"
#include "spans.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using kl::microhh::Precision;

constexpr size_t kGrids = 4;
constexpr uint64_t kTuneEvals = 100;
/// Rounds repeat their seeded schedule with this period, so the modeled
/// cost of round r must equal that of round r + kPeriod exactly.
constexpr size_t kPeriod = 4;
/// Instances first-launched per start: half the universe.
constexpr size_t kPerStart = 8;

KernelKind kind_of(int kernel) {
    return kernel % 2 == 0 ? KernelKind::AdvecU : KernelKind::DiffUvw;
}
Precision precision_of(int kernel) {
    return kernel < 2 ? Precision::Float32 : Precision::Float64;
}

/// One (kernel, precision, grid) of the universe, with what the library
/// must produce for it: the wisdom-selected configuration, the compile
/// cache key, and the image of a fresh compile.
struct Instance {
    int kernel = 0;
    LaunchArgs args;
    kl::core::Config config;
    kl::rtccache::CacheKey key;
    kl::sim::KernelImage image;
    std::string entry_text;
};

struct ColdFixture {
    std::unique_ptr<kl::sim::Context> context;
    std::string dir;
    std::string wisdom_dir;
    std::vector<std::unique_ptr<GridBuffers>> buffers;
    std::vector<Instance> instances;
    /// Every wisdom record, for seeding each daemon's store.
    std::vector<std::pair<std::string, kl::json::Value>> records;
    uint64_t tune_evals = 0;
    double tune_seconds = 0;
};

std::unique_ptr<ColdFixture> create_fixture(const Options& options, Result& result) {
    auto fx = std::make_unique<ColdFixture>();
    fx->dir = options.work_dir + "/cold";
    fresh_dir(fx->dir);
    fx->wisdom_dir = fx->dir + "/wisdom";
    fx->context = kl::sim::Context::create(kDevice, kl::sim::ExecutionMode::TimingOnly);
    const std::vector<kl::microhh::Grid> grids = domain_grids(kGrids);

    std::vector<kl::core::KernelDef> defs;
    for (int k = 0; k < 4; k++) {
        Span span(Layer::Microhh, "make_builder");
        defs.push_back(make_def(kind_of(k), precision_of(k)));
    }
    for (int k = 0; k < 4; k++) {
        for (const kl::microhh::Grid& grid : grids) {
            fx->buffers.push_back(std::make_unique<GridBuffers>(
                *fx->context, grid, kl::microhh::precision_size(precision_of(k))));
            Instance instance;
            instance.kernel = k;
            instance.args = make_args(kind_of(k), precision_of(k), grid, *fx->buffers.back());
            fx->instances.push_back(std::move(instance));
        }
    }

    // Wisdom for all grids but the last, which selects the nearest record
    // (and asks the daemon for a better match).
    const double tune_start = now_seconds();
    for (Instance& instance : fx->instances) {
        if (instance.args.grid.itot == grids.back().itot && instance.args.grid.jtot == grids.back().jtot
            && instance.args.grid.ktot == grids.back().ktot) {
            continue;
        }
        Span span(Layer::Tuner, "tune_capture_to_wisdom");
        fx->tune_evals += tune_into(*fx->context, defs[static_cast<size_t>(instance.kernel)],
                                    instance.args, "random", kTuneEvals,
                                    1 + fx->tune_evals, fx->wisdom_dir);
    }
    fx->tune_seconds = now_seconds() - tune_start;
    for (const kl::core::KernelDef& def : defs) {
        const kl::core::WisdomFile wisdom = kl::core::WisdomFile::load(
            kl::core::WisdomSettings().wisdom_dir(fx->wisdom_dir).wisdom_path(def.key()), def.key());
        for (const kl::core::WisdomRecord& record : wisdom.records()) {
            fx->records.emplace_back(def.key(), record.to_json());
        }
    }

    // What each instance must run and produce, computed the way the
    // library's build path does: select, lower, key, compile.
    const kl::sim::DeviceProperties& device = fx->context->device();
    for (Instance& instance : fx->instances) {
        const kl::core::KernelDef& def = defs[static_cast<size_t>(instance.kernel)];
        const kl::core::ProblemSize problem = def.eval_problem_size(instance.args.args);
        instance.config = expected_config(def, fx->wisdom_dir, problem);
        const kl::core::KernelCompiler::Lowered lowered =
            kl::core::KernelCompiler::lower(def, instance.config, device, &problem);
        instance.key = kl::rtccache::CacheKey {
            def.name, device.architecture, lowered.source, lowered.options, lowered.name_expression};
        kl::core::KernelCompiler::Output compiled = [&] {
            Span span(Layer::Nvrtcsim, "compile_lowered");
            return kl::core::KernelCompiler::compile_lowered(def, lowered);
        }();
        instance.entry_text = kl::rtccache::encode_entry(
            instance.key, compiled.image, compiled.log, compiled.compile_seconds);
        instance.image = std::move(compiled.image);
    }
    result.check(!fx->records.empty(), "set-up tuning produced no wisdom");
    return fx;
}

/// A daemon on an ephemeral loopback port with every wisdom record.
/// Stopping one takes up to its 0.2 s poll interval, so a retired daemon
/// stops on a helper thread while the workload goes on; at most two are
/// stopping at a time, so memory does not grow with the run's length.
class Daemons {
  public:
    ~Daemons() {
        retire();
        while (!stopping_.empty()) {
            reap();
        }
    }

    kl::netwisdom::Server& start(const ColdFixture& fx) {
        retire();
        while (stopping_.size() > 2) {
            reap();
        }
        current_ = std::make_unique<kl::netwisdom::Server>(kl::netwisdom::ServerOptions {});
        current_->start();
        for (const auto& [kernel, record] : fx.records) {
            current_->wisdom().put(kernel, record);
        }
        return *current_;
    }

  private:
    struct Stopping {
        std::unique_ptr<kl::netwisdom::Server> server;
        std::thread stopper;
    };

    void retire() {
        if (current_ == nullptr) {
            return;
        }
        kl::netwisdom::Server* server = current_.get();
        stopping_.push_back(Stopping {std::move(current_), std::thread([server] { server->stop(); })});
    }

    void reap() {
        stopping_.front().stopper.join();
        stopping_.erase(stopping_.begin());
    }

    std::unique_ptr<kl::netwisdom::Server> current_;
    std::vector<Stopping> stopping_;
};

kl::core::WisdomSettings start_settings(
    const ColdFixture& fx,
    const std::string& cache_dir,
    const std::string& server) {
    kl::core::WisdomSettings settings = kl::core::WisdomSettings().wisdom_dir(fx.wisdom_dir);
    settings.cache_mode(kl::rtccache::Mode::ReadWrite).cache_dir(cache_dir);
    if (!server.empty()) {
        settings.net_server(server);
    }
    return settings;
}

std::vector<size_t> permutation(kl::Rng& rng, size_t n) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; i++) {
        order[i] = i;
    }
    for (size_t i = n - 1; i > 0; i--) {
        std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    return order;
}

enum class Tier { Disk, Daemon, Compile };

/// Per-round accumulators of the 1-thread phase.
struct ColdSamples {
    // Host times scaled by the round's reference slice (see
    // kReferenceNominalNs), and the same unscaled.
    std::vector<double> launch_us;
    std::vector<double> round_launch_us;  ///< mean first launch per round
    std::vector<double> start_us;
    std::vector<double> raw_launch_us;
    std::vector<double> raw_round_launch_us;
    std::vector<double> raw_start_us;
    std::vector<double> references;
    std::vector<double> round_model;  ///< modeled seconds per round
    std::vector<double> tier_model[3];
    std::vector<double> tier_host_us[3];
    kl::core::WisdomKernel::Stats stats;
    uint64_t net_failures = 0;
};

/// Checks a start's kernels after its launches: each instance ran the
/// configuration its wisdom selects.
void check_configs(
    const ColdFixture& fx,
    const std::vector<size_t>& launched,
    std::vector<std::unique_ptr<kl::core::WisdomKernel>>& kernels,
    Result& result) {
    for (size_t index : launched) {
        const Instance& instance = fx.instances[index];
        kl::core::WisdomKernel& kernel = *kernels[static_cast<size_t>(instance.kernel)];
        const bool ok = kernel.bake_launch(instance.args.args).config == instance.config;
        result.check(ok, std::string(kernel.def().key()) + " " + instance.args.grid.to_string()
                             + " ran a configuration its wisdom does not select");
    }
}

/// One round: a fresh daemon and disk cache, seeded pre-population (a
/// third of the universe on disk, a third on the daemon), then three
/// starts: two covering the universe once, one re-launching half of it
/// from what the first two wrote to disk.
void run_round(
    const ColdFixture& fx,
    Daemons& daemons,
    uint64_t seed,
    size_t round,
    ColdSamples& samples,
    Result& result) {
    kl::Rng rng(seed * 1000003 + round % kPeriod);
    kl::netwisdom::Server& server = daemons.start(fx);
    const std::string cache_dir = fx.dir + "/disk";
    fresh_dir(cache_dir);
    const kl::core::WisdomSettings settings =
        start_settings(fx, cache_dir, "127.0.0.1:" + std::to_string(server.port()));

    const size_t n = fx.instances.size();
    std::vector<bool> on_disk(n, false);
    std::vector<bool> on_daemon(n, false);
    const std::vector<size_t> pre = permutation(rng, n);
    const kl::rtccache::DiskCache disk(settings.cache_settings());
    for (size_t i = 0; i < n / 3; i++) {
        disk.store_text(fx.instances[pre[i]].key, fx.instances[pre[i]].entry_text);
        on_disk[pre[i]] = true;
        const Instance& remote = fx.instances[pre[n / 3 + i]];
        server.artifacts().put(remote.key.id(), remote.entry_text);
        on_daemon[pre[n / 3 + i]] = true;
    }

    const std::vector<size_t> order = permutation(rng, n);
    const std::vector<size_t> again = permutation(rng, n);
    std::vector<std::vector<size_t>> starts = {
        {order.begin(), order.begin() + kPerStart},
        {order.begin() + kPerStart, order.begin() + 2 * kPerStart},
        {again.begin(), again.begin() + kPerStart}};

    double round_model = 0;
    std::vector<double> round_start_us;
    std::vector<double> round_launch_us;
    for (const std::vector<size_t>& launched : starts) {
        std::vector<StartLaunch> launches;
        std::vector<Tier> tiers;
        size_t expect[3] = {0, 0, 0};
        for (size_t index : launched) {
            launches.push_back({fx.instances[index].kernel, &fx.instances[index].args});
            const Tier tier = on_disk[index] ? Tier::Disk
                : on_daemon[index]           ? Tier::Daemon
                                             : Tier::Compile;
            tiers.push_back(tier);
            expect[static_cast<int>(tier)]++;
            on_disk[index] = true;  // hits write through, compiles store
            on_daemon[index] = on_daemon[index] || tier == Tier::Compile;
        }

        std::vector<double> launch_seconds;
        std::vector<double> launch_model;
        kl::core::WisdomKernel::Stats stats;
        double host = 0;
        try {
            host = process_start(settings, launches, &launch_seconds, &stats, &launch_model,
                                 [&](std::vector<std::unique_ptr<kl::core::WisdomKernel>>& kernels) {
                                     check_configs(fx, launched, kernels, result);
                                 });
        } catch (const std::exception& e) {
            result.fail(std::string("process start: ") + e.what());
            continue;
        }
        result.attempted(launches.size());
        round_start_us.push_back(host * 1e6);
        for (size_t i = 0; i < launched.size(); i++) {
            round_launch_us.push_back(launch_seconds[i] * 1e6);
            samples.tier_model[static_cast<int>(tiers[i])].push_back(launch_model[i]);
            samples.tier_host_us[static_cast<int>(tiers[i])].push_back(launch_seconds[i] * 1e6);
            round_model += launch_model[i];
        }
        add_stats(samples.stats, stats);
        result.check(stats.disk_hits == expect[0] && stats.net_hits == expect[1]
                         && stats.net_misses == expect[2],
                     "cold start tiers differ from the seeded cache state (disk "
                         + std::to_string(stats.disk_hits) + "/" + std::to_string(expect[0])
                         + ", daemon " + std::to_string(stats.net_hits) + "/"
                         + std::to_string(expect[1]) + ", compile "
                         + std::to_string(stats.net_misses) + "/" + std::to_string(expect[2]) + ")");

        // Every disk or daemon hit decodes to the image of a fresh compile.
        for (size_t i = 0; i < launched.size(); i++) {
            if (tiers[i] == Tier::Compile) {
                continue;
            }
            const Instance& instance = fx.instances[launched[i]];
            std::optional<std::string> text;
            if (tiers[i] == Tier::Daemon) {
                text = server.artifacts().get(instance.key.id());
            } else {
                text = kl::read_text_file(disk.entry_path(instance.key));
            }
            kl::rtccache::CachedResult decoded;
            const bool ok = text.has_value()
                && kl::rtccache::decode_entry(*text, instance.key, decoded) == kl::rtccache::EntryDecode::Ok
                && same_image(decoded.image, instance.image);
            result.check(ok, "cached image of " + instance.key.id() + " differs from a fresh compile");
        }
    }
    samples.round_model.push_back(round_model);
    const double reference = reference_ns();
    const double factor = speed_factor(reference);
    samples.references.push_back(reference);
    for (double us : round_start_us) {
        samples.raw_start_us.push_back(us);
        samples.start_us.push_back(us / factor);
    }
    for (double us : round_launch_us) {
        samples.raw_launch_us.push_back(us);
        samples.launch_us.push_back(us / factor);
    }
    if (!round_launch_us.empty()) {
        samples.raw_round_launch_us.push_back(mean(round_launch_us));
        samples.round_launch_us.push_back(mean(round_launch_us) / factor);
    }
    const kl::netwisdom::ClientStats net =
        kl::netwisdom::client_for(settings.net_settings())->stats();
    samples.net_failures += net.errors + net.timeouts;
}

/// The Fig. 5 scenario (advec_u, 256^3, float, A100, Bayesian wisdom of
/// 200 evaluations): the compile tier and the disk tier of the first
/// launch must model 278.6 ms and 49.2 ms.
void check_fig5(const ColdFixture& fx, Result& result) {
    kl::sim::Context& context = *fx.context;
    const kl::microhh::Grid grid(256, 256, 256);
    GridBuffers buffers(context, grid, 4);
    const LaunchArgs args = make_args(KernelKind::AdvecU, Precision::Float32, grid, buffers);
    const kl::core::KernelDef def = make_def(KernelKind::AdvecU, Precision::Float32);
    const std::string wisdom_dir = fx.dir + "/fig5-wisdom";
    const std::string cache_dir = fx.dir + "/fig5-cache";
    fresh_dir(cache_dir);
    {
        Span span(Layer::Tuner, "tune_capture_to_wisdom");
        tune_into(context, def, args, "bayes", 200, 42, wisdom_dir);
    }
    kl::core::WisdomSettings settings = kl::core::WisdomSettings().wisdom_dir(wisdom_dir);
    settings.cache_mode(kl::rtccache::Mode::ReadWrite).cache_dir(cache_dir);
    double tier_ms[2] = {0, 0};
    for (double& ms : tier_ms) {
        kl::core::WisdomKernel kernel(def, settings);
        const double start = context.clock().now();
        kernel.launch_args(args.args);
        ms = (context.clock().now() - start) * 1e3;
    }
    result.metric("nvrtcsim.fig5_compile_tier_model_ms", tier_ms[0], "ms");
    result.metric("rtccache.fig5_disk_tier_model_ms", tier_ms[1], "ms");
    result.check(std::abs(tier_ms[0] - 278.6) < 0.05,
                 "Fig. 5 compile-tier first launch models " + std::to_string(tier_ms[0]) + " ms, not 278.6");
    result.check(std::abs(tier_ms[1] - 49.2) < 0.05,
                 "Fig. 5 disk-tier first launch models " + std::to_string(tier_ms[1]) + " ms, not 49.2");
}

/// Concurrent starts: `threads` machines (own disk caches) share one
/// daemon seeded like a round; returns first launches per second. Every
/// artifact left on the daemon must decode to a fresh compile's image.
double concurrent_window(
    const ColdFixture& fx,
    const Options& options,
    Daemons& daemons,
    size_t window,
    double budget,
    Result& result) {
    kl::netwisdom::Server& server = daemons.start(fx);
    const std::string server_name = "127.0.0.1:" + std::to_string(server.port());
    kl::Rng rng(options.seed * 7919 + window);
    const std::vector<size_t> pre = permutation(rng, fx.instances.size());
    for (size_t i = 0; i < fx.instances.size() / 3; i++) {
        server.artifacts().put(fx.instances[pre[i]].key.id(), fx.instances[pre[i]].entry_text);
    }
    std::atomic<uint64_t> launches {0};
    std::atomic<uint64_t> failures {0};
    const double deadline = now_seconds() + budget;
    const double elapsed = run_threads(options.threads, [&](int t) {
        kl::Rng thread_rng(options.seed * 31 + window * 7 + static_cast<uint64_t>(t));
        const std::string cache_dir = fx.dir + "/mt-" + std::to_string(t);
        fresh_dir(cache_dir);
        const kl::core::WisdomSettings settings = start_settings(fx, cache_dir, server_name);
        while (now_seconds() < deadline) {
            const std::vector<size_t> order = permutation(thread_rng, fx.instances.size());
            std::vector<StartLaunch> start;
            for (size_t i = 0; i < kPerStart; i++) {
                start.push_back({fx.instances[order[i]].kernel, &fx.instances[order[i]].args});
            }
            try {
                process_start(settings, start, nullptr, nullptr, nullptr, nullptr);
                launches += start.size();
            } catch (const std::exception&) {
                failures++;
            }
        }
    });
    result.attempted(launches.load() + failures.load());
    for (uint64_t f = 0; f < failures.load(); f++) {
        result.fail("concurrent process start threw");
    }
    for (const Instance& instance : fx.instances) {
        const std::optional<std::string> text = server.artifacts().get(instance.key.id());
        if (!text.has_value()) {
            continue;
        }
        kl::rtccache::CachedResult decoded;
        result.check(kl::rtccache::decode_entry(*text, instance.key, decoded)
                             == kl::rtccache::EntryDecode::Ok
                         && same_image(decoded.image, instance.image),
                     "daemon artifact " + instance.key.id() + " differs from a fresh compile");
    }
    return static_cast<double>(launches.load()) / elapsed;
}

void measure(
    const ColdFixture& fx,
    const Options& options,
    double budget_1t,
    double budget_mt,
    ColdSamples& samples,
    Result& result) {
    Daemons daemons;
    const double deadline = now_seconds() + budget_1t;
    for (size_t round = 0; round < kPeriod || now_seconds() < deadline; round++) {
        Span span(Layer::Bench, "round", round + 1);
        run_round(fx, daemons, options.seed, round, samples, result);
    }
    // Equal up to rounding: each delta is read off a virtual clock that
    // has advanced further for later rounds.
    for (size_t r = kPeriod; r < samples.round_model.size(); r++) {
        const double first = samples.round_model[r % kPeriod];
        if (std::abs(samples.round_model[r] - first) > 1e-9 * first) {
            result.check(false, "modeled cost of a repeated cold-start round changed");
        }
    }
    std::vector<double> rates;
    for (int window = 0; window < kWindowsMt; window++) {
        rates.push_back(concurrent_window(fx, options, daemons, static_cast<size_t>(window), budget_mt / kWindowsMt, result));
    }

    double model = 0;
    for (size_t r = 0; r < kPeriod; r++) {
        model += samples.round_model[r];
    }
    const double starts_per_round = 3;
    // Every round launches the same mix of tiers, so the per-round mean is
    // comparable across rounds where a pooled median would sit on the
    // boundary between two tiers. The tail is the pooled 90th percentile
    // (>= 100 samples beyond it).
    result.metric("call_ns", median(samples.round_launch_us) * 1e3, "ns");
    result.metric("call_ns_tail", quantile(samples.launch_us, 0.90) * 1e3, "ns");
    result.metric("call_samples", static_cast<double>(samples.launch_us.size()), "count");
    result.metric("calls_per_s_mt", median(rates), "1/s");
    result.metric("unit_us", median(samples.start_us), "us");
    result.metric("unit_samples", static_cast<double>(samples.start_us.size()), "count");
    result.metric("model_us", model / (kPeriod * starts_per_round) * 1e6, "us");
    result.metric("raw.call_ns", median(samples.raw_round_launch_us) * 1e3, "ns");
    result.metric("raw.call_ns_tail", quantile(samples.raw_launch_us, 0.90) * 1e3, "ns");
    result.metric("raw.unit_us", median(samples.raw_start_us), "us");
    result.metric("raw.reference_ns", median(samples.references), "ns");
    const char* tier_names[3] = {"disk", "daemon", "compile"};
    for (int t = 0; t < 3; t++) {
        result.metric(std::string("cold.first_launch_model_ms.") + tier_names[t],
                      mean(samples.tier_model[t]) * 1e3, "ms");
        result.metric(std::string("cold.first_launch_host_us.") + tier_names[t],
                      median(samples.tier_host_us[t]), "us");
        result.metric(std::string("cold.first_launch_host_us_p99.") + tier_names[t],
                      quantile(samples.tier_host_us[t], 0.99), "us");
    }
}

}  // namespace

double process_start(
    const kl::core::WisdomSettings& settings,
    const std::vector<StartLaunch>& launches,
    std::vector<double>* launch_seconds,
    kl::core::WisdomKernel::Stats* stats,
    std::vector<double>* launch_model,
    const std::function<void(std::vector<std::unique_ptr<kl::core::WisdomKernel>>&)>& inspect) {
    kl::sim::Context& context = kl::sim::Context::current();
    Span span(Layer::Bench, "process_start");
    const double start = now_seconds();
    std::vector<std::unique_ptr<kl::core::WisdomKernel>> kernels;
    for (int k = 0; k < 4; k++) {
        kl::core::KernelDef def = [&] {
            Span builder(Layer::Microhh, "make_builder");
            return make_def(kind_of(k), precision_of(k));
        }();
        Span reg(Layer::Core, "register");
        kernels.push_back(std::make_unique<kl::core::WisdomKernel>(std::move(def), settings));
    }
    for (const StartLaunch& launch : launches) {
        Span first(Layer::Core, "first_launch");
        const double model_start = context.clock().now();
        const double t = now_seconds();
        kernels[static_cast<size_t>(launch.kernel)]->launch_args(launch.args->args);
        if (launch_seconds != nullptr) {
            launch_seconds->push_back(now_seconds() - t);
        }
        if (launch_model != nullptr) {
            launch_model->push_back(context.clock().now() - model_start);
        }
    }
    const double host = now_seconds() - start;
    if (stats != nullptr) {
        for (const auto& kernel : kernels) {
            add_stats(*stats, kernel->stats());
        }
    }
    if (inspect) {
        inspect(kernels);
    }
    return host;
}

void check_cold_start(const Options& options, Result& result) {
    std::unique_ptr<ColdFixture> fx = create_fixture(options, result);
    Daemons daemons;
    ColdSamples samples;
    run_round(*fx, daemons, options.seed, 0, samples, result);
    check_fig5(*fx, result);
}

void run_cold_start(const Options& options, Result& result) {
    spans::set_enabled(options.trace);
    std::vector<double> setup_seconds;
    std::vector<double> raw_setup_seconds;
    std::unique_ptr<ColdFixture> fx;
    for (int r = 0; r < 5; r++) {
        fx.reset();
        const double start = now_seconds();
        fx = create_fixture(options, result);
        raw_setup_seconds.push_back(now_seconds() - start);
        setup_seconds.push_back(raw_setup_seconds.back() / speed_factor(reference_ns()));
    }
    result.metric("setup_s", median(setup_seconds), "s");
    result.metric("raw.setup_s", median(raw_setup_seconds), "s");
    spans::set_enabled(false);

    const double s = options.seconds;
    ColdSamples samples;
    if (!options.trace) {
        measure(*fx, options, 0.55 * s, 0.3 * s, samples, result);
    } else {
        Result untraced;
        ColdSamples untraced_samples;
        measure(*fx, options, 0.17 * s, 0.1 * s, untraced_samples, untraced);
        spans::set_enabled(true);
        measure(*fx, options, 0.17 * s, 0.1 * s, samples, result);
        result.metric("trace.span_overhead_call_ns",
                      result.value("call_ns") - untraced.value("call_ns"), "ns");
        result.metric("trace.span_overhead_unit_us",
                      result.value("unit_us") - untraced.value("unit_us"), "us");

        // The probe drives layers on the universe's first float instances
        // with kernels registered like a start's.
        const kl::core::WisdomSettings settings = start_settings(*fx, fx->dir + "/probe-disk", "");
        kl::core::WisdomKernel advec(make_def(KernelKind::AdvecU, Precision::Float32), settings);
        kl::core::WisdomKernel diff(make_def(KernelKind::DiffUvw, Precision::Float32), settings);
        const Instance* advec_instance = nullptr;
        const Instance* diff_instance = nullptr;
        for (const Instance& instance : fx->instances) {
            if (instance.kernel == 0 && advec_instance == nullptr) {
                advec_instance = &instance;
            }
            if (instance.kernel == 1 && diff_instance == nullptr) {
                diff_instance = &instance;
            }
        }
        ProbeInputs inputs;
        inputs.context = fx->context.get();
        inputs.advec = &advec;
        inputs.diff = &diff;
        inputs.advec_args = &advec_instance->args;
        inputs.diff_args = &diff_instance->args;
        inputs.buffers = fx->buffers[0].get();
        inputs.wisdom_dir = fx->wisdom_dir;
        inputs.tune_evals_per_s = static_cast<double>(fx->tune_evals) / fx->tune_seconds;
        inputs.stats = samples.stats;
        inputs.net_failures = samples.net_failures;
        inputs.unit_us = result.value("raw.unit_us");
        inputs.kernels_per_unit = 4;
        advec.launch_args(advec_instance->args.args);
        diff.launch_args(diff_instance->args.args);
        run_layer_probe(options, inputs, 0.3 * s, result);
        spans::set_enabled(false);
    }
    check_fig5(*fx, result);
    result.metric("peak_rss_mb", peak_rss_mb(), "MB");
}

}  // namespace perfbench
