#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "core/kernel_def.hpp"
#include "core/wisdom.hpp"
#include "cudasim/context.hpp"
#include "cudasim/module.hpp"

namespace kl::core {

/// Timing breakdown of the launch-path overhead for one problem size; the
/// quantities of the paper's Figure 5, extended with the wait component of
/// the compile-ahead pipeline.
struct OverheadBreakdown {
    double wisdom_seconds = 0;       ///< reading + matching the wisdom file
    double cache_seconds = 0;        ///< reading a persistent compile-cache entry
    double net_seconds = 0;          ///< wisdom-server round trips + artifact fetch
    double compile_seconds = 0;      ///< nvrtcCompileProgram (zero on a disk/net hit)
    double module_load_seconds = 0;  ///< cuModuleLoad
    double wait_seconds = 0;         ///< blocked on an in-flight background compile
    double launch_seconds = 0;       ///< cuLaunchKernel (host-side)

    double total() const noexcept {
        return wisdom_seconds + cache_seconds + net_seconds + compile_seconds
            + module_load_seconds + wait_seconds + launch_seconds;
    }

    /// Charges the build components (wisdom, cache, net, compile, module
    /// load) to `clock`, one at a time in that order. Every build is
    /// charged through here: a build in the caller advances the context
    /// clock, and a background build's ready time is a clock started at
    /// its submit time, so both round identically.
    void charge_build(sim::SimClock& clock) const noexcept {
        clock.advance(wisdom_seconds);
        clock.advance(cache_seconds);
        clock.advance(net_seconds);
        clock.advance(compile_seconds);
        clock.advance(module_load_seconds);
    }
};

/// What one launch resolved to and what the caller paid for it, returned
/// by the launch itself (WisdomKernel::launch_args).
struct LaunchOutcome {
    bool cold = false;  ///< the caller built the instance (Fig. 5's first launch)
    WisdomMatch match = WisdomMatch::None;  ///< how the configuration was selected
    /// What the caller's clock paid: the whole build plus the launch when
    /// cold; for warm and overlapped launches only wait_seconds and
    /// launch_seconds are nonzero.
    OverheadBreakdown overhead;
};

/// A tunable kernel with runtime configuration selection and runtime
/// compilation (paper §4.5): the user-facing handle of the library.
///
/// On the first launch for a given problem size, the kernel's wisdom file
/// is consulted, the best matching configuration is selected, and the
/// kernel is compiled by the (simulated) NVRTC and loaded onto the device.
/// Subsequent launches for the same problem size reuse the compiled
/// instance and add only ~3 us of launch overhead.
///
/// Each instance moves through a small state machine:
///
///     Uncompiled --(launch)--------> Compiling --> Ready | Failed
///     Uncompiled --(compile_ahead)-> Compiling --> Ready | Failed
///
/// A build first probes the persistent compile cache (src/rtccache/,
/// enabled with KERNEL_LAUNCHER_CACHE=read|readwrite). On a hit the
/// compiled image is reconstructed from the on-disk entry, nvrtc is
/// skipped entirely, and only the modeled entry-read cost is charged
/// (OverheadBreakdown::cache_seconds; counted in Stats::disk_hits). On a
/// miss the compile proceeds as before and — under readwrite — its result
/// is persisted for the next process.
///
/// With KERNEL_LAUNCHER_WISDOM_SERVER set, a network tier sits between the
/// disk probe and the compile (memory -> disk -> network -> compile, see
/// docs/DISTRIBUTED.md): the server is asked for a better-matching tuned
/// configuration, and on a local disk miss for the compiled artifact
/// itself. A served artifact counts in Stats::net_hits, charges the
/// modeled transfer cost (OverheadBreakdown::net_seconds), is written
/// through to the local disk cache when writable, and skips nvrtc exactly
/// like a disk hit; a freshly compiled instance is pushed back so the next
/// node in the fleet never compiles it again. The tier is fail-open: any
/// timeout or refused connection degrades to the local path and can never
/// fail a launch.
///
/// A synchronous launch compiles in the calling thread and pays the full
/// Figure 5 first-launch cost. compile_ahead() starts the build on the
/// background worker pool instead, so the application overlaps
/// compilation with its own work; a launch that arrives before the
/// instance is ready blocks and is charged only the *remaining* modeled
/// build time as wait_seconds. A failed background compile is deferred
/// and rethrown on the next launch of that problem size.
///
/// All public methods are thread-safe; concurrent launches of the same
/// (device, problem size) trigger exactly one compilation.
///
/// When the kernel matches a KERNEL_LAUNCHER_CAPTURE pattern, the first
/// launch per problem size is captured to disk before execution.
class WisdomKernel {
  public:
    /// Per-kernel counters of the compile-ahead pipeline (monotonic except
    /// compiles_in_flight). Launches partition into cold_launches (the
    /// caller compiled synchronously), launch_waits (blocked on an
    /// in-flight compile) and warm_hits (found a ready instance).
    struct Stats {
        uint64_t compiles_started = 0;
        uint64_t compiles_in_flight = 0;
        uint64_t compiles_failed = 0;
        uint64_t cold_launches = 0;
        uint64_t launch_waits = 0;
        uint64_t warm_hits = 0;
        /// Persistent-cache outcomes; counted only when the cache is
        /// readable (KERNEL_LAUNCHER_CACHE=read|readwrite).
        uint64_t disk_hits = 0;
        uint64_t disk_misses = 0;
        /// Network-tier outcomes; counted only when a wisdom server is
        /// configured (KERNEL_LAUNCHER_WISDOM_SERVER) and the local disk
        /// probe missed. A transport failure counts as a miss — the
        /// network tier is fail-open (docs/DISTRIBUTED.md).
        uint64_t net_hits = 0;
        uint64_t net_misses = 0;
    };

    WisdomKernel(KernelDef def, WisdomSettings settings = WisdomSettings::from_env());
    WisdomKernel(
        const KernelBuilder& builder,
        WisdomSettings settings = WisdomSettings::from_env());

    const KernelDef& def() const noexcept {
        return def_;
    }

    /// Whether an expression of the definition reads argument `index`
    /// (KernelDef::arg_references, found once at registration). A scalar
    /// outside this set cannot change the problem size or the geometry.
    bool reads_arg(size_t index) const {
        return arg_reads_.count(index) != 0;
    }

    /// The kernel's signature, parsed from its source once at registration
    /// (nullopt when unreadable or undeclared). KL004 and the launch-graph
    /// footprints read it; after registration only the compiler reads the source.
    const std::optional<KernelSignature>& signature() const noexcept {
        return signature_;
    }

    /// Process settings this kernel was registered with. The launch-graph
    /// lint consults lint_mode() to pick the strictest mode among a
    /// graph's kernels.
    const WisdomSettings& settings() const noexcept {
        return settings_;
    }

    /// Launches with C++ arguments (scalars and DeviceArray buffers), on
    /// the current context's default stream.
    template<typename... Ts>
    LaunchOutcome launch(const Ts&... args) {
        return launch_args(into_args(args...));
    }

    /// Launches with an explicit argument vector and optional stream, and
    /// returns how this launch resolved.
    LaunchOutcome launch_args(
        const std::vector<KernelArg>& args,
        sim::Stream* stream = nullptr);

    /// Everything one launch needs, resolved ahead of time: the selected
    /// configuration, the loaded module (held alive by the shared_ptr), the
    /// compiled image, and the evaluated geometry. The launch-graph
    /// subsystem (src/graph/, docs/GRAPHS.md) bakes each recorded launch at
    /// instantiation so that replay bypasses the per-launch
    /// lookup/lint/marshal path entirely.
    struct BakedLaunch {
        Config config;
        std::shared_ptr<sim::Module> module;
        const sim::KernelImage* image = nullptr;
        KernelDef::Geometry geometry;
        /// cache_epoch() observed *before* the instance lookup; a
        /// clear_cache racing with the bake makes the result look stale
        /// (re-baked on next use), never stale-but-marked-fresh.
        uint64_t epoch = 0;
    };

    /// Resolves a launch once: lints the arguments (KL004), compiles or
    /// waits for the instance exactly like a launch would, and returns the
    /// baked state without submitting any device work. Compile errors and
    /// lint rejections surface here instead of at replay time.
    BakedLaunch bake_launch(const std::vector<KernelArg>& args);

    /// Monotonic generation counter, bumped by clear_cache(). Lets graph
    /// executables detect stale baked modules with one relaxed load per
    /// replay.
    uint64_t cache_epoch() const noexcept;

    /// Starts building the instance for `problem` on the current device
    /// without launching: the build runs on the background worker pool
    /// and this returns immediately. No-op when the instance already
    /// exists in any state. Compile errors are deferred to the next
    /// launch.
    void compile_ahead(const ProblemSize& problem);

    /// Snapshot of the per-kernel compile/launch counters.
    Stats stats() const;

    /// The modeled build cost (wisdom + compile + load) of the instance
    /// for `problem`, once it finished compiling; nullopt while
    /// Uncompiled or Compiling. For background builds this is the cost
    /// paid off-thread, which a launch never sees directly.
    std::optional<OverheadBreakdown> cached_build_overhead(const ProblemSize& problem) const;

    /// Drops all compiled instances (e.g. after re-tuning). Blocks until
    /// in-flight compiles finish, so it is safe to call while other
    /// threads are launching.
    void clear_cache();

  private:
    /// Lifecycle of one requested instance.
    enum class InstanceState {
        Compiling,  ///< build in flight (background or another thread)
        Ready,      ///< module loaded; launches are warm
        Failed,     ///< compile error, rethrown on launch
    };

    struct Instance;
    struct SharedState;
    struct BuildOutcome;
    struct Acquired;

    /// Cache key: the combination that §4.5 says triggers recompilation.
    struct Key {
        std::string device;
        ProblemSize problem;
        bool operator<(const Key& other) const {
            return std::tie(device, problem) < std::tie(other.device, other.problem);
        }
    };

    static BuildOutcome build_instance(
        const KernelDef& def,
        const std::string& wisdom_path,
        const rtccache::Settings& cache_settings,
        const std::shared_ptr<netwisdom::Client>& net,
        const sim::DeviceProperties& device,
        const ProblemSize& problem,
        double sim_start);

    static void publish(
        SharedState& state,
        Instance& instance,
        BuildOutcome&& outcome,
        double ready_time);

    /// Builds `instance` on the calling thread, charges the build to the
    /// context clock (only the wisdom read when it fails, as Fig. 5's cold
    /// launch pays) and publishes it. Returns what was charged.
    OverheadBreakdown build_in_caller(
        Instance& instance,
        const ProblemSize& problem,
        sim::Context& context);

    /// The one resolve step of launch_args() and bake_launch(): finds the
    /// instance for `key`, or builds it in the caller, or waits for the
    /// build in flight, then joins a background build's modeled ready
    /// time. Rethrows a failed build's error. `launch` selects the launch
    /// bookkeeping (cold/wait/warm counters, cache.hit/miss and
    /// launch.wait spans); a bake counts only the compile it starts.
    Acquired acquire(const Key& key, sim::Context& context, bool launch);

    KernelDef def_;
    std::set<size_t> arg_reads_;
    WisdomSettings settings_;
    /// Shared per-server transport (nullptr when no server is configured);
    /// resolved once at registration so every launch reuses one connection
    /// and one circuit breaker.
    std::shared_ptr<netwisdom::Client> net_;

    /// Everything mutable lives behind one shared, mutex-guarded state
    /// block. Background compile jobs keep it (not the kernel) alive, so
    /// destroying a WisdomKernel with builds in flight is safe.
    std::shared_ptr<SharedState> state_;

    std::optional<KernelSignature> signature_;
    bool capture_ = false;  ///< the kernel matches a KERNEL_LAUNCHER_CAPTURE pattern
};

}  // namespace kl::core
