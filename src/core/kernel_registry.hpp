#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/wisdom_kernel.hpp"

namespace kl::core {

/// Process-wide cache of WisdomKernels, mirroring the upstream library's
/// `kernel_launcher::default_registry()`: applications that launch the
/// same tunable kernel from many call sites share one WisdomKernel (and
/// therefore one compiled-instance cache) instead of recompiling per
/// site.
///
///     core::registry().launch(make_advec_def(), ut, u, ...);
///
/// Kernels are keyed by tuning key plus a digest of the full definition,
/// so two *different* definitions that happen to share a name do not
/// collide — they get separate entries (and the collision is observable
/// via size()).
///
/// Thread-safe: lookup() may be called from any number of threads, and the
/// returned reference stays valid under concurrent inserts (entries are
/// heap-allocated and never move). clear() destroys the cached kernels, so
/// it must not race with launches through previously-obtained references;
/// to drop compiled instances while other threads keep launching, use
/// WisdomKernel::clear_cache() instead, which is safe under concurrency.
class WisdomKernelRegistry {
  public:
    explicit WisdomKernelRegistry(WisdomSettings settings = WisdomSettings::from_env()):
        settings_(std::move(settings)) {}

    /// The WisdomKernel for this definition, created on first use.
    WisdomKernel& lookup(const KernelDef& def);
    WisdomKernel& lookup(const KernelBuilder& builder) {
        return lookup(builder.build());
    }

    /// One-call launch through the cached kernel.
    template<typename... Ts>
    LaunchOutcome launch(const KernelDef& def, const Ts&... args) {
        return lookup(def).launch(args...);
    }

    /// Starts compiling the instance for `problem` on the background
    /// worker pool, ahead of the first launch. Creates the WisdomKernel
    /// when absent.
    void compile_ahead(const KernelDef& def, const ProblemSize& problem) {
        lookup(def).compile_ahead(problem);
    }
    void compile_ahead(const KernelBuilder& builder, const ProblemSize& problem) {
        lookup(builder).compile_ahead(problem);
    }

    size_t size() const;

    /// Drops every cached kernel (e.g. after re-tuning, so fresh wisdom is
    /// picked up on the next launch).
    void clear();

    const WisdomSettings& settings() const {
        return settings_;
    }

  private:
    static uint64_t def_digest(const KernelDef& def);

    WisdomSettings settings_;
    mutable std::mutex mutex_;
    std::map<std::pair<std::string, uint64_t>, std::unique_ptr<WisdomKernel>> kernels_;
};

/// The default process-wide registry (settings from the environment at
/// first use).
WisdomKernelRegistry& registry();

}  // namespace kl::core
