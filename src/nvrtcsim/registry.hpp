#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cudasim/kernel_image.hpp"

namespace kl::rtc {

/// Registered implementation of one kernel family. The simulated NVRTC
/// cannot generate machine code from CUDA C++, so every kernel that can be
/// "compiled" must have a host implementation registered up front. The
/// implementation receives the compile-time constants (preprocessor defines
/// plus template arguments) and must honor them exactly — the tunable work
/// assignment (tiling, strides, unravel order) is executed for real, which
/// is how the test suite proves that every point of the configuration space
/// is semantics-preserving.
struct KernelEntry {
    /// Base kernel name as it appears in the source (e.g. "advec_u").
    std::string name;

    /// Cost-model description used by the performance model.
    sim::KernelProfile profile;

    /// Names of template parameters, in declaration order. A name
    /// expression "advec_u<double>" binds template_params[0] to "double"
    /// in the instance's constant map.
    std::vector<std::string> template_params;

    /// Compile-time constants the kernel body references; compilation
    /// fails with an "identifier undefined" diagnostic when one is missing
    /// and has no entry in `constant_defaults`.
    std::vector<std::string> required_constants;

    /// Optional default values for constants (like a `#ifndef` fallback in
    /// the source).
    std::map<std::string, std::string> constant_defaults;

    /// Builds the executable implementation for one instance. May throw
    /// kl::Error for unsupported constant combinations (reported as a
    /// compile error). An empty function yields a timing-only image.
    std::function<sim::KernelImage::Impl(const sim::ConstantMap&)> make_impl;
};

/// Process-global kernel implementation catalog. Thread-safe: background
/// compile jobs look kernels up while tests or applications register new
/// entries. Entries are immutable once registered; `add` of an existing
/// name installs a fresh entry, and holders of the old one (via find())
/// keep a valid snapshot.
class KernelRegistry {
  public:
    static KernelRegistry& global();

    /// Registers or replaces an entry.
    void add(KernelEntry entry);

    /// The entry registered under `name`, or nullptr. The returned pointer
    /// stays valid even if the entry is concurrently replaced.
    std::shared_ptr<const KernelEntry> find(const std::string& name) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<const KernelEntry>> entries_;
};

/// Registers the built-in demonstration kernels (vector_add, saxpy,
/// copy3d); idempotent. Called lazily by Program::compile so that simple
/// examples work without explicit setup.
void register_builtin_kernels();

/// CUDA source text of a built-in kernel, for examples and tests that want
/// a self-contained .cu file. Throws kl::Error for unknown names.
const std::string& builtin_kernel_source(const std::string& name);

}  // namespace kl::rtc
