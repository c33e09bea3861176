#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cudasim/dim3.hpp"

namespace kl::sim {

class Context;

/// Compile-time constants of one kernel instance: every `-D NAME=VALUE`
/// definition plus resolved template arguments. Values are kept as strings
/// (as a real preprocessor would) with typed accessors on top.
class ConstantMap {
  public:
    void set(std::string name, std::string value) {
        values_[std::move(name)] = std::move(value);
    }

    bool contains(const std::string& name) const {
        return values_.count(name) != 0;
    }

    /// Integer constant; throws CompileError-free kl::Error on bad syntax.
    int64_t get_int(const std::string& name) const;
    int64_t get_int_or(const std::string& name, int64_t fallback) const;

    /// Booleans accept 0/1/true/false.
    bool get_bool_or(const std::string& name, bool fallback) const;

    std::string get_string_or(const std::string& name, std::string fallback) const;

    const std::map<std::string, std::string>& all() const {
        return values_;
    }

    /// Stable digest of the full map; keys the per-config instance caches.
    uint64_t digest() const;

  private:
    std::map<std::string, std::string> values_;
};

/// Static cost-model description of a kernel, registered alongside its
/// implementation. All per-point quantities are in *elements* of the
/// kernel's floating-point type; the model scales by element size.
struct KernelProfile {
    /// Floating-point operations per output grid point.
    double flops_per_point = 10.0;
    /// Elements read per point assuming perfect reuse of stencil halos.
    double reads_ideal = 1.0;
    /// Elements read per point with no reuse at all (full halo refetch).
    double reads_stream = 1.0;
    /// Elements written per point.
    double writes = 1.0;
    /// Stencil halo width along each axis (0 = element-wise on that axis).
    int halo[3] = {0, 0, 0};
    /// Register usage of the un-tiled fp32 instance.
    int base_registers = 32;
    /// Register multiplier for fp64 instances.
    double dp_register_factor = 1.6;
    /// Extra registers held live per additional tiled point on an axis that
    /// is unrolled (values kept in registers across the unrolled loop).
    double unroll_register_cost = 3.0;
    /// Static shared memory bytes per thread (element-size scaled).
    double smem_elements_per_thread = 0.0;
};

/// One compiled kernel instance: the output of the simulated NVRTC.
/// Immutable after compilation; shared by every launch of that instance.
struct KernelImage {
    /// Function implementation: executes the whole grid on the CPU. Only
    /// invoked in functional mode.
    using Impl = std::function<void(const struct LaunchParams&)>;

    std::string name;           ///< base kernel name, e.g. "advec_u"
    std::string lowered_name;   ///< mangled instance name, e.g. "advec_u<float>"
    std::string arch;           ///< e.g. "compute_80"
    ConstantMap constants;      ///< defines + template arguments
    KernelProfile profile;
    Impl impl;                  ///< may be empty for declaration-only images

    int registers_per_thread = 32;   ///< post-launch-bounds allocation
    int squeezed_registers = 0;      ///< regs shaved by __launch_bounds__ (mild cost)
    int spilled_registers = 0;       ///< registers spilled to local memory
    uint64_t static_shared_memory = 0;
    size_t element_size = 4;         ///< sizeof the kernel's `real` type

    /// Pseudo-PTX listing produced by the simulated compiler (debugging aid
    /// and the payload of module serialization).
    std::string ptx;
};

/// Everything an executing kernel implementation can see, mirroring what a
/// real CUDA kernel gets: launch geometry, compile-time constants, and the
/// raw argument slots of cuLaunchKernel (each slot points at the argument
/// value; buffer arguments hold a device pointer).
struct LaunchParams {
    Context* context = nullptr;
    Dim3 grid;
    Dim3 block;
    uint64_t shared_mem_bytes = 0;
    const ConstantMap* constants = nullptr;
    void* const* args = nullptr;
    size_t num_args = 0;

    /// Reads a scalar argument by position.
    template<typename T>
    T scalar(size_t index) const {
        return *static_cast<const T*>(arg_slot(index));
    }

    /// Resolves a buffer argument (a device pointer) to host-visible
    /// memory of `count` elements. Bounds-checked; throws CudaError.
    template<typename T>
    T* buffer(size_t index, size_t count) const {
        return static_cast<T*>(resolve_buffer(index, count * sizeof(T)));
    }

    int64_t constant_int(const std::string& name) const {
        return constants->get_int(name);
    }

  private:
    const void* arg_slot(size_t index) const;
    void* resolve_buffer(size_t index, size_t byte_size) const;
};

}  // namespace kl::sim
