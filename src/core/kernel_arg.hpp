#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "core/value.hpp"
#include "cudasim/memory.hpp"
#include "util/json.hpp"

namespace kl::core {

/// Scalar element types understood by the launcher (for both scalar
/// arguments and buffer element types).
enum class ScalarType { I8, I32, I64, U32, U64, F32, F64 };

size_t scalar_size(ScalarType type) noexcept;
const char* scalar_name(ScalarType type) noexcept;
std::optional<ScalarType> scalar_from_name(const std::string& name) noexcept;

/// The ScalarType a CUDA C++ type spelling maps to ("float" -> F32,
/// "long long" -> I64, ...). Returns nullopt for type names the launcher
/// does not model (template parameters like "real", structs), which
/// argument checking treats as compatible with anything.
std::optional<ScalarType> scalar_from_cuda_type(const std::string& cuda_type) noexcept;

/// True when passing a host value of ScalarType `actual` for a kernel
/// parameter declared as `cuda_type` is well-typed. Unknown/dependent type
/// spellings are permissive (return true).
bool scalar_matches_cuda_type(ScalarType actual, const std::string& cuda_type) noexcept;

/// How a kernel reads or writes a buffer argument, as declared by the
/// caller (or inferred by the static analysis). Auto means "not declared":
/// the graph analyzer then infers a role from the kernel signature
/// (const-qualified pointer parameters are reads, declared output_arg
/// indices are read-write) and falls back to the conservative ReadWrite.
enum class ArgRole : uint8_t {
    Auto,       ///< undeclared; analysis infers, conservatively ReadWrite
    Read,       ///< the kernel only reads the buffer
    Write,      ///< the kernel only writes the buffer
    ReadWrite,  ///< the kernel both reads and writes the buffer
};

const char* arg_role_name(ArgRole role) noexcept;

template<typename T>
constexpr ScalarType scalar_type_of() {
    if constexpr (std::is_same_v<T, int8_t>) {
        return ScalarType::I8;
    } else if constexpr (std::is_same_v<T, int32_t> || std::is_same_v<T, int>) {
        return ScalarType::I32;
    } else if constexpr (std::is_same_v<T, int64_t> || std::is_same_v<T, long long>) {
        return ScalarType::I64;
    } else if constexpr (std::is_same_v<T, uint32_t>) {
        return ScalarType::U32;
    } else if constexpr (std::is_same_v<T, uint64_t> || std::is_same_v<T, size_t>) {
        return ScalarType::U64;
    } else if constexpr (std::is_same_v<T, float>) {
        return ScalarType::F32;
    } else if constexpr (std::is_same_v<T, double>) {
        return ScalarType::F64;
    } else {
        static_assert(sizeof(T) == 0, "unsupported kernel argument type");
    }
}

/// A type-erased kernel argument: either an inline scalar or a reference to
/// a device buffer (device pointer + element type + element count). The
/// element count lets the capture machinery export the buffer contents and
/// lets the launcher bound-check replays.
class KernelArg {
  public:
    template<typename T>
    static KernelArg scalar(T value) {
        static_assert(sizeof(T) <= 8);
        KernelArg arg;
        arg.type_ = scalar_type_of<T>();
        arg.is_buffer_ = false;
        arg.count_ = 1;
        std::memcpy(arg.storage_, &value, sizeof(T));
        return arg;
    }

    static KernelArg
    buffer(sim::DevicePtr ptr, ScalarType element_type, size_t count,
           ArgRole role = ArgRole::Auto) {
        KernelArg arg;
        arg.type_ = element_type;
        arg.is_buffer_ = true;
        arg.count_ = count;
        arg.role_ = role;
        std::memcpy(arg.storage_, &ptr, sizeof(ptr));
        return arg;
    }

    bool is_buffer() const noexcept {
        return is_buffer_;
    }
    bool is_scalar() const noexcept {
        return !is_buffer_;
    }

    ScalarType type() const noexcept {
        return type_;
    }

    /// Element count: 1 for scalars, the buffer length otherwise.
    size_t count() const noexcept {
        return count_;
    }

    /// Payload size in bytes (buffer: count * element size).
    uint64_t byte_size() const noexcept {
        return static_cast<uint64_t>(count_) * scalar_size(type_);
    }

    /// The cuLaunchKernel argument slot: a pointer to the scalar value, or
    /// a pointer to the stored device pointer.
    const void* slot() const noexcept {
        return storage_;
    }

    sim::DevicePtr device_ptr() const;

    /// Declared access role (buffers only; scalars are always Auto).
    ArgRole role() const noexcept {
        return role_;
    }

    /// Copy of this argument with an explicit access role. Throws on
    /// scalars: only buffers have a meaningful direction.
    KernelArg with_role(ArgRole role) const;

    /// Scalar arguments convert to a Value so that expressions such as
    /// `problem_size(arg3)` can read them. Buffers return nullopt.
    std::optional<Value> to_value() const;

    /// Typed scalar read (throws on buffers / size mismatch).
    template<typename T>
    T scalar_value() const {
        static_assert(sizeof(T) <= 8);
        T out;
        std::memcpy(&out, storage_, sizeof(T));
        return out;
    }

    /// Metadata (no payload) for captures and diagnostics.
    json::Value describe() const;

  private:
    KernelArg() = default;

    ScalarType type_ = ScalarType::I32;
    bool is_buffer_ = false;
    ArgRole role_ = ArgRole::Auto;
    size_t count_ = 0;
    alignas(8) unsigned char storage_[8] = {};
};

/// Builds a KernelArg from a C++ value. Scalars pass through; device
/// containers (see device_buffer.hpp) specialize `kernel_arg_traits`.
template<typename T, typename = void>
struct kernel_arg_traits {
    static KernelArg to_arg(const T& value) {
        return KernelArg::scalar(value);
    }
};

/// A KernelArg passes through unchanged, so role-tagged arguments (from
/// read_only()/write_only(), see device_buffer.hpp) mix freely with plain
/// values in the same launch call.
template<>
struct kernel_arg_traits<KernelArg> {
    static KernelArg to_arg(const KernelArg& value) {
        return value;
    }
};

template<typename T>
KernelArg make_arg(const T& value) {
    return kernel_arg_traits<T>::to_arg(value);
}

/// Expands a parameter pack into the argument vector used by launches.
template<typename... Ts>
std::vector<KernelArg> into_args(const Ts&... values) {
    std::vector<KernelArg> args;
    args.reserve(sizeof...(Ts));
    (args.push_back(make_arg(values)), ...);
    return args;
}

/// Marshals arguments into the cuLaunchKernel `void**` array: one slot
/// pointer per argument, pointing into the KernelArg's own storage (so the
/// slots stay valid while `args` lives and is not resized).
std::vector<void*> arg_slots(const std::vector<KernelArg>& args);

}  // namespace kl::core
