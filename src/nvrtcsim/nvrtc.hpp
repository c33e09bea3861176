#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cudasim/kernel_image.hpp"
#include "nvrtcsim/registry.hpp"

namespace kl::rtc {

/// Parsed view of NVRTC-style compile options.
struct CompileOptions {
    std::vector<std::pair<std::string, std::string>> defines;  ///< -D NAME=VALUE
    std::string arch = "compute_80";  ///< --gpu-architecture / -arch
    std::string std_version = "c++17";
    bool fast_math = false;
    std::vector<std::string> unrecognized;

    /// Parses raw option strings; accepts "-DX=1", "-D X=1",
    /// "--gpu-architecture=compute_86", "-arch=sm_86", "-std=c++17",
    /// "--use_fast_math". Unknown options are collected, not rejected
    /// (matching NVRTC's warning behavior).
    static CompileOptions parse(const std::vector<std::string>& raw);
};

/// Result of a successful compilation.
struct CompileResult {
    std::vector<sim::KernelImage> images;  ///< one per name expression
    std::string log;                       ///< warnings
    double compile_seconds = 0;            ///< modeled NVRTC latency
};

/// Simulated nvrtcProgram. Usage mirrors NVRTC:
///
///     Program program("advec_u", source, "advec_u.cu");
///     program.add_name_expression("advec_u<double>");
///     CompileResult r = program.compile({"-DBLOCK_SIZE_X=32", ...});
///
/// Compilation validates the source superficially (the kernel must be
/// declared `__global__`, braces must balance), resolves every name
/// expression against the kernel registry, checks that all constants the
/// kernel requires are defined, estimates register usage (including
/// `__launch_bounds__`-driven capping and spilling), and produces a
/// pseudo-PTX image bound to the registered host implementation.
class Program {
  public:
    Program(std::string default_name, std::string source, std::string file_name = "<inline>");

    /// Adds an explicit instantiation to compile, e.g. "advec_u<float>".
    /// When none is added, the program compiles `default_name` alone.
    void add_name_expression(std::string expression);

    /// Compiles all name expressions. Throws kl::CompileError (carrying the
    /// full log) on failure.
    CompileResult compile(const std::vector<std::string>& options) const;

    const std::string& source() const noexcept {
        return source_;
    }
    const std::string& file_name() const noexcept {
        return file_name_;
    }

  private:
    CompileResult compile_impl(const std::vector<std::string>& options) const;

    std::string default_name_;
    std::string source_;
    std::string file_name_;
    std::vector<std::string> name_expressions_;
};

/// Register-allocation estimate for one kernel instance, mirroring what
/// ptxas does with `__launch_bounds__`: the compiler targets enough blocks
/// per SM and squeezes/spills when the budget is exceeded. Exposed so the
/// static analysis (kl-lint KL003) can predict spilling for a configuration
/// without compiling it.
struct RegisterEstimate {
    int registers_per_thread = 0;
    int squeezed_registers = 0;  ///< mild-cost allocation squeezing
    int spilled_registers = 0;   ///< true local-memory spills
};

/// Estimates register usage of `entry` under the given compile-time
/// constants. `element_size` is the element type width in bytes (8 doubles
/// register pressure for double precision); `registers_per_sm` comes from
/// the target device.
RegisterEstimate estimate_register_usage(
    const KernelEntry& entry,
    const sim::ConstantMap& constants,
    size_t element_size,
    int registers_per_sm);

/// Splits a name expression into base name and template arguments:
/// "advec_u<double, 4>" -> {"advec_u", {"double", "4"}}. Handles nested
/// angle brackets. Throws kl::Error on malformed input.
std::pair<std::string, std::vector<std::string>> parse_name_expression(
    const std::string& expression);

/// sizeof() for the small set of scalar type names template arguments and
/// REAL defines may use. Returns nullopt for unknown type names.
std::optional<size_t> scalar_type_size(const std::string& type_name);

}  // namespace kl::rtc
