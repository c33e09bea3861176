#pragma once

#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/expr.hpp"
#include "core/kernel_arg.hpp"
#include "core/problem_size.hpp"
#include "cudasim/device_props.hpp"
#include "cudasim/kernel_image.hpp"

namespace kl::core {

/// CUDA source of a kernel: either a path resolved at compile time or
/// inline text. Captures embed the text so that a capture is
/// self-contained and replayable on another machine.
class KernelSource {
  public:
    KernelSource() = default;

    /// Source loaded from a file when first needed.
    /*implicit*/ KernelSource(std::string path): file_name_(std::move(path)) {}
    /*implicit*/ KernelSource(const char* path): file_name_(path) {}

    /// Inline source with a virtual file name for diagnostics.
    static KernelSource inline_source(std::string file_name, std::string content);

    const std::string& file_name() const noexcept {
        return file_name_;
    }

    bool is_inline() const noexcept {
        return has_content_;
    }

    /// Returns the source text, reading the file when not inline.
    /// Throws kl::IoError when the file cannot be read.
    std::string read() const;

    json::Value to_json() const;
    static KernelSource from_json(const json::Value& v);

  private:
    std::string file_name_;
    std::string content_;
    bool has_content_ = false;
};

/// One formal parameter of a `__global__` kernel, as parsed from the CUDA
/// source text. The launcher uses this to check launch-argument vectors
/// (arity, buffer vs. scalar, scalar type) before the driver does.
struct KernelParam {
    std::string type;  ///< type spelling without qualifiers, e.g. "float" or "real"
    std::string name;  ///< parameter name; may be empty for unnamed parameters
    bool is_pointer = false;
    /// Declared const (e.g. "const float*"). A const pointer parameter is a
    /// read-only buffer for the graph data-flow analysis.
    bool is_const = false;

    std::string to_string() const;
};

/// Parses the parameter list of `__global__ ... name(...)` out of a CUDA
/// source (comments stripped, `__launch_bounds__(...)` skipped). Returns
/// nullopt when no such declaration exists; template type parameters are
/// reported with their dependent spelling (e.g. "real").
std::optional<std::vector<KernelParam>> parse_kernel_signature(
    const std::string& source,
    const std::string& kernel_name);

/// Context for expressions that may reference scalar arguments and,
/// optionally, a configuration and the problem size.
class LaunchContext: public EvalContext {
  public:
    LaunchContext(
        const std::vector<KernelArg>* args,
        const Config* config,
        const ProblemSize* problem):
        args_(args),
        config_(config),
        problem_(problem) {}

    std::optional<Value> param(const std::string& name) const override {
        if (config_ != nullptr && config_->contains(name)) {
            return config_->at(name);
        }
        return std::nullopt;
    }

    std::optional<Value> argument(size_t index) const override {
        if (args_ == nullptr || index >= args_->size()) {
            return std::nullopt;
        }
        return (*args_)[index].to_value();
    }

    std::optional<Value> problem_size(size_t axis) const override {
        if (problem_ == nullptr || axis >= 3) {
            return std::nullopt;
        }
        return Value(static_cast<int64_t>((*problem_)[axis]));
    }

  private:
    const std::vector<KernelArg>* args_;
    const Config* config_;
    const ProblemSize* problem_;
};

/// Immutable snapshot of a tunable kernel definition (paper §4.1): the
/// configuration space, the compilation specification, and the launch
/// geometry, all in one place. Produced by KernelBuilder; serializable for
/// kernel captures.
struct KernelDef {
    std::string name;
    /// Identity used for wisdom files and captures; defaults to `name`.
    /// Lets several instantiations of one kernel function (e.g. float and
    /// double template variants) be tuned and selected independently.
    std::string tuning_key;
    KernelSource source;
    ConfigSpace space;

    /// Wisdom/capture identity (tuning_key, falling back to name).
    const std::string& key() const noexcept {
        return tuning_key.empty() ? name : tuning_key;
    }

    std::array<Expr, 3> problem_size {Expr(1), Expr(1), Expr(1)};
    std::array<Expr, 3> block_size {Expr(256), Expr(1), Expr(1)};
    std::array<Expr, 3> grid_divisors {Expr(0), Expr(0), Expr(0)};
    bool has_grid_divisors = false;
    std::array<Expr, 3> grid_size {Expr(0), Expr(0), Expr(0)};
    bool has_explicit_grid = false;
    Expr shared_memory {Expr(0)};
    std::vector<Expr> template_args;
    std::vector<std::pair<std::string, Expr>> defines;
    std::vector<std::string> compiler_flags;
    /// Indices of pure-output buffer arguments. Their contents are not
    /// part of a capture's payload (replays zero-fill them), which keeps
    /// captures at input-data size — cf. the paper's Table 3, where the
    /// advec_u capture is one field and diff_uvw three.
    std::vector<size_t> output_args;

    bool is_output_arg(size_t index) const noexcept {
        for (size_t out : output_args) {
            if (out == index) {
                return true;
            }
        }
        return false;
    }

    json::Value to_json() const;
    static KernelDef from_json(const json::Value& v);

    /// Resolved launch geometry for one (config, arguments) pair.
    struct Geometry {
        ProblemSize problem;
        sim::Dim3 grid;
        sim::Dim3 block;
        uint64_t shared_mem_bytes = 0;
    };

    /// Evaluates the problem size from the arguments alone (configuration
    /// independent, so it can drive wisdom selection before a
    /// configuration is chosen).
    ProblemSize eval_problem_size(const std::vector<KernelArg>& args) const;

    /// Evaluates block, grid and shared memory for a configuration, given
    /// the problem size the caller already evaluated from `args`.
    Geometry eval_geometry(
        const Config& config,
        const std::vector<KernelArg>& args,
        const ProblemSize& problem) const;
    Geometry eval_geometry(const Config& config, const std::vector<KernelArg>& args) const {
        return eval_geometry(config, args, eval_problem_size(args));
    }
};

/// Fluent builder for tunable kernel definitions, mirroring the paper's
/// Listing 3:
///
///     KernelBuilder builder("vector_add", "vector_add.cu");
///     auto block_size = builder.tune("block_size", {32, 64, 128, 256});
///     builder.problem_size(kl::arg3)
///            .template_args(block_size)
///            .block_size(block_size);
///
/// The builder is also the place to declare restrictions, preprocessor
/// definitions and compiler flags. `build()` snapshots everything into a
/// KernelDef; a builder can keep being modified afterwards.
class KernelBuilder {
  public:
    KernelBuilder(std::string kernel_name, KernelSource source);

    /// Declares a tunable parameter and returns an expression for it.
    Expr tune(std::string name, std::vector<Value> values);
    Expr tune(std::string name, std::vector<Value> values, Value default_value);

    KernelBuilder& restriction(Expr condition);

    KernelBuilder& problem_size(Expr x, Expr y = Expr(1), Expr z = Expr(1));
    KernelBuilder& block_size(Expr x, Expr y = Expr(1), Expr z = Expr(1));

    /// Amount of problem covered per block (grid = ceil(problem/divisor));
    /// defaults to the block size when not set.
    KernelBuilder& grid_divisors(Expr x, Expr y = Expr(1), Expr z = Expr(1));

    /// Explicit grid size, overriding the divisor computation.
    KernelBuilder& grid_size(Expr x, Expr y = Expr(1), Expr z = Expr(1));

    KernelBuilder& shared_memory(Expr bytes);

    template<typename... Es>
    KernelBuilder& template_args(Es... exprs) {
        (template_arg(Expr(std::move(exprs))), ...);
        return *this;
    }
    KernelBuilder& template_arg(Expr expr);

    KernelBuilder& define(std::string name, Expr value);
    KernelBuilder& compiler_flag(std::string flag);

    /// Overrides the wisdom/capture identity (defaults to the kernel name).
    KernelBuilder& tuning_key(std::string key);

    /// Marks argument `index` as a pure-output buffer (not captured).
    KernelBuilder& output_arg(size_t index);

    const ConfigSpace& space() const {
        return def_.space;
    }

    /// Snapshots the definition.
    KernelDef build() const {
        return def_;
    }

  private:
    KernelDef def_;
};

/// Compiles one (definition, configuration) pair for a device through the
/// simulated NVRTC. Stateless; the instance caches live in WisdomKernel.
struct KernelCompiler {
    struct Output {
        sim::KernelImage image;
        double compile_seconds = 0;  ///< modeled NVRTC latency
        std::string log;
    };

    /// The fully-lowered compile request of one (definition, configuration,
    /// device) triple: resolved source text plus every option NVRTC will
    /// see, in order. These are exactly the inputs that determine the
    /// compiled bytes — which is why the persistent compile cache
    /// (`src/rtccache/`, docs/CACHING.md) derives its content-hash key
    /// from a Lowered request, not from the definition.
    struct Lowered {
        std::vector<std::string> options;  ///< arch + -D defines + flags, in order
        std::string source;                ///< resolved CUDA source text
        std::string file_name;             ///< for diagnostics
        std::string name_expression;  ///< mangled instantiation; empty = base name
    };

    /// Evaluates defines/template arguments against `config` (and
    /// `problem`, when known) and resolves the source text. Throws the
    /// same errors the compile itself would for an invalid configuration
    /// or an unreadable source.
    static Lowered lower(
        const KernelDef& def,
        const Config& config,
        const sim::DeviceProperties& device,
        const ProblemSize* problem = nullptr);

    /// Runs the (simulated) NVRTC over an already-lowered request.
    static Output compile_lowered(const KernelDef& def, const Lowered& lowered);

    /// Throws kl::CompileError (with log) on failure. The problem size,
    /// when known (it always is at launch time, since instances are
    /// compiled per problem size, §4.5), is available to `define()`
    /// expressions — e.g. baking PROBLEM_SIZE_X into the kernel.
    /// Equivalent to compile_lowered(def, lower(...)).
    static Output compile(
        const KernelDef& def,
        const Config& config,
        const sim::DeviceProperties& device,
        const ProblemSize* problem = nullptr);
};

}  // namespace kl::core
