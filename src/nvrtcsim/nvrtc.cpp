#include "nvrtcsim/nvrtc.hpp"

#include <algorithm>
#include <cmath>

#include "nvrtcsim/lexer.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/strings.hpp"

namespace kl::rtc {

CompileOptions CompileOptions::parse(const std::vector<std::string>& raw) {
    CompileOptions opts;
    for (size_t i = 0; i < raw.size(); i++) {
        std::string_view opt = trim(raw[i]);
        if (opt.empty()) {
            continue;
        }
        auto take_value = [&](std::string_view flag) -> std::optional<std::string> {
            if (!starts_with(opt, flag)) {
                return std::nullopt;
            }
            std::string_view rest = opt.substr(flag.size());
            if (rest.empty()) {
                // value in the next option string ("-D" "X=1")
                if (i + 1 < raw.size()) {
                    return raw[++i];
                }
                throw Error("compile option '" + std::string(flag) + "' expects a value");
            }
            if (rest.front() == '=') {
                rest.remove_prefix(1);
            }
            return std::string(trim(rest));
        };

        if (auto v = take_value("-D"); v.has_value()) {
            size_t eq = v->find('=');
            if (eq == std::string::npos) {
                opts.defines.emplace_back(*v, "1");
            } else {
                opts.defines.emplace_back(v->substr(0, eq), v->substr(eq + 1));
            }
        } else if (auto v = take_value("--gpu-architecture"); v.has_value()) {
            opts.arch = *v;
        } else if (auto v = take_value("-arch"); v.has_value()) {
            // "sm_86" and "compute_86" are both accepted.
            opts.arch = *v;
        } else if (auto v = take_value("--std"); v.has_value()) {
            opts.std_version = *v;
        } else if (auto v = take_value("-std"); v.has_value()) {
            opts.std_version = *v;
        } else if (opt == "--use_fast_math" || opt == "-use_fast_math") {
            opts.fast_math = true;
        } else {
            opts.unrecognized.emplace_back(opt);
        }
    }
    return opts;
}

std::pair<std::string, std::vector<std::string>> parse_name_expression(
    const std::string& expression) {
    std::string_view text = trim(expression);
    size_t open = text.find('<');
    if (open == std::string_view::npos) {
        if (text.empty()) {
            throw Error("empty kernel name expression");
        }
        return {std::string(text), {}};
    }
    if (text.back() != '>') {
        throw Error("malformed name expression: '" + expression + "'");
    }
    std::string base(trim(text.substr(0, open)));
    if (base.empty()) {
        throw Error("malformed name expression: '" + expression + "'");
    }
    std::string_view inner = text.substr(open + 1, text.size() - open - 2);

    std::vector<std::string> args;
    std::string current;
    int depth = 0;
    for (char c : inner) {
        if (c == '<' || c == '(') {
            depth++;
        } else if (c == '>' || c == ')') {
            depth--;
            if (depth < 0) {
                throw Error("malformed name expression: '" + expression + "'");
            }
        }
        if (c == ',' && depth == 0) {
            args.emplace_back(trim(current));
            current.clear();
        } else {
            current += c;
        }
    }
    if (depth != 0) {
        throw Error("malformed name expression: '" + expression + "'");
    }
    std::string_view last = trim(current);
    if (!last.empty()) {
        args.emplace_back(last);
    } else if (!args.empty()) {
        throw Error("malformed name expression: '" + expression + "'");
    }
    return {std::move(base), std::move(args)};
}

std::optional<size_t> scalar_type_size(const std::string& type_name) {
    std::string t = std::string(trim(type_name));
    if (t == "float") {
        return 4;
    }
    if (t == "double") {
        return 8;
    }
    if (t == "half" || t == "__half") {
        return 2;
    }
    if (t == "int" || t == "unsigned" || t == "unsigned int" || t == "int32_t"
        || t == "uint32_t") {
        return 4;
    }
    if (t == "long long" || t == "int64_t" || t == "uint64_t" || t == "size_t") {
        return 8;
    }
    return std::nullopt;
}

Program::Program(std::string default_name, std::string source, std::string file_name):
    default_name_(std::move(default_name)),
    source_(std::move(source)),
    file_name_(std::move(file_name)) {}

void Program::add_name_expression(std::string expression) {
    name_expressions_.push_back(std::move(expression));
}

namespace {

/// Superficial source checks standing in for real parsing: the tuned
/// kernels are real .cu files, and typos in them should fail loudly here
/// rather than silently succeed.
void validate_source(
    const std::string& source,
    const std::string& kernel,
    const std::string& file,
    std::string& log) {
    long balance = 0;
    for (char c : source) {
        if (c == '{') {
            balance++;
        } else if (c == '}') {
            balance--;
        }
        if (balance < 0) {
            break;
        }
    }
    if (balance != 0) {
        throw CompileError(
            "compilation of kernel '" + kernel + "' (" + file + ") failed",
            file + ": error: unbalanced braces in translation unit");
    }
    if (source.find("__global__") == std::string::npos) {
        log += file + ": warning: no __global__ function declared in source\n";
    }
}

}  // namespace

RegisterEstimate estimate_register_usage(
    const KernelEntry& entry,
    const sim::ConstantMap& constants,
    size_t element_size,
    int registers_per_sm) {
    const sim::KernelProfile& prof = entry.profile;
    double regs = prof.base_registers;
    if (element_size == 8) {
        regs *= prof.dp_register_factor;
    }
    static constexpr const char* axes[3] = {"X", "Y", "Z"};
    for (const char* ax : axes) {
        int64_t tile = constants.get_int_or(std::string("TILE_FACTOR_") + ax, 1);
        bool unroll = constants.get_bool_or(std::string("UNROLL_") + ax, false);
        if (tile > 1) {
            regs += 2.0;  // loop counter and bound
            if (unroll) {
                double per_point = prof.unroll_register_cost * (element_size == 8 ? 2.0 : 1.0);
                regs += per_point * static_cast<double>(tile - 1);
            }
        }
    }

    int needed = static_cast<int>(std::ceil(regs));
    int cap = 255;

    int64_t min_blocks = constants.get_int_or("BLOCKS_PER_SM", 0);
    int64_t bx = constants.get_int_or("BLOCK_SIZE_X", 0);
    int64_t by = constants.get_int_or("BLOCK_SIZE_Y", 1);
    int64_t bz = constants.get_int_or("BLOCK_SIZE_Z", 1);
    int64_t threads = bx > 0 ? bx * by * bz : constants.get_int_or("BLOCK_SIZE", 0);
    if (min_blocks > 0 && threads > 0) {
        // __launch_bounds__(threads, min_blocks): budget per thread, rounded
        // down to the 8-register allocation granularity.
        int64_t budget = registers_per_sm / (min_blocks * threads);
        budget = std::max<int64_t>(budget - budget % 8, 16);
        cap = static_cast<int>(std::min<int64_t>(cap, budget));
    }

    RegisterEstimate out;
    if (needed > cap) {
        // ptxas first *squeezes* the allocation (rematerialization, shorter
        // live ranges) at a mild cost; only reductions beyond ~25% of the
        // demand become true local-memory spills.
        const int reduction = needed - cap;
        const int grace = (needed + 3) / 4;
        out.squeezed_registers = std::min(reduction, grace);
        out.spilled_registers = reduction - out.squeezed_registers;
        out.registers_per_thread = cap;
    } else {
        out.registers_per_thread = needed;
    }
    return out;
}

namespace {

void estimate_registers(
    const KernelEntry& entry,
    const sim::ConstantMap& constants,
    size_t element_size,
    int registers_per_sm,
    sim::KernelImage& image) {
    RegisterEstimate est =
        estimate_register_usage(entry, constants, element_size, registers_per_sm);
    image.registers_per_thread = est.registers_per_thread;
    image.squeezed_registers = est.squeezed_registers;
    image.spilled_registers = est.spilled_registers;
}

std::string render_ptx(const sim::KernelImage& image, const CompileOptions& opts) {
    std::string ptx;
    ptx += "//\n// Generated by the simulated NVRTC (kernel-launcher repro)\n//\n";
    ptx += ".version 7.7\n.target " + opts.arch + "\n.address_size 64\n\n";
    ptx += "// .globl " + image.lowered_name + "\n";
    for (const auto& [key, value] : image.constants.all()) {
        ptx += "// constant " + key + " = " + value + "\n";
    }
    ptx += ".visible .entry " + image.lowered_name + "()\n{\n";
    ptx += "    .reg .b32 %r<" + std::to_string(image.registers_per_thread) + ">;\n";
    if (image.spilled_registers > 0) {
        ptx += "    .local .align 8 .b8 __local_depot["
            + std::to_string(image.spilled_registers * 8) + "];\n";
    }
    // Body length tracks modeled instruction count so that module-load time
    // scales plausibly with kernel complexity.
    int instructions =
        static_cast<int>(std::min(4096.0, image.profile.flops_per_point * 4.0 + 16.0));
    for (int i = 0; i < instructions; i++) {
        ptx += "    fma.rn.f32 %f" + std::to_string(i % 64) + ", %f"
            + std::to_string((i + 1) % 64) + ", %f" + std::to_string((i + 2) % 64) + ", %f"
            + std::to_string((i + 3) % 64) + ";\n";
    }
    ptx += "    ret;\n}\n";
    return ptx;
}

}  // namespace

CompileResult Program::compile(const std::vector<std::string>& options) const {
    try {
        CompileResult result = compile_impl(options);
        trace::count("nvrtc.compiles");
        return result;
    } catch (...) {
        trace::count("nvrtc.compile_errors");
        throw;
    }
}

CompileResult Program::compile_impl(const std::vector<std::string>& options) const {
    register_builtin_kernels();

    CompileResult result;
    CompileOptions opts = CompileOptions::parse(options);
    for (const std::string& unknown : opts.unrecognized) {
        result.log += "warning: unrecognized option '" + unknown + "' ignored\n";
    }

    validate_source(source_, default_name_, file_name_, result.log);

    std::vector<std::string> expressions = name_expressions_;
    if (expressions.empty()) {
        expressions.push_back(default_name_);
    }

    KernelRegistry& registry = KernelRegistry::global();
    const std::set<std::string> identifiers = source_identifiers(source_);

    for (const std::string& expression : expressions) {
        auto [base, template_args] = parse_name_expression(expression);

        if (identifiers.count(base) == 0) {
            throw CompileError(
                "compilation of kernel '" + base + "' (" + file_name_ + ") failed",
                result.log + file_name_ + ": error: kernel '" + base
                    + "' not found in source");
        }
        // Hold a snapshot of the entry: a concurrent add() replacing the
        // registration must not invalidate this compilation midway.
        std::shared_ptr<const KernelEntry> entry_ptr = registry.find(base);
        if (entry_ptr == nullptr) {
            throw CompileError(
                "compilation of kernel '" + base + "' (" + file_name_ + ") failed",
                result.log + file_name_ + ": error: no device implementation registered for '"
                    + base + "' (simulated NVRTC requires registered kernels)");
        }
        const KernelEntry& entry = *entry_ptr;

        if (template_args.size() > entry.template_params.size()) {
            throw CompileError(
                "compilation of kernel '" + base + "' (" + file_name_ + ") failed",
                result.log + file_name_ + ": error: too many template arguments for '" + base
                    + "' (expected " + std::to_string(entry.template_params.size()) + ", got "
                    + std::to_string(template_args.size()) + ")");
        }

        sim::KernelImage image;
        image.name = base;
        image.arch = opts.arch;
        image.profile = entry.profile;

        for (const auto& [key, value] : entry.constant_defaults) {
            image.constants.set(key, value);
        }
        for (const auto& [key, value] : opts.defines) {
            image.constants.set(key, value);
        }
        for (size_t i = 0; i < template_args.size(); i++) {
            image.constants.set(entry.template_params[i], template_args[i]);
        }

        for (const std::string& required : entry.required_constants) {
            if (!image.constants.contains(required)) {
                throw CompileError(
                    "compilation of kernel '" + base + "' (" + file_name_ + ") failed",
                    result.log + file_name_ + ": error: identifier '" + required
                        + "' is undefined (add -D" + required + "=... or a template argument)");
            }
        }

        // Element type: template parameter "real" or define "REAL";
        // defaults to float.
        std::string real = image.constants.get_string_or(
            "real", image.constants.get_string_or("REAL", "float"));
        std::optional<size_t> elem = scalar_type_size(real);
        if (!elem.has_value()) {
            throw CompileError(
                "compilation of kernel '" + base + "' (" + file_name_ + ") failed",
                result.log + file_name_ + ": error: unknown scalar type '" + real + "'");
        }
        image.element_size = *elem;

        if (template_args.empty()) {
            image.lowered_name = base;
        } else {
            image.lowered_name = base + "<" + join(template_args, ", ") + ">";
        }

        estimate_registers(entry, image.constants, image.element_size, 65536, image);

        if (entry.make_impl) {
            try {
                image.impl = entry.make_impl(image.constants);
            } catch (const Error& e) {
                throw CompileError(
                    "compilation of kernel '" + base + "' (" + file_name_ + ") failed",
                    result.log + file_name_ + ": error: " + e.what());
            }
        }

        image.static_shared_memory = static_cast<uint64_t>(
            image.profile.smem_elements_per_thread * static_cast<double>(image.element_size)
            * static_cast<double>(std::max<int64_t>(
                1, image.constants.get_int_or("BLOCK_SIZE_X", 1)
                    * image.constants.get_int_or("BLOCK_SIZE_Y", 1)
                    * image.constants.get_int_or("BLOCK_SIZE_Z", 1))));

        image.ptx = render_ptx(image, opts);
        result.images.push_back(std::move(image));
    }

    // Modeled NVRTC latency: a fixed front-end cost plus per-byte parsing
    // and per-instance code generation. Calibrated so a typical tuned
    // kernel lands near the ~235 ms NVRTC share of the paper's 294 ms
    // first-launch overhead (Fig. 5).
    double seconds = 0.190;
    seconds += static_cast<double>(source_.size()) * 8.0e-6;
    for (const sim::KernelImage& image : result.images) {
        seconds += 0.030 + static_cast<double>(image.ptx.size()) * 2.0e-7;
    }
    result.compile_seconds = seconds;
    return result;
}

}  // namespace kl::rtc
