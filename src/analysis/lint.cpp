#include "analysis/lint.hpp"

#include <algorithm>
#include <functional>
#include <iostream>
#include <set>

#include "core/pragma.hpp"
#include "cudasim/kernel_image.hpp"
#include "nvrtcsim/lexer.hpp"
#include "nvrtcsim/nvrtc.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace kl::analysis {

namespace {

using core::Config;
using core::ConfigSpace;
using core::Expr;
using core::KernelArg;
using core::KernelDef;
using core::KernelParam;
using core::ProblemSize;
using core::TunableParam;
using core::Value;

/// Spaces with at most this many cartesian points are enumerated
/// exhaustively for the KL001 emptiness check; larger ones (the paper's
/// 7.7M-point stencil spaces) are sampled deterministically, so that
/// registration-time linting stays cheap.
constexpr uint64_t kExhaustiveLimit = 4096;

/// Number of valid configurations drawn from a space above
/// kExhaustiveLimit, out of at most four times as many random points.
constexpr int kSampleCount = 512;

/// Upper bound on the configurations fed to the per-device resource checks
/// (KL003); a subset of the KL001 scan.
constexpr size_t kDeviceScanLimit = 256;

/// Value substituted for scalar kernel arguments referenced by expressions
/// (problem_size(arg3), ...) during analysis.
constexpr int64_t kNominalExtent = 1 << 20;

Diagnostic make(
    std::string code,
    Severity severity,
    std::string message,
    const KernelDef& def,
    int line = 0) {
    Diagnostic d;
    d.code = std::move(code);
    d.severity = severity;
    d.message = std::move(message);
    d.kernel = def.name;
    d.location.file = def.source.file_name();
    d.location.line = line;
    return d;
}

/// Every expression of a definition, for reference-collection walks.
/// Restrictions are included only when `with_restrictions`: a parameter
/// used solely in a restriction shapes the space but never reaches the
/// compiled kernel, which matters for the KL002 "unused" check.
void for_each_expr(
    const KernelDef& def,
    bool with_restrictions,
    const std::function<void(const Expr&)>& fn) {
    for (const Expr& e : def.problem_size) {
        fn(e);
    }
    for (const Expr& e : def.block_size) {
        fn(e);
    }
    if (def.has_grid_divisors) {
        for (const Expr& e : def.grid_divisors) {
            fn(e);
        }
    }
    if (def.has_explicit_grid) {
        for (const Expr& e : def.grid_size) {
            fn(e);
        }
    }
    fn(def.shared_memory);
    for (const Expr& e : def.template_args) {
        fn(e);
    }
    for (const auto& [name, e] : def.defines) {
        fn(e);
    }
    if (with_restrictions) {
        for (const Expr& e : def.space.restrictions()) {
            fn(e);
        }
    }
}

/// The source with its `#pragma kernel_launcher` lines blanked (newlines
/// preserved): the tuning annotations themselves must not count as
/// "references" for KL002, or annotated kernels could never have an
/// unused tunable.
std::string without_annotation_lines(const std::string& source) {
    std::string out;
    out.reserve(source.size());
    size_t pos = 0;
    while (pos < source.size()) {
        size_t end = source.find('\n', pos);
        if (end == std::string::npos) {
            end = source.size();
        }
        std::string_view line(source.data() + pos, end - pos);
        size_t first = line.find_first_not_of(" \t");
        bool is_annotation = first != std::string_view::npos
            && line.substr(first).rfind("#pragma kernel_launcher", 0) == 0;
        if (!is_annotation) {
            out.append(line);
        }
        if (end < source.size()) {
            out.push_back('\n');
        }
        pos = end + 1;
    }
    return out;
}

/// Scalar stand-ins for every kernel argument an expression references, so
/// geometry can be evaluated without a real launch.
std::vector<KernelArg> synthetic_args(const KernelDef& def) {
    std::set<size_t> indices;
    for_each_expr(def, true, [&](const Expr& e) { e.collect_args(indices); });
    size_t count = indices.empty() ? 0 : *indices.rbegin() + 1;
    std::vector<KernelArg> args;
    args.reserve(count);
    for (size_t i = 0; i < count; i++) {
        args.push_back(KernelArg::scalar<int64_t>(kNominalExtent));
    }
    return args;
}

/// The configurations the resource checks iterate over: exhaustive for
/// small spaces, deterministically sampled (seeded by the kernel name)
/// for large ones. `exhausted` reports whether the scan covered the whole
/// valid space.
std::vector<Config> scan_configs(const KernelDef& def, bool& exhausted) {
    const ConfigSpace& space = def.space;
    uint64_t cardinality = space.cardinality();
    if (cardinality <= kExhaustiveLimit) {
        exhausted = true;
        return space.enumerate_valid();
    }
    exhausted = false;
    Rng rng(fnv1a(def.name));
    std::vector<Config> out;
    uint64_t attempts = static_cast<uint64_t>(kSampleCount) * 4;
    for (uint64_t i = 0; i < attempts && out.size() < static_cast<size_t>(kSampleCount);
         i++) {
        Config candidate = space.config_at(rng.next_below(cardinality));
        if (space.satisfies_restrictions(candidate)) {
            out.push_back(std::move(candidate));
        }
    }
    return out;
}

/// KL001: the space must contain at least one valid configuration and the
/// default configuration must be part of it.
void check_space(
    const KernelDef& def,
    const std::vector<Config>& scan,
    bool exhausted,
    std::vector<Diagnostic>& diags) {
    const ConfigSpace& space = def.space;
    Config def_config = space.default_config();
    if (!space.satisfies_restrictions(def_config)) {
        diags.push_back(make(
            "KL001",
            Severity::Error,
            "the default configuration (" + def_config.to_string()
                + ") violates the declared restrictions",
            def));
    }
    if (!scan.empty()) {
        return;
    }
    if (exhausted) {
        diags.push_back(make(
            "KL001",
            Severity::Error,
            "the configuration space is empty: all "
                + std::to_string(space.cardinality())
                + " candidate configurations violate the restrictions",
            def));
    } else {
        diags.push_back(make(
            "KL001",
            Severity::Warning,
            "no valid configuration found in "
                + std::to_string(kSampleCount * 4)
                + " random samples of the space (cardinality "
                + std::to_string(space.cardinality())
                + "); the restrictions may be unsatisfiable",
            def));
    }
}

/// KL002: cross-references between the declared tunables and the kernel
/// source. Undeclared parameter references are errors; tunables that
/// never reach the source or the launch configuration are warnings
/// (softened to notes when the source pulls in headers the analysis
/// cannot see).
void check_tunable_references(
    const KernelDef& def,
    const std::string* source,
    std::vector<Diagnostic>& diags) {
    std::set<std::string> referenced;
    for_each_expr(def, true, [&](const Expr& e) { e.collect_params(referenced); });
    for (const std::string& name : referenced) {
        if (!def.space.contains(name)) {
            diags.push_back(make(
                "KL002",
                Severity::Error,
                "expression references undeclared tunable parameter '" + name + "'",
                def));
        }
    }

    if (source == nullptr) {
        return;
    }
    const std::string code = without_annotation_lines(*source);
    const std::set<std::string> identifiers = rtc::source_identifiers(code);
    const bool unresolved_headers = rtc::has_include_directives(code);
    const Severity unused_severity =
        unresolved_headers ? Severity::Note : Severity::Warning;
    const std::string softener = unresolved_headers
        ? " (the source has #include directives the analysis cannot resolve)"
        : "";

    // Parameters that reach the launch outside the -D definition: through
    // the geometry, template arguments or define values.
    std::set<std::string> launch_used;
    for_each_expr(def, false, [&](const Expr& e) { e.collect_params(launch_used); });

    for (const TunableParam& param : def.space.params()) {
        if (identifiers.count(param.name) != 0 || launch_used.count(param.name) != 0) {
            continue;
        }
        diags.push_back(make(
            "KL002",
            unused_severity,
            "tunable '" + param.name
                + "' is defined via -D but never referenced in the kernel source or "
                  "the launch configuration"
                + softener,
            def));
    }
    for (const auto& [name, expr] : def.defines) {
        if (identifiers.count(name) != 0) {
            continue;
        }
        diags.push_back(make(
            "KL002",
            unused_severity,
            "preprocessor definition '" + name
                + "' is never referenced in the kernel source" + softener,
            def));
    }
}

/// The compile-time constants one configuration produces, mirroring
/// KernelCompiler::compile: tunables, explicit defines and bound template
/// parameters.
sim::ConstantMap constants_for(
    const KernelDef& def,
    const Config& config,
    const std::vector<KernelArg>& args,
    const ProblemSize& problem,
    const rtc::KernelEntry* entry) {
    core::LaunchContext ctx(&args, &config, &problem);
    sim::ConstantMap constants;
    if (entry != nullptr) {
        for (const auto& [key, value] : entry->constant_defaults) {
            constants.set(key, value);
        }
    }
    for (const TunableParam& param : def.space.params()) {
        constants.set(param.name, config.at(param.name).to_define());
    }
    for (const auto& [name, expr] : def.defines) {
        constants.set(name, expr.eval(ctx).to_define());
    }
    if (entry != nullptr) {
        size_t bindable = std::min(def.template_args.size(), entry->template_params.size());
        for (size_t i = 0; i < bindable; i++) {
            constants.set(entry->template_params[i], def.template_args[i].eval(ctx).to_define());
        }
    }
    return constants;
}

/// Per-device violation counters over the scanned configurations.
struct DeviceScan {
    uint64_t over_threads = 0;
    uint64_t over_smem = 0;
    uint64_t spills = 0;
    uint64_t oversubscribed = 0;
    uint64_t scanned = 0;
    std::string first_over_threads;
    std::string first_over_smem;
    std::string first_spill;
    std::string first_oversubscribed;
};

/// KL003: resource limits of every target device, checked for the default
/// configuration (hard errors: this is the configuration an untuned
/// deployment launches) and across the scanned space (warnings/notes:
/// a tuner would only meet these points during search).
void check_device_limits(
    const KernelDef& def,
    const std::vector<Config>& scan,
    const std::vector<KernelArg>& args,
    const LintOptions& options,
    std::vector<Diagnostic>& diags) {
    const std::vector<sim::DeviceProperties>& devices =
        options.devices.empty() ? sim::DeviceRegistry::global().all() : options.devices;
    if (devices.empty()) {
        return;
    }
    std::shared_ptr<const rtc::KernelEntry> entry =
        rtc::KernelRegistry::global().find(def.name);

    Config default_config = def.space.default_config();
    bool default_valid = def.space.satisfies_restrictions(default_config);

    auto examine = [&](const Config& config,
                       const sim::DeviceProperties& device,
                       bool is_default,
                       DeviceScan& counters) {
        KernelDef::Geometry geom = def.eval_geometry(config, args);
        uint64_t threads = static_cast<uint64_t>(geom.block.x) * geom.block.y * geom.block.z;
        uint64_t smem = geom.shared_mem_bytes;
        sim::ConstantMap constants;
        size_t element_size = 4;
        if (entry != nullptr) {
            constants = constants_for(def, config, args, geom.problem, entry.get());
            std::string real = constants.get_string_or(
                "real", constants.get_string_or("REAL", "float"));
            element_size = rtc::scalar_type_size(real).value_or(4);
            smem += static_cast<uint64_t>(
                entry->profile.smem_elements_per_thread
                * static_cast<double>(element_size) * static_cast<double>(threads));
        }

        if (threads > static_cast<uint64_t>(device.max_threads_per_block)) {
            if (is_default) {
                diags.push_back(make(
                    "KL003",
                    Severity::Error,
                    "default configuration launches " + std::to_string(threads)
                        + " threads per block, exceeding the limit of "
                        + std::to_string(device.max_threads_per_block) + " on "
                        + device.name,
                    def));
            } else {
                counters.over_threads++;
                if (counters.first_over_threads.empty()) {
                    counters.first_over_threads = config.to_string();
                }
            }
        }
        if (smem > device.shared_mem_per_block) {
            if (is_default) {
                diags.push_back(make(
                    "KL003",
                    Severity::Error,
                    "default configuration uses " + std::to_string(smem)
                        + " bytes of shared memory per block, exceeding the limit of "
                        + std::to_string(device.shared_mem_per_block) + " on "
                        + device.name,
                    def));
            } else {
                counters.over_smem++;
                if (counters.first_over_smem.empty()) {
                    counters.first_over_smem = config.to_string();
                }
            }
        }

        if (entry == nullptr) {
            return;
        }
        rtc::RegisterEstimate est = rtc::estimate_register_usage(
            *entry, constants, element_size, device.registers_per_sm);
        if (est.spilled_registers > 0) {
            if (is_default) {
                diags.push_back(make(
                    "KL003",
                    Severity::Warning,
                    "default configuration spills "
                        + std::to_string(est.spilled_registers)
                        + " registers to local memory on " + device.name
                        + " (estimated demand exceeds the __launch_bounds__ budget)",
                    def));
            } else {
                counters.spills++;
                if (counters.first_spill.empty()) {
                    counters.first_spill = config.to_string();
                }
            }
        }
        int64_t min_blocks = constants.get_int_or("BLOCKS_PER_SM", 0);
        if (min_blocks > 0
            && min_blocks * static_cast<int64_t>(threads) > device.max_threads_per_sm) {
            counters.oversubscribed++;
            if (counters.first_oversubscribed.empty()) {
                counters.first_oversubscribed = config.to_string();
            }
        }
    };

    for (const sim::DeviceProperties& device : devices) {
        DeviceScan counters;
        if (default_valid) {
            try {
                examine(default_config, device, true, counters);
            } catch (const kl::Error& e) {
                diags.push_back(make(
                    "KL000",
                    Severity::Note,
                    "could not evaluate the launch geometry of the default configuration: "
                        + std::string(e.what()),
                    def));
                return;
            }
        }
        size_t limit = std::min(scan.size(), kDeviceScanLimit);
        for (size_t i = 0; i < limit; i++) {
            try {
                counters.scanned++;
                examine(scan[i], device, false, counters);
            } catch (const kl::Error&) {
                // A configuration whose geometry cannot be evaluated with
                // synthetic arguments is not a resource finding.
                counters.scanned--;
            }
        }
        if (counters.over_threads > 0) {
            diags.push_back(make(
                "KL003",
                Severity::Warning,
                std::to_string(counters.over_threads) + " of "
                    + std::to_string(counters.scanned)
                    + " scanned configurations exceed "
                    + std::to_string(device.max_threads_per_block)
                    + " threads per block on " + device.name + " (e.g. "
                    + counters.first_over_threads
                    + "); consider a restriction on the block size",
                def));
        }
        if (counters.over_smem > 0) {
            diags.push_back(make(
                "KL003",
                Severity::Warning,
                std::to_string(counters.over_smem) + " of "
                    + std::to_string(counters.scanned)
                    + " scanned configurations exceed "
                    + std::to_string(device.shared_mem_per_block)
                    + " bytes of shared memory per block on " + device.name
                    + " (e.g. " + counters.first_over_smem + ")",
                def));
        }
        if (counters.spills > 0) {
            diags.push_back(make(
                "KL003",
                Severity::Note,
                std::to_string(counters.spills) + " of "
                    + std::to_string(counters.scanned)
                    + " scanned configurations are estimated to spill registers on "
                    + device.name + " (e.g. " + counters.first_spill + ")",
                def));
        }
        if (counters.oversubscribed > 0) {
            diags.push_back(make(
                "KL003",
                Severity::Note,
                std::to_string(counters.oversubscribed) + " of "
                    + std::to_string(counters.scanned)
                    + " scanned configurations request more resident threads via "
                      "__launch_bounds__ (BLOCKS_PER_SM x block size) than the "
                    + std::to_string(device.max_threads_per_sm)
                    + " threads per SM of " + device.name + " (e.g. "
                    + counters.first_oversubscribed + ")",
                def));
        }
    }
}

/// KL004 (static half): expression argument references and output-buffer
/// declarations must be consistent with the parsed kernel signature.
void check_signature_consistency(
    const KernelDef& def,
    const std::string& source,
    std::vector<Diagnostic>& diags) {
    std::optional<std::vector<KernelParam>> signature =
        core::parse_kernel_signature(source, def.name);
    int line = rtc::identifier_line(source, def.name);
    if (!signature.has_value()) {
        diags.push_back(make(
            "KL004",
            Severity::Note,
            "could not locate a __global__ declaration of '" + def.name
                + "' in the source; launch-argument checking skipped",
            def));
        return;
    }
    const std::vector<KernelParam>& params = *signature;

    std::set<size_t> arg_refs;
    for_each_expr(def, true, [&](const Expr& e) { e.collect_args(arg_refs); });
    for (size_t index : arg_refs) {
        if (index >= params.size()) {
            diags.push_back(make(
                "KL004",
                Severity::Error,
                "an expression references argument " + std::to_string(index)
                    + ", but the kernel signature has only "
                    + std::to_string(params.size()) + " parameter(s)",
                def,
                line));
        } else if (params[index].is_pointer) {
            diags.push_back(make(
                "KL004",
                Severity::Error,
                "an expression references argument " + std::to_string(index) + " ("
                    + params[index].to_string()
                    + "), but pointer arguments have no scalar value",
                def,
                line));
        }
    }
    for (size_t index : def.output_args) {
        if (index >= params.size()) {
            diags.push_back(make(
                "KL004",
                Severity::Error,
                "output argument " + std::to_string(index)
                    + " is out of range: the kernel signature has only "
                    + std::to_string(params.size()) + " parameter(s)",
                def,
                line));
        } else if (!params[index].is_pointer) {
            diags.push_back(make(
                "KL004",
                Severity::Warning,
                "argument " + std::to_string(index) + " (" + params[index].to_string()
                    + ") is declared as an output buffer but is not a pointer",
                def,
                line));
        }
    }
}

}  // namespace

std::vector<Diagnostic> lint_kernel(const KernelDef& def, const LintOptions& options) {
    std::vector<Diagnostic> diags;

    std::optional<std::string> source;
    try {
        source = def.source.read();
    } catch (const kl::Error& e) {
        diags.push_back(make(
            "KL000",
            Severity::Warning,
            "kernel source cannot be read: " + std::string(e.what())
                + "; source-dependent checks skipped",
            def));
    }

    try {
        check_tunable_references(def, source ? &*source : nullptr, diags);
    } catch (const kl::Error& e) {
        diags.push_back(make(
            "KL000",
            Severity::Note,
            "tunable reference analysis failed: " + std::string(e.what()),
            def));
    }

    std::vector<Config> scan;
    bool exhausted = false;
    try {
        scan = scan_configs(def, exhausted);
        check_space(def, scan, exhausted, diags);
    } catch (const kl::Error& e) {
        diags.push_back(make(
            "KL000",
            Severity::Note,
            "configuration-space analysis failed: " + std::string(e.what()),
            def));
    }

    try {
        std::vector<KernelArg> args = synthetic_args(def);
        check_device_limits(def, scan, args, options, diags);
    } catch (const kl::Error& e) {
        diags.push_back(make(
            "KL000",
            Severity::Note,
            "device resource analysis failed: " + std::string(e.what()),
            def));
    }

    if (source.has_value()) {
        try {
            check_signature_consistency(def, *source, diags);
        } catch (const kl::Error& e) {
            diags.push_back(make(
                "KL000",
                Severity::Note,
                "signature analysis failed: " + std::string(e.what()),
                def));
        }
    }
    sort_diagnostics(diags);
    return diags;
}

std::vector<Diagnostic> lint_wisdom(
    const KernelDef& def,
    const core::WisdomFile& wisdom,
    const std::string& path,
    const LintOptions& options) {
    (void) options;
    std::vector<Diagnostic> diags;
    auto record_diag = [&](size_t index, Severity severity, const std::string& message) {
        Diagnostic d;
        d.code = "KL005";
        d.severity = severity;
        d.message = "wisdom record #" + std::to_string(index) + ": " + message;
        d.kernel = def.key();
        d.location.file = path;
        diags.push_back(std::move(d));
    };

    if (!wisdom.kernel_name().empty() && wisdom.kernel_name() != def.key()) {
        Diagnostic d;
        d.code = "KL005";
        d.severity = Severity::Error;
        d.message = "wisdom file belongs to kernel '" + wisdom.kernel_name()
            + "', expected '" + def.key() + "'";
        d.kernel = def.key();
        d.location.file = path;
        diags.push_back(std::move(d));
        return diags;
    }

    const ConfigSpace& space = def.space;
    for (size_t i = 0; i < wisdom.records().size(); i++) {
        const core::WisdomRecord& record = wisdom.records()[i];
        bool well_formed = true;
        for (const auto& [name, value] : record.config.values()) {
            if (!space.contains(name)) {
                record_diag(
                    i,
                    Severity::Error,
                    "references unknown parameter '" + name + "'");
                well_formed = false;
                continue;
            }
            const TunableParam& param = space.at(name);
            bool allowed = false;
            for (const Value& candidate : param.values) {
                if (candidate == value) {
                    allowed = true;
                    break;
                }
            }
            if (!allowed) {
                record_diag(
                    i,
                    Severity::Error,
                    "value " + value.to_string() + " for parameter '" + name
                        + "' is not in the declared value list");
                well_formed = false;
            }
        }
        for (const TunableParam& param : space.params()) {
            if (!record.config.contains(param.name)) {
                record_diag(
                    i,
                    Severity::Error,
                    "does not assign tunable parameter '" + param.name + "'");
                well_formed = false;
            }
        }
        if (well_formed) {
            try {
                if (!space.satisfies_restrictions(record.config)) {
                    record_diag(
                        i,
                        Severity::Error,
                        "configuration (" + record.config.to_string()
                            + ") violates the declared restrictions");
                }
            } catch (const kl::Error& e) {
                record_diag(
                    i,
                    Severity::Note,
                    std::string("restrictions could not be evaluated: ") + e.what());
            }
        }
        if (!record.device_name.empty()
            && !sim::DeviceRegistry::global().contains(record.device_name)) {
            record_diag(
                i,
                Severity::Warning,
                "names unknown device '" + record.device_name + "'");
        }
    }
    sort_diagnostics(diags);
    return diags;
}

std::vector<Diagnostic> lint_launch_args(
    const KernelDef& def,
    const std::vector<KernelArg>& args) {
    std::vector<Diagnostic> diags;
    std::string source;
    try {
        source = def.source.read();
    } catch (const kl::Error&) {
        return diags;  // unreadable source surfaces elsewhere (KL000 / compile)
    }
    std::optional<std::vector<KernelParam>> signature =
        core::parse_kernel_signature(source, def.name);
    if (!signature.has_value()) {
        return diags;
    }
    const std::vector<KernelParam>& params = *signature;
    int line = rtc::identifier_line(source, def.name);

    if (args.size() != params.size()) {
        diags.push_back(make(
            "KL004",
            Severity::Error,
            "kernel expects " + std::to_string(params.size())
                + " argument(s) but the launch passes " + std::to_string(args.size()),
            def,
            line));
        return diags;
    }
    for (size_t i = 0; i < args.size(); i++) {
        const KernelParam& param = params[i];
        const KernelArg& arg = args[i];
        if (param.is_pointer && !arg.is_buffer()) {
            diags.push_back(make(
                "KL004",
                Severity::Error,
                "argument " + std::to_string(i) + " is a scalar ("
                    + core::scalar_name(arg.type()) + ") but parameter "
                    + param.to_string() + " is a pointer",
                def,
                line));
        } else if (!param.is_pointer && arg.is_buffer()) {
            diags.push_back(make(
                "KL004",
                Severity::Error,
                "argument " + std::to_string(i) + " is a device buffer but parameter "
                    + param.to_string() + " is a scalar",
                def,
                line));
        } else if (!core::scalar_matches_cuda_type(arg.type(), param.type)) {
            diags.push_back(make(
                "KL004",
                Severity::Warning,
                "argument " + std::to_string(i) + " has type "
                    + core::scalar_name(arg.type())
                    + ", which does not match parameter " + param.to_string(),
                def,
                line));
        }
    }
    sort_diagnostics(diags);
    return diags;
}

std::vector<Diagnostic> lint_annotated_source(
    const std::string& kernel_name,
    const core::KernelSource& source,
    const LintOptions& options) {
    try {
        core::KernelBuilder builder =
            core::builder_from_annotated_source(kernel_name, source);
        return lint_kernel(builder.build(), options);
    } catch (const kl::Error& e) {
        Diagnostic d;
        d.code = "KL000";
        d.severity = Severity::Error;
        d.message = std::string("annotated source cannot be parsed: ") + e.what();
        d.kernel = kernel_name;
        d.location.file = source.file_name();
        try {
            d.location.line =
                rtc::substring_line(source.read(), "#pragma kernel_launcher");
        } catch (const kl::Error&) {
            // location stays file-level when the source itself is unreadable
        }
        return {std::move(d)};
    }
}

std::vector<Diagnostic> lint_registration(
    const KernelDef& def,
    const core::WisdomSettings& settings,
    const LintOptions& options) {
    std::vector<Diagnostic> diags = lint_kernel(def, options);
    std::string path = settings.wisdom_path(def.key());
    if (file_exists(path)) {
        try {
            core::WisdomFile wisdom = core::WisdomFile::load(path, def.key());
            std::vector<Diagnostic> wisdom_diags = lint_wisdom(def, wisdom, path, options);
            diags.insert(diags.end(), wisdom_diags.begin(), wisdom_diags.end());
        } catch (const kl::Error& e) {
            Diagnostic d;
            d.code = "KL005";
            d.severity = Severity::Warning;
            d.message = std::string("wisdom file cannot be used: ") + e.what();
            d.kernel = def.key();
            d.location.file = path;
            diags.push_back(std::move(d));
        }
    }
    sort_diagnostics(diags);
    return diags;
}

void enforce(
    const std::vector<Diagnostic>& diagnostics,
    core::LintMode mode,
    const std::string& subject) {
    if (mode == core::LintMode::Off) {
        return;
    }
    for (const Diagnostic& d : diagnostics) {
        if (d.severity == Severity::Note) {
            continue;  // notes are for the CLI; registration stays quiet
        }
        std::cerr << "kl-lint: " << d.render() << "\n";
    }
    if (mode >= core::LintMode::Error && has_errors(diagnostics)) {
        std::string message = "kl-lint found "
            + std::to_string(count_severity(diagnostics, Severity::Error))
            + " error(s) in kernel '" + subject + "':";
        for (const Diagnostic& d : diagnostics) {
            if (d.severity == Severity::Error) {
                message += "\n  " + d.render();
            }
        }
        throw DefinitionError(message);
    }
}

}  // namespace kl::analysis
