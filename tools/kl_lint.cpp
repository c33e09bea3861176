// kl-lint: standalone front end of the static kernel-definition analysis.
//
// Usage:
//   kl-lint --builtin                 lint every kernel definition shipped
//                                     with the repository (the example
//                                     kernels and the MicroHH stencils)
//   kl-lint [options] file.cu ...     lint #pragma kernel_launcher-annotated
//                                     CUDA sources
//   kl-lint --graph graph.json ...    run the KL006-KL009 graph data-flow
//                                     analysis over JSON graph descriptions
//                                     (docs/LINTING.md documents the format)
//
// Options:
//   --kernel NAME    kernel name for annotated sources (default: file stem)
//   --wisdom FILE    also check FILE against the linted definition (KL005);
//                    requires exactly one definition
//   --device NAME    restrict device resource checks to NAME (repeatable)
//   --format FMT     output format: text (default, human-readable to
//                    stderr) or json (stable schema to stdout)
//   --strict         exit nonzero on warnings as well as errors
//   --no-notes       suppress note-severity findings
//
// Exit status: 0 clean (notes/warnings allowed unless --strict), 1 findings
// at the failing severity, 2 usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "analysis/graph_lint.hpp"
#include "analysis/lint.hpp"
#include "core/pragma.hpp"
#include "microhh/definitions.hpp"
#include "microhh/kernels.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"

namespace {

namespace klc = kl::core;
namespace kla = kl::analysis;

struct Options {
    bool builtin = false;
    bool graph = false;
    bool strict = false;
    bool notes = true;
    bool json_output = false;
    std::string kernel_name;
    std::string wisdom_path;
    std::vector<std::string> devices;
    std::vector<std::string> files;
};

void usage(std::FILE* out) {
    std::fprintf(
        out,
        "usage: kl-lint --builtin | kl-lint [--kernel NAME] [--wisdom FILE]\n"
        "               [--device NAME]... [--format text|json] [--strict]\n"
        "               [--no-notes] file.cu ...\n"
        "       kl-lint --graph [--format text|json] [--strict] graph.json ...\n");
}

std::string file_stem(const std::string& path) {
    size_t slash = path.find_last_of('/');
    std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
    size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

/// The kernel definitions shipped with the repository: the example kernels
/// (mirroring quickstart.cpp / annotated_kernel.cpp) and the four MicroHH
/// stencil variants of the paper's Table 2.
std::vector<klc::KernelDef> builtin_definitions() {
    kl::rtc::register_builtin_kernels();
    kl::microhh::register_microhh_kernels();
    std::vector<klc::KernelDef> defs;

    {
        // vector_add, as defined in examples/quickstart.cpp (Listing 3).
        klc::KernelBuilder builder(
            "vector_add",
            klc::KernelSource::inline_source(
                "vector_add.cu", kl::rtc::builtin_kernel_source("vector_add")));
        auto block_size = builder.tune("block_size", {32, 64, 128, 256, 1024});
        builder.problem_size(klc::arg3)
            .template_args(block_size)
            .block_size(block_size)
            .output_arg(0);
        defs.push_back(builder.build());
    }
    {
        // saxpy over a preprocessor-defined block size.
        klc::KernelBuilder builder(
            "saxpy",
            klc::KernelSource::inline_source(
                "saxpy.cu", kl::rtc::builtin_kernel_source("saxpy")));
        auto block_size = builder.tune("BLOCK_SIZE", {64, 128, 256, 512});
        builder.problem_size(klc::arg3).block_size(block_size).output_arg(0);
        defs.push_back(builder.build());
    }
    {
        // copy3d with a templated element type and a 3D block.
        klc::KernelBuilder builder(
            "copy3d",
            klc::KernelSource::inline_source(
                "copy3d.cu", kl::rtc::builtin_kernel_source("copy3d")));
        auto bx = builder.tune("BLOCK_SIZE_X", {8, 16, 32, 64});
        auto by = builder.tune("BLOCK_SIZE_Y", {1, 2, 4, 8});
        auto bz = builder.tune("BLOCK_SIZE_Z", {1, 2, 4});
        builder.restriction(bx * by * bz <= 1024);
        builder.problem_size(klc::arg2, klc::arg3, klc::arg4)
            .block_size(bx, by, bz)
            .template_args(klc::Expr("float"))
            .output_arg(0);
        defs.push_back(builder.build());
    }

    using kl::microhh::Precision;
    for (Precision precision : {Precision::Float32, Precision::Float64}) {
        defs.push_back(kl::microhh::make_advec_u_builder(precision).build());
        defs.push_back(kl::microhh::make_diff_uvw_builder(precision).build());
    }
    return defs;
}

int severity_rank(kla::Severity s) {
    return static_cast<int>(s);
}

// --- --graph mode -----------------------------------------------------------
//
// A graph description is a JSON file (docs/LINTING.md, "Linting graph
// descriptions"):
//
//   {
//     "buffers": {"a": 4096, "b": 4096, "c": 4096},
//     "nodes": [
//       {"kind": "htod", "dst": "a"},
//       {"kind": "htod", "dst": "b"},
//       {"kind": "launch", "name": "vector_add", "deps": [0, 1],
//        "reads": ["a", "b"], "writes": ["c"]},
//       {"kind": "dtoh", "src": "c", "deps": [2]}
//     ]
//   }
//
// Buffer references are a buffer name (the whole buffer) or
// {"buffer": "a", "offset": N, "bytes": M} for a sub-range. Kinds: launch
// (reads/writes/readwrites), htod (dst), dtoh (src), dtod (dst, src),
// memset (dst). kl-lint assigns each buffer a synthetic device address
// range and runs the same analysis the library runs at graph
// instantiation.
//
// The file is untrusted: buffer sizes must be positive and fit the 64-bit
// address space, and a description holds at most kMaxGraphNodes nodes.

/// KL009 is cubic in the node count and the reachability bitsets take
/// n^2/8 bytes; 1024 nodes lint in about a second on a 4-core x86 VM.
constexpr size_t kMaxGraphNodes = 1024;
/// A node's object, kind, dependencies and buffer references stay well
/// under 64 JSON values; the cap bounds the parse at ~4 MiB of values.
constexpr size_t kMaxGraphValues = kMaxGraphNodes * 64;

kla::ByteInterval resolve_buffer_ref(
    const kl::json::Value& ref,
    const std::map<std::string, kla::ByteInterval>& buffers,
    const std::string& where) {
    if (ref.is_string()) {
        auto it = buffers.find(ref.as_string());
        if (it == buffers.end()) {
            throw kl::Error(where + ": unknown buffer '" + ref.as_string() + "'");
        }
        return it->second;
    }
    if (ref.is_object()) {
        const std::string name = ref["buffer"].as_string();
        auto it = buffers.find(name);
        if (it == buffers.end()) {
            throw kl::Error(where + ": unknown buffer '" + name + "'");
        }
        const uint64_t size = it->second.end - it->second.begin;
        const uint64_t offset = static_cast<uint64_t>(ref.get_int_or("offset", 0));
        const uint64_t bytes = static_cast<uint64_t>(
            ref.get_int_or("bytes", static_cast<int64_t>(size - offset)));
        if (offset > size || bytes > size - offset) {
            throw kl::Error(
                where + ": range [" + std::to_string(offset) + ", "
                + std::to_string(offset + bytes) + ") exceeds buffer '" + name
                + "' of " + std::to_string(size) + " bytes");
        }
        return {it->second.begin + offset, it->second.begin + offset + bytes};
    }
    throw kl::Error(where + ": buffer reference must be a name or an object");
}

std::vector<kla::NodeFootprint> parse_graph_description(const std::string& path) {
    kl::json::Value doc = kl::json::parse(kl::read_text_file(path), kMaxGraphValues);

    // Synthetic, page-aligned, non-adjacent address ranges: distinct
    // buffers never alias, and off-by-one extents cannot touch a
    // neighboring buffer. std::map iterates names in sorted order, so
    // addresses (and with them diagnostics) are deterministic.
    std::map<std::string, kla::ByteInterval> buffers;
    uint64_t base = 0x10000000;
    if (const kl::json::Value* bufs = doc.find("buffers")) {
        for (const auto& [name, size] : bufs->as_object()) {
            // The next base is end + a 4 KiB gap, rounded up to a page.
            const int64_t bytes = size.as_int();
            uint64_t end = 0;
            uint64_t next = 0;
            const bool fits = bytes > 0
                && !__builtin_add_overflow(base, static_cast<uint64_t>(bytes), &end)
                && !__builtin_add_overflow(end, 2 * 4096 - 1, &next);
            if (!fits) {
                throw kl::Error(
                    path + ": buffer '" + name + "' of " + std::to_string(bytes)
                    + " bytes (sizes must be positive and fit the 64-bit address space)");
            }
            buffers[name] = {base, end};
            base = next / 4096 * 4096;
        }
    }

    const kl::json::Array& described = doc["nodes"].as_array();
    if (described.size() > kMaxGraphNodes) {
        throw kl::Error(
            path + ": " + std::to_string(described.size()) + " nodes (at most "
            + std::to_string(kMaxGraphNodes) + ")");
    }
    std::vector<kla::NodeFootprint> nodes;
    for (const kl::json::Value& n : described) {
        const std::string where = path + ": node #" + std::to_string(nodes.size());
        kla::NodeFootprint fp;
        if (const kl::json::Value* deps = n.find("deps")) {
            for (const kl::json::Value& d : deps->as_array()) {
                const int64_t dep = d.as_int();
                if (dep < 0 || static_cast<size_t>(dep) >= nodes.size()) {
                    throw kl::Error(
                        where + ": dependency " + std::to_string(dep)
                        + " must name an earlier node");
                }
                fp.deps.push_back(static_cast<size_t>(dep));
            }
        }
        auto collect = [&](const char* key, bool reads, bool writes) {
            if (const kl::json::Value* refs = n.find(key)) {
                for (const kl::json::Value& ref : refs->as_array()) {
                    kla::ByteInterval iv = resolve_buffer_ref(ref, buffers, where);
                    if (reads) {
                        fp.reads.push_back(iv);
                    }
                    if (writes) {
                        fp.writes.push_back(iv);
                    }
                }
            }
        };
        const std::string kind = n.get_string_or("kind", "");
        if (kind == "launch") {
            fp.label = "kernel '" + n.get_string_or("name", "anonymous") + "'";
            collect("reads", true, false);
            collect("writes", false, true);
            collect("readwrites", true, true);
        } else if (kind == "htod") {
            fp.label = "memcpy htod";
            fp.writes.push_back(resolve_buffer_ref(n["dst"], buffers, where));
        } else if (kind == "dtoh") {
            fp.label = "memcpy dtoh";
            fp.reads.push_back(resolve_buffer_ref(n["src"], buffers, where));
            fp.copies_out = true;
        } else if (kind == "dtod") {
            fp.label = "memcpy dtod";
            fp.reads.push_back(resolve_buffer_ref(n["src"], buffers, where));
            fp.writes.push_back(resolve_buffer_ref(n["dst"], buffers, where));
        } else if (kind == "memset") {
            fp.label = "memset";
            fp.writes.push_back(resolve_buffer_ref(n["dst"], buffers, where));
        } else {
            throw kl::Error(
                where + ": unknown kind '" + kind
                + "' (want launch|htod|dtoh|dtod|memset)");
        }
        nodes.push_back(std::move(fp));
    }
    return nodes;
}

/// The --format=json document (docs/LINTING.md, "JSON output"):
/// diagnostics in deterministic (code, subject) order, plus a summary.
/// Printed to stdout; findings never go to stderr in this mode.
void print_json_report(
    std::vector<kla::Diagnostic> diagnostics,
    size_t definitions,
    size_t graph_nodes,
    bool graph_mode) {
    kla::sort_diagnostics(diagnostics);
    kl::json::Value doc = kl::json::Value::object();
    kl::json::Value list = kl::json::Value::array();
    for (const kla::Diagnostic& d : diagnostics) {
        list.push_back(d.to_json());
    }
    doc["diagnostics"] = std::move(list);
    kl::json::Value summary = kl::json::Value::object();
    summary["definitions"] = static_cast<int64_t>(definitions);
    if (graph_mode) {
        summary["nodes"] = static_cast<int64_t>(graph_nodes);
    }
    summary["errors"] =
        static_cast<int64_t>(kla::count_severity(diagnostics, kla::Severity::Error));
    summary["warnings"] =
        static_cast<int64_t>(kla::count_severity(diagnostics, kla::Severity::Warning));
    summary["notes"] =
        static_cast<int64_t>(kla::count_severity(diagnostics, kla::Severity::Note));
    doc["summary"] = std::move(summary);
    std::fprintf(stdout, "%s\n", doc.dump_pretty().c_str());
}

}  // namespace

int main(int argc, char** argv) {
    Options opts;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "kl-lint: %s requires an argument\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg.rfind("--format=", 0) == 0) {
            std::string value = arg.substr(9);
            if (value == "json") {
                opts.json_output = true;
            } else if (value != "text") {
                std::fprintf(
                    stderr, "kl-lint: unknown format '%s' (want text or json)\n",
                    value.c_str());
                return 2;
            }
            continue;
        }
        if (arg == "--builtin") {
            opts.builtin = true;
        } else if (arg == "--graph") {
            opts.graph = true;
        } else if (arg == "--strict") {
            opts.strict = true;
        } else if (arg == "--no-notes") {
            opts.notes = false;
        } else if (arg == "--format") {
            std::string value = next("--format");
            if (value == "json") {
                opts.json_output = true;
            } else if (value != "text") {
                std::fprintf(
                    stderr, "kl-lint: unknown format '%s' (want text or json)\n",
                    value.c_str());
                return 2;
            }
        } else if (arg == "--kernel") {
            opts.kernel_name = next("--kernel");
        } else if (arg == "--wisdom") {
            opts.wisdom_path = next("--wisdom");
        } else if (arg == "--device") {
            opts.devices.emplace_back(next("--device"));
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "kl-lint: unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        } else {
            opts.files.push_back(arg);
        }
    }
    if ((!opts.builtin && opts.files.empty()) || (opts.graph && opts.builtin)) {
        usage(stderr);
        return 2;
    }

    if (opts.graph) {
        std::vector<kla::Diagnostic> diagnostics;
        size_t node_count = 0;
        try {
            for (const std::string& file : opts.files) {
                std::vector<kla::NodeFootprint> nodes = parse_graph_description(file);
                node_count += nodes.size();
                std::vector<kla::Diagnostic> d = kla::lint_footprints(nodes);
                diagnostics.insert(diagnostics.end(), d.begin(), d.end());
            }
        } catch (const kl::Error& e) {
            std::fprintf(stderr, "kl-lint: %s\n", e.what());
            return 2;
        }
        if (opts.json_output) {
            print_json_report(diagnostics, 0, node_count, /*graph_mode=*/true);
        } else {
            for (const kla::Diagnostic& d : diagnostics) {
                if (!opts.notes && d.severity == kla::Severity::Note) {
                    continue;
                }
                std::fprintf(stderr, "%s\n", d.render().c_str());
            }
            std::fprintf(
                stderr,
                "kl-lint: %zu graph node(s): %zu error(s), %zu warning(s), %zu note(s)\n",
                node_count,
                kla::count_severity(diagnostics, kla::Severity::Error),
                kla::count_severity(diagnostics, kla::Severity::Warning),
                kla::count_severity(diagnostics, kla::Severity::Note));
        }
        const size_t errors = kla::count_severity(diagnostics, kla::Severity::Error);
        const size_t warnings = kla::count_severity(diagnostics, kla::Severity::Warning);
        return errors > 0 || (opts.strict && warnings > 0) ? 1 : 0;
    }

    kla::LintOptions lint_options;
    for (const std::string& name : opts.devices) {
        if (!kl::sim::DeviceRegistry::global().contains(name)) {
            std::fprintf(stderr, "kl-lint: unknown device '%s'; known devices:\n",
                         name.c_str());
            for (const auto& d : kl::sim::DeviceRegistry::global().all()) {
                std::fprintf(stderr, "  %s\n", d.name.c_str());
            }
            return 2;
        }
        lint_options.devices.push_back(kl::sim::DeviceRegistry::global().by_name(name));
    }

    std::vector<klc::KernelDef> defs;
    std::vector<kla::Diagnostic> diagnostics;
    try {
        if (opts.builtin) {
            defs = builtin_definitions();
            for (const klc::KernelDef& def : defs) {
                std::vector<kla::Diagnostic> d = kla::lint_kernel(def, lint_options);
                diagnostics.insert(diagnostics.end(), d.begin(), d.end());
            }
        }
        for (const std::string& file : opts.files) {
            std::string name =
                opts.kernel_name.empty() ? file_stem(file) : opts.kernel_name;
            std::vector<kla::Diagnostic> d = kla::lint_annotated_source(
                name, klc::KernelSource(file), lint_options);
            diagnostics.insert(diagnostics.end(), d.begin(), d.end());
            // Track the definition for --wisdom when the source parses.
            if (!kla::has_errors(d)) {
                try {
                    defs.push_back(
                        klc::builder_from_annotated_source(name, klc::KernelSource(file))
                            .build());
                } catch (const kl::Error&) {
                    // already reported as a KL000 diagnostic
                }
            }
        }
        if (!opts.wisdom_path.empty()) {
            if (defs.size() != 1) {
                std::fprintf(
                    stderr,
                    "kl-lint: --wisdom requires exactly one linted definition "
                    "(got %zu)\n",
                    defs.size());
                return 2;
            }
            klc::WisdomFile wisdom =
                klc::WisdomFile::load(opts.wisdom_path, defs.front().key());
            std::vector<kla::Diagnostic> d =
                kla::lint_wisdom(defs.front(), wisdom, opts.wisdom_path, lint_options);
            diagnostics.insert(diagnostics.end(), d.begin(), d.end());
        }
    } catch (const kl::Error& e) {
        std::fprintf(stderr, "kl-lint: %s\n", e.what());
        return 2;
    }

    if (opts.json_output) {
        print_json_report(diagnostics, defs.size(), 0, /*graph_mode=*/false);
    } else {
        // Most severe first, stable within a severity.
        std::stable_sort(
            diagnostics.begin(),
            diagnostics.end(),
            [](const kla::Diagnostic& a, const kla::Diagnostic& b) {
                return severity_rank(a.severity) > severity_rank(b.severity);
            });
        for (const kla::Diagnostic& d : diagnostics) {
            if (!opts.notes && d.severity == kla::Severity::Note) {
                continue;
            }
            std::fprintf(stderr, "%s\n", d.render().c_str());
        }
        std::fprintf(
            stderr,
            "kl-lint: %zu definition(s): %zu error(s), %zu warning(s), %zu note(s)\n",
            defs.size(),
            kla::count_severity(diagnostics, kla::Severity::Error),
            kla::count_severity(diagnostics, kla::Severity::Warning),
            kla::count_severity(diagnostics, kla::Severity::Note));
    }

    size_t errors = kla::count_severity(diagnostics, kla::Severity::Error);
    size_t warnings = kla::count_severity(diagnostics, kla::Severity::Warning);

    if (errors > 0 || (opts.strict && warnings > 0)) {
        return 1;
    }
    return 0;
}
