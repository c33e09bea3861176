// Tests of the kl-lint static analysis (src/analysis): one defective kernel
// per check KL001..KL005, the Diagnostic rendering, the enforcement modes
// (KERNEL_LAUNCHER_LINT=off|warn|error) wired into WisdomKernel, and the
// signature/argument helpers the analysis is built on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "analysis/lint.hpp"
#include "core/kernel_launcher.hpp"
#include "nvrtcsim/lexer.hpp"
#include "nvrtcsim/registry.hpp"
#include "util/fs.hpp"

namespace kl::analysis {
namespace {

using core::Config;
using core::Expr;
using core::KernelArg;
using core::KernelBuilder;
using core::KernelSource;
using core::LintMode;
using core::ProblemSize;
using core::ScalarType;
using core::Value;
using core::WisdomFile;
using core::WisdomRecord;
using core::WisdomSettings;

// A self-contained kernel source: no headers, every tunable referenced, a
// parseable three-parameter signature. The healthy baseline every test
// perturbs in exactly one way.
constexpr const char* kHealthySource = R"cu(
template<int block_size>
__global__ void probe(float* out, const float* in, int n) {
    int i = static_cast<int>(blockIdx.x) * block_size + static_cast<int>(threadIdx.x);
    if (i < n) {
        out[i] = in[i] * 2.0f;
    }
}
)cu";

KernelBuilder healthy_builder() {
    KernelBuilder builder("probe", KernelSource::inline_source("probe.cu", kHealthySource));
    auto bs = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(core::arg2).template_args(bs).block_size(bs).output_arg(0);
    return builder;
}

size_t count_code(
    const std::vector<Diagnostic>& diags,
    const std::string& code,
    Severity severity) {
    size_t n = 0;
    for (const Diagnostic& d : diags) {
        if (d.code == code && d.severity == severity) {
            n++;
        }
    }
    return n;
}

bool message_mentions(
    const std::vector<Diagnostic>& diags,
    const std::string& code,
    const std::string& needle) {
    for (const Diagnostic& d : diags) {
        if (d.code == code && d.message.find(needle) != std::string::npos) {
            return true;
        }
    }
    return false;
}

// --- KL001: configuration-space emptiness -------------------------------------

TEST(Lint, HealthyKernelIsClean) {
    std::vector<Diagnostic> diags = lint_kernel(healthy_builder().build());
    EXPECT_TRUE(diags.empty()) << render_all(diags);
}

TEST(Lint, KL001EmptySpaceExhaustiveIsError) {
    KernelBuilder builder = healthy_builder();
    builder.restriction(Expr::param("block_size") > 100000);
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_GE(count_code(diags, "KL001", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL001", "empty")) << render_all(diags);
}

TEST(Lint, KL001DefaultConfigExcludedIsError) {
    KernelBuilder builder = healthy_builder();
    // The default (first value, 32) violates the restriction; the space
    // itself is non-empty.
    builder.restriction(Expr::param("block_size") >= 64);
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_GE(count_code(diags, "KL001", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL001", "default configuration"))
        << render_all(diags);
    EXPECT_FALSE(message_mentions(diags, "KL001", "empty")) << render_all(diags);
}

TEST(Lint, KL001UnsatisfiableSampledSpaceIsWarning) {
    KernelBuilder builder = healthy_builder();
    builder.restriction(Expr::param("block_size") > 100000);
    // 4 x 6^5 = 31,104 points, above the 4096-point exhaustive limit: the
    // space is sampled.
    for (const char* knob : {"K1", "K2", "K3", "K4", "K5"}) {
        builder.tune(knob, {1, 2, 3, 4, 5, 6});
    }
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_GE(count_code(diags, "KL001", Severity::Warning), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL001", "random samples")) << render_all(diags);
}

// --- KL002: tunable/source cross-references -----------------------------------

TEST(Lint, KL002UndeclaredParameterReferenceIsError) {
    KernelBuilder builder = healthy_builder();
    builder.define("SCALE", Expr::param("bogus_knob"));
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_GE(count_code(diags, "KL002", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL002", "bogus_knob")) << render_all(diags);
}

TEST(Lint, KL002UnusedTunableIsWarning) {
    KernelBuilder builder = healthy_builder();
    builder.tune("DEAD_KNOB", {1, 2, 4});
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_EQ(count_code(diags, "KL002", Severity::Warning), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL002", "DEAD_KNOB")) << render_all(diags);
}

TEST(Lint, KL002SoftenedToNoteWhenSourceHasIncludes) {
    std::string source = std::string("#include \"defs.h\"\n") + kHealthySource;
    KernelBuilder builder("probe", KernelSource::inline_source("probe.cu", source));
    auto bs = builder.tune("block_size", {32, 64});
    builder.tune("DEAD_KNOB", {1, 2});
    builder.problem_size(core::arg2).template_args(bs).block_size(bs).output_arg(0);
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_EQ(count_code(diags, "KL002", Severity::Warning), 0u) << render_all(diags);
    EXPECT_EQ(count_code(diags, "KL002", Severity::Note), 1u) << render_all(diags);
}

TEST(Lint, KL002UnusedDefineIsWarning) {
    KernelBuilder builder = healthy_builder();
    builder.define("NEVER_USED", Expr(7));
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_EQ(count_code(diags, "KL002", Severity::Warning), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL002", "NEVER_USED")) << render_all(diags);
}

TEST(Lint, KL002SeesThroughPragmaAnnotations) {
    // The tunable's own declaration line must not count as a "reference":
    // DEAD is named only inside #pragma kernel_launcher text.
    std::string dir = make_temp_dir("kl-lint");
    std::string path = path_join(dir, "demo.cu");
    write_text_file(
        path,
        "#pragma kernel_launcher tune BLOCK_SIZE(64, 128)\n"
        "#pragma kernel_launcher tune DEAD(1, 2)\n"
        "#pragma kernel_launcher problem_size(arg2)\n"
        "#pragma kernel_launcher block_size(BLOCK_SIZE)\n"
        "__global__ void demo(float* data, float f, int n) {\n"
        "    int i = blockIdx.x * BLOCK_SIZE + threadIdx.x;\n"
        "    if (i < n) data[i] *= f;\n"
        "}\n");
    std::vector<Diagnostic> diags = lint_annotated_source("demo", core::KernelSource(path));
    EXPECT_EQ(count_code(diags, "KL002", Severity::Warning), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL002", "DEAD")) << render_all(diags);
}

// --- KL003: device resource limits --------------------------------------------

TEST(Lint, KL003DefaultConfigOverThreadLimitIsError) {
    KernelBuilder builder("probe", KernelSource::inline_source("probe.cu", kHealthySource));
    auto bs = builder.tune("block_size", {2048, 4096});
    builder.problem_size(core::arg2).template_args(bs).block_size(bs).output_arg(0);
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    // Every registered device caps blocks at 1024 threads.
    EXPECT_GE(count_code(diags, "KL003", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL003", "threads per block")) << render_all(diags);
}

TEST(Lint, KL003ScannedConfigOverThreadLimitIsWarning) {
    KernelBuilder builder("probe", KernelSource::inline_source("probe.cu", kHealthySource));
    auto bs = builder.tune("block_size", {256, 2048});
    builder.problem_size(core::arg2).template_args(bs).block_size(bs).output_arg(0);
    LintOptions options;
    options.devices = {sim::DeviceRegistry::global().by_name("NVIDIA RTX A4000")};
    std::vector<Diagnostic> diags = lint_kernel(builder.build(), options);
    EXPECT_EQ(count_code(diags, "KL003", Severity::Error), 0u) << render_all(diags);
    EXPECT_EQ(count_code(diags, "KL003", Severity::Warning), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL003", "1 of 2 scanned")) << render_all(diags);
}

TEST(Lint, KL003DefaultConfigOverSharedMemoryIsError) {
    KernelBuilder builder = healthy_builder();
    builder.shared_memory(Expr(1 << 20));  // 1 MiB > 48 KiB per block
    LintOptions options;
    options.devices = {sim::DeviceRegistry::global().by_name("NVIDIA RTX A4000")};
    std::vector<Diagnostic> diags = lint_kernel(builder.build(), options);
    EXPECT_GE(count_code(diags, "KL003", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL003", "shared memory")) << render_all(diags);
}

std::vector<std::string> kl000_messages(const std::vector<Diagnostic>& diags) {
    std::vector<std::string> out;
    for (const Diagnostic& d : diags) {
        if (d.code == "KL000") {
            out.push_back(d.message);
        }
    }
    return out;
}

TEST(Lint, KL003UnevaluableProblemSizeIsOneNote) {
    KernelBuilder builder = healthy_builder();
    builder.problem_size(Expr(0));
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    // One note for all devices, and no resource finding.
    EXPECT_EQ(
        kl000_messages(diags),
        std::vector<std::string> {
            "could not evaluate the launch geometry of the default configuration: "
            "problem size evaluated to non-positive value 0 (expression: 0)"})
        << render_all(diags);
    EXPECT_FALSE(message_mentions(diags, "KL003", "")) << render_all(diags);
    EXPECT_EQ(count_code(diags, "KL000", Severity::Note), 1u) << render_all(diags);
}

TEST(Lint, KL003UnevaluableBlockSizeIsOneNote) {
    KernelBuilder builder = healthy_builder();
    builder.block_size(Expr(0));
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_EQ(
        kl000_messages(diags),
        std::vector<std::string> {
            "could not evaluate the launch geometry of the default configuration: "
            "block size x evaluated to non-positive value 0 (expression: 0)"})
        << render_all(diags);
    EXPECT_EQ(count_code(diags, "KL000", Severity::Note), 1u) << render_all(diags);
}

// --- KL004: signature consistency ---------------------------------------------

TEST(Lint, KL004OutputArgOutOfRangeIsError) {
    KernelBuilder builder = healthy_builder();
    builder.output_arg(7);
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_GE(count_code(diags, "KL004", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL004", "out of range")) << render_all(diags);
}

TEST(Lint, KL004NonPointerOutputArgIsWarning) {
    KernelBuilder builder = healthy_builder();
    builder.output_arg(2);  // `int n`
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_EQ(count_code(diags, "KL004", Severity::Warning), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL004", "not a pointer")) << render_all(diags);
}

TEST(Lint, KL004ExpressionOverPointerArgumentIsError) {
    KernelBuilder builder("probe", KernelSource::inline_source("probe.cu", kHealthySource));
    auto bs = builder.tune("block_size", {32, 64});
    // arg0 is `float* out`: it has no scalar value to size the problem with.
    builder.problem_size(core::arg0).template_args(bs).block_size(bs);
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_GE(count_code(diags, "KL004", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL004", "pointer")) << render_all(diags);
}

TEST(Lint, KL004MissingGlobalDeclarationIsNote) {
    KernelBuilder builder(
        "probe",
        KernelSource::inline_source(
            "probe.cu", "__global__ void something_else(float* out, int n) { }"));
    auto bs = builder.tune("block_size", {32});
    builder.problem_size(core::arg1).block_size(bs);
    std::vector<Diagnostic> diags = lint_kernel(builder.build());
    EXPECT_EQ(count_code(diags, "KL004", Severity::Note), 1u) << render_all(diags);
}

// --- KL004 at launch time: lint_launch_args -----------------------------------

std::vector<KernelArg> good_args() {
    return {
        KernelArg::buffer(1, ScalarType::F32, 16),
        KernelArg::buffer(2, ScalarType::F32, 16),
        KernelArg::scalar<int32_t>(16),
    };
}

TEST(LintLaunchArgs, MatchingArgumentsAreClean) {
    std::vector<Diagnostic> diags = lint_launch_args(healthy_builder().build(), good_args());
    EXPECT_TRUE(diags.empty()) << render_all(diags);
}

TEST(LintLaunchArgs, ArityMismatchIsError) {
    std::vector<KernelArg> args = good_args();
    args.pop_back();
    std::vector<Diagnostic> diags = lint_launch_args(healthy_builder().build(), args);
    EXPECT_EQ(count_code(diags, "KL004", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL004", "expects 3 argument(s)"))
        << render_all(diags);
}

TEST(LintLaunchArgs, ScalarForPointerParameterIsError) {
    std::vector<KernelArg> args = good_args();
    args[0] = KernelArg::scalar<float>(1.0f);
    std::vector<Diagnostic> diags = lint_launch_args(healthy_builder().build(), args);
    EXPECT_EQ(count_code(diags, "KL004", Severity::Error), 1u) << render_all(diags);
}

TEST(LintLaunchArgs, BufferForScalarParameterIsError) {
    std::vector<KernelArg> args = good_args();
    args[2] = KernelArg::buffer(3, ScalarType::I32, 1);
    std::vector<Diagnostic> diags = lint_launch_args(healthy_builder().build(), args);
    EXPECT_EQ(count_code(diags, "KL004", Severity::Error), 1u) << render_all(diags);
}

TEST(LintLaunchArgs, ScalarTypeMismatchIsWarning) {
    std::vector<KernelArg> args = good_args();
    args[2] = KernelArg::scalar<float>(16.0f);  // parameter is `int n`
    std::vector<Diagnostic> diags = lint_launch_args(healthy_builder().build(), args);
    EXPECT_EQ(count_code(diags, "KL004", Severity::Warning), 1u) << render_all(diags);
}

TEST(LintLaunchArgs, UnreadableSourceYieldsNoFindings) {
    KernelBuilder builder("probe", KernelSource("/nonexistent/probe.cu"));
    auto bs = builder.tune("block_size", {32});
    builder.problem_size(core::arg2).block_size(bs);
    EXPECT_TRUE(lint_launch_args(builder.build(), good_args()).empty());
}

// --- KL005: wisdom files ------------------------------------------------------

WisdomRecord record_with(Config config, const std::string& device) {
    WisdomRecord record;
    record.problem_size = ProblemSize(1024);
    record.device_name = device;
    record.device_architecture = "Ampere";
    record.config = std::move(config);
    record.time_seconds = 1e-3;
    return record;
}

TEST(LintWisdom, InSpaceRecordIsClean) {
    core::KernelDef def = healthy_builder().build();
    WisdomFile wisdom("probe");
    Config config;
    config.set("block_size", Value(64));
    wisdom.add(record_with(config, "NVIDIA RTX A4000"));
    EXPECT_TRUE(lint_wisdom(def, wisdom, "probe.wisdom.json").empty());
}

TEST(LintWisdom, UnknownParameterIsError) {
    core::KernelDef def = healthy_builder().build();
    WisdomFile wisdom("probe");
    Config config;
    config.set("block_size", Value(64));
    config.set("TILE", Value(4));
    wisdom.add(record_with(config, "NVIDIA RTX A4000"));
    std::vector<Diagnostic> diags = lint_wisdom(def, wisdom, "probe.wisdom.json");
    EXPECT_EQ(count_code(diags, "KL005", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL005", "unknown parameter 'TILE'"))
        << render_all(diags);
}

TEST(LintWisdom, DisallowedValueIsError) {
    core::KernelDef def = healthy_builder().build();
    WisdomFile wisdom("probe");
    Config config;
    config.set("block_size", Value(48));  // not in {32, 64, 128, 256}
    wisdom.add(record_with(config, "NVIDIA RTX A4000"));
    std::vector<Diagnostic> diags = lint_wisdom(def, wisdom, "probe.wisdom.json");
    EXPECT_EQ(count_code(diags, "KL005", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL005", "not in the declared value list"))
        << render_all(diags);
}

TEST(LintWisdom, MissingParameterIsError) {
    core::KernelDef def = healthy_builder().build();
    WisdomFile wisdom("probe");
    wisdom.add(record_with(Config(), "NVIDIA RTX A4000"));
    std::vector<Diagnostic> diags = lint_wisdom(def, wisdom, "probe.wisdom.json");
    EXPECT_EQ(count_code(diags, "KL005", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL005", "does not assign")) << render_all(diags);
}

TEST(LintWisdom, RestrictionViolationIsError) {
    KernelBuilder builder = healthy_builder();
    builder.restriction(Expr::param("block_size") <= 128);
    core::KernelDef def = builder.build();
    WisdomFile wisdom("probe");
    Config config;
    config.set("block_size", Value(256));  // in the value list, outside the space
    wisdom.add(record_with(config, "NVIDIA RTX A4000"));
    std::vector<Diagnostic> diags = lint_wisdom(def, wisdom, "probe.wisdom.json");
    EXPECT_EQ(count_code(diags, "KL005", Severity::Error), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL005", "restrictions")) << render_all(diags);
}

TEST(LintWisdom, UnknownDeviceIsWarning) {
    core::KernelDef def = healthy_builder().build();
    WisdomFile wisdom("probe");
    Config config;
    config.set("block_size", Value(64));
    wisdom.add(record_with(config, "NVIDIA Imaginary GPU 9000"));
    std::vector<Diagnostic> diags = lint_wisdom(def, wisdom, "probe.wisdom.json");
    EXPECT_EQ(count_code(diags, "KL005", Severity::Warning), 1u) << render_all(diags);
    EXPECT_TRUE(message_mentions(diags, "KL005", "unknown device")) << render_all(diags);
}

TEST(LintWisdom, ForeignKernelNameIsError) {
    core::KernelDef def = healthy_builder().build();
    WisdomFile wisdom("someone_else");
    std::vector<Diagnostic> diags = lint_wisdom(def, wisdom, "probe.wisdom.json");
    EXPECT_EQ(count_code(diags, "KL005", Severity::Error), 1u) << render_all(diags);
}

// --- annotated sources --------------------------------------------------------

TEST(LintAnnotated, MalformedPragmaIsKL000Error) {
    std::string dir = make_temp_dir("kl-lint");
    std::string path = path_join(dir, "bad.cu");
    write_text_file(
        path,
        "#pragma kernel_launcher tune\n"
        "__global__ void bad(float* out, int n) { }\n");
    std::vector<Diagnostic> diags = lint_annotated_source("bad", core::KernelSource(path));
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "KL000");
    EXPECT_EQ(diags[0].severity, Severity::Error);
    EXPECT_EQ(diags[0].location.line, 1);
}

TEST(LintAnnotated, WellFormedPragmaIsLinted) {
    std::string dir = make_temp_dir("kl-lint");
    std::string path = path_join(dir, "scale.cu");
    write_text_file(
        path,
        "#pragma kernel_launcher tune BLOCK_SIZE(32, 64, 128)\n"
        "#pragma kernel_launcher problem_size(arg2)\n"
        "#pragma kernel_launcher block_size(BLOCK_SIZE)\n"
        "__global__ void scale(float* data, float factor, int n) {\n"
        "    int i = blockIdx.x * BLOCK_SIZE + threadIdx.x;\n"
        "    if (i < n) data[i] *= factor;\n"
        "}\n");
    std::vector<Diagnostic> diags = lint_annotated_source("scale", core::KernelSource(path));
    EXPECT_TRUE(diags.empty()) << render_all(diags);
}

// --- Diagnostic rendering -----------------------------------------------------

TEST(Diagnostics, RenderIsCompilerStyle) {
    Diagnostic d;
    d.code = "KL002";
    d.severity = Severity::Warning;
    d.message = "tunable 'TILE_X' is never referenced";
    d.kernel = "advec_u";
    d.location = {"advec_u.cu", 33};
    EXPECT_EQ(
        d.render(),
        "advec_u.cu:33: warning: KL002: tunable 'TILE_X' is never referenced "
        "[kernel 'advec_u']");
}

TEST(Diagnostics, RenderOmitsZeroLineAndEmptyKernel) {
    Diagnostic d;
    d.code = "KL001";
    d.severity = Severity::Error;
    d.message = "the configuration space is empty";
    d.location = {"probe.cu", 0};
    EXPECT_EQ(d.render(), "probe.cu: error: KL001: the configuration space is empty");
}

TEST(Diagnostics, CountsAndErrorPredicate) {
    std::vector<Diagnostic> diags(3);
    diags[0].severity = Severity::Note;
    diags[1].severity = Severity::Warning;
    diags[2].severity = Severity::Warning;
    EXPECT_FALSE(has_errors(diags));
    EXPECT_EQ(count_severity(diags, Severity::Warning), 2u);
    diags[0].severity = Severity::Error;
    EXPECT_TRUE(has_errors(diags));
}

TEST(Diagnostics, ToJsonEmitsTheFullStableSchema) {
    Diagnostic d;
    d.code = "KL002";
    d.severity = Severity::Warning;
    d.message = "tunable 'TILE_X' is never referenced";
    d.kernel = "advec_u";
    d.location = {"advec_u.cu", 33};
    json::Value v = d.to_json();
    EXPECT_EQ(v["code"].as_string(), "KL002");
    EXPECT_EQ(v["severity"].as_string(), "warning");
    EXPECT_EQ(v["kernel"].as_string(), "advec_u");
    EXPECT_EQ(v["file"].as_string(), "advec_u.cu");
    EXPECT_EQ(v["line"].as_int(), 33);
    EXPECT_EQ(v["message"].as_string(), d.message);
    // All six keys are always present, even when empty/zero.
    json::Value empty = Diagnostic().to_json();
    for (const char* key : {"code", "severity", "kernel", "file", "line", "message"}) {
        EXPECT_TRUE(empty.contains(key)) << key;
    }
}

TEST(Diagnostics, EmissionOrderIsDeterministic) {
    // Every lint entry point returns (code, subject)-sorted findings, so
    // reports are byte-identical across runs.
    core::KernelBuilder builder(
        "messy",
        core::KernelSource::inline_source(
            "messy.cu",
            "__global__ void messy(float* a, int n) { a[threadIdx.x] = n; }"));
    builder.tune("UNUSED_A", {1, 2});
    builder.tune("UNUSED_B", {1, 2});
    builder.define("UNUSED_C", Expr(4));
    builder.output_arg(5);  // out of range: KL004 alongside the KL002s
    std::vector<Diagnostic> first = lint_kernel(builder.build());
    std::vector<Diagnostic> second = lint_kernel(builder.build());
    ASSERT_GE(first.size(), 3u);
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end(), diagnostic_order));
    EXPECT_EQ(render_all(first), render_all(second));

    // sort_diagnostics is a stable sort over diagnostic_order.
    std::vector<Diagnostic> shuffled = {first.rbegin(), first.rend()};
    sort_diagnostics(shuffled);
    for (size_t i = 0; i < first.size(); i++) {
        EXPECT_EQ(shuffled[i].code, first[i].code) << i;
    }
}

// --- enforcement modes --------------------------------------------------------

std::vector<Diagnostic> one_error() {
    Diagnostic d;
    d.code = "KL001";
    d.severity = Severity::Error;
    d.message = "the configuration space is empty";
    d.kernel = "probe";
    return {d};
}

TEST(Enforce, OffIgnoresErrors) {
    EXPECT_NO_THROW(enforce(one_error(), LintMode::Off, "probe"));
}

TEST(Enforce, WarnReportsWithoutThrowing) {
    EXPECT_NO_THROW(enforce(one_error(), LintMode::Warn, "probe"));
}

TEST(Enforce, ErrorModeThrowsDefinitionError) {
    try {
        enforce(one_error(), LintMode::Error, "probe");
        FAIL() << "expected DefinitionError";
    } catch (const DefinitionError& e) {
        EXPECT_NE(std::string(e.what()).find("KL001"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("probe"), std::string::npos);
    }
}

TEST(Enforce, ErrorModeToleratesWarnings) {
    std::vector<Diagnostic> diags = one_error();
    diags[0].severity = Severity::Warning;
    EXPECT_NO_THROW(enforce(diags, LintMode::Error, "probe"));
}

// --- registration-time wiring through WisdomKernel ----------------------------

WisdomSettings error_settings() {
    return WisdomSettings().wisdom_dir(make_temp_dir("kl-lint")).lint_mode(LintMode::Error);
}

TEST(Registration, KL001FailsRegistrationInErrorMode) {
    KernelBuilder builder = healthy_builder();
    builder.restriction(Expr::param("block_size") > 100000);
    EXPECT_THROW(core::WisdomKernel(builder, error_settings()), DefinitionError);
    EXPECT_NO_THROW(core::WisdomKernel(
        builder, WisdomSettings().lint_mode(LintMode::Off)));
}

TEST(Registration, KL002FailsRegistrationInErrorMode) {
    KernelBuilder builder = healthy_builder();
    builder.define("SCALE", Expr::param("bogus_knob"));
    EXPECT_THROW(core::WisdomKernel(builder, error_settings()), DefinitionError);
    EXPECT_NO_THROW(core::WisdomKernel(
        builder, WisdomSettings().lint_mode(LintMode::Off)));
}

TEST(Registration, KL003FailsRegistrationInErrorMode) {
    KernelBuilder builder("probe", KernelSource::inline_source("probe.cu", kHealthySource));
    auto bs = builder.tune("block_size", {2048});
    builder.problem_size(core::arg2).template_args(bs).block_size(bs);
    EXPECT_THROW(core::WisdomKernel(builder, error_settings()), DefinitionError);
    EXPECT_NO_THROW(core::WisdomKernel(
        builder, WisdomSettings().lint_mode(LintMode::Off)));
}

TEST(Registration, KL004FailsRegistrationInErrorMode) {
    KernelBuilder builder = healthy_builder();
    builder.output_arg(7);
    EXPECT_THROW(core::WisdomKernel(builder, error_settings()), DefinitionError);
    EXPECT_NO_THROW(core::WisdomKernel(
        builder, WisdomSettings().lint_mode(LintMode::Off)));
}

TEST(Registration, KL005FailsRegistrationInErrorMode) {
    WisdomSettings settings = error_settings();
    {
        WisdomFile wisdom("probe");
        Config config;
        config.set("block_size", Value(48));  // outside the declared value list
        wisdom.add(record_with(config, "NVIDIA RTX A4000"));
        wisdom.save(settings.wisdom_path("probe"));
    }
    EXPECT_THROW(core::WisdomKernel(healthy_builder(), settings), DefinitionError);
    EXPECT_NO_THROW(core::WisdomKernel(
        healthy_builder(), settings.lint_mode(LintMode::Off)));
}

TEST(Registration, HealthyKernelRegistersInErrorMode) {
    EXPECT_NO_THROW(core::WisdomKernel(healthy_builder(), error_settings()));
}

TEST(Registration, WarnModeKeepsDefectiveRegistrationWorking) {
    // Default mode must preserve today's behavior: the defect is reported
    // on stderr but registration succeeds.
    KernelBuilder builder = healthy_builder();
    builder.output_arg(7);
    EXPECT_NO_THROW(core::WisdomKernel(builder, WisdomSettings()));
}

TEST(Registration, LaunchArgMismatchThrowsInErrorMode) {
    auto context = sim::Context::create("NVIDIA RTX A4000");
    rtc::register_builtin_kernels();
    KernelBuilder builder(
        "vector_add",
        KernelSource::inline_source(
            "vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    auto bs = builder.tune("block_size", {32, 64});
    builder.problem_size(core::arg3).template_args(bs).block_size(bs);
    core::WisdomKernel kernel(builder, error_settings());
    // Three args for a four-parameter kernel: rejected before compilation.
    std::vector<KernelArg> args = {
        KernelArg::buffer(1, ScalarType::F32, 8),
        KernelArg::buffer(2, ScalarType::F32, 8),
        KernelArg::scalar<int32_t>(8),
    };
    EXPECT_THROW(kernel.launch_args(args), DefinitionError);
    // The rejection repeats: the lint is not latched on failure.
    EXPECT_THROW(kernel.launch_args(args), DefinitionError);
}

// --- lint mode parsing --------------------------------------------------------

TEST(LintMode, ParseAcceptsDocumentedSpellings) {
    EXPECT_EQ(core::parse_lint_mode("off"), LintMode::Off);
    EXPECT_EQ(core::parse_lint_mode("0"), LintMode::Off);
    EXPECT_EQ(core::parse_lint_mode("none"), LintMode::Off);
    EXPECT_EQ(core::parse_lint_mode("warn"), LintMode::Warn);
    EXPECT_EQ(core::parse_lint_mode("WARN"), LintMode::Warn);
    EXPECT_EQ(core::parse_lint_mode(""), LintMode::Warn);
    EXPECT_EQ(core::parse_lint_mode("error"), LintMode::Error);
    EXPECT_EQ(core::parse_lint_mode("strict"), LintMode::Error);
    EXPECT_THROW(core::parse_lint_mode("banana"), Error);
}

TEST(LintMode, FromEnvReadsKernelLauncherLint) {
    ASSERT_EQ(setenv("KERNEL_LAUNCHER_LINT", "error", 1), 0);
    EXPECT_EQ(WisdomSettings::from_env().lint_mode(), LintMode::Error);
    ASSERT_EQ(setenv("KERNEL_LAUNCHER_LINT", "off", 1), 0);
    EXPECT_EQ(WisdomSettings::from_env().lint_mode(), LintMode::Off);
    ASSERT_EQ(unsetenv("KERNEL_LAUNCHER_LINT"), 0);
    EXPECT_EQ(WisdomSettings::from_env().lint_mode(), LintMode::Warn);
}

// --- signature parsing and scalar matching ------------------------------------

TEST(SignatureParse, PlainKernel) {
    auto sig = core::parse_kernel_signature(kHealthySource, "probe");
    ASSERT_TRUE(sig.has_value());
    ASSERT_EQ(sig->params.size(), 3u);
    EXPECT_EQ(sig->params[0].type, "float");
    EXPECT_TRUE(sig->params[0].is_pointer);
    EXPECT_EQ(sig->params[1].type, "float");
    EXPECT_TRUE(sig->params[1].is_pointer);
    EXPECT_EQ(sig->params[2].type, "int");
    EXPECT_FALSE(sig->params[2].is_pointer);
    EXPECT_EQ(sig->params[2].name, "n");
}

TEST(SignatureParse, SkipsLaunchBoundsAndComments) {
    const char* source =
        "__global__ void __launch_bounds__(256, 2)\n"
        "k(/* output */ double* out, long long stride) { }\n";
    auto sig = core::parse_kernel_signature(source, "k");
    ASSERT_TRUE(sig.has_value());
    ASSERT_EQ(sig->params.size(), 2u);
    EXPECT_EQ(sig->params[0].type, "double");
    EXPECT_TRUE(sig->params[0].is_pointer);
    EXPECT_EQ(sig->params[1].type, "long long");
    EXPECT_FALSE(sig->params[1].is_pointer);
    EXPECT_EQ(sig->line, 2);  // the line that first names the kernel
}

TEST(SignatureParse, DependentTypeKeepsSpelling) {
    const char* source =
        "template<typename real>\n"
        "__global__ void axpy(real* y, const real* x, real alpha, int n) { }\n";
    auto sig = core::parse_kernel_signature(source, "axpy");
    ASSERT_TRUE(sig.has_value());
    ASSERT_EQ(sig->params.size(), 4u);
    EXPECT_EQ(sig->params[2].type, "real");
    EXPECT_FALSE(sig->params[2].is_pointer);
}

TEST(SignatureParse, MissingKernelIsNullopt) {
    EXPECT_FALSE(core::parse_kernel_signature("int main() { }", "probe").has_value());
}

TEST(ScalarMatching, CudaTypeCompatibility) {
    EXPECT_TRUE(core::scalar_matches_cuda_type(ScalarType::F32, "float"));
    EXPECT_FALSE(core::scalar_matches_cuda_type(ScalarType::F64, "float"));
    EXPECT_FALSE(core::scalar_matches_cuda_type(ScalarType::F32, "int"));
    EXPECT_TRUE(core::scalar_matches_cuda_type(ScalarType::I32, "int"));
    EXPECT_TRUE(core::scalar_matches_cuda_type(ScalarType::I64, "long long"));
    EXPECT_FALSE(core::scalar_matches_cuda_type(ScalarType::I32, "long long"));
    // Dependent/unknown types cannot be judged statically.
    EXPECT_TRUE(core::scalar_matches_cuda_type(ScalarType::F64, "real"));
}

// --- the lexer underpinning the source checks ---------------------------------

TEST(Lexer, IdentifiersSkipCommentsAndStrings) {
    std::set<std::string> ids = rtc::source_identifiers(
        "int alpha = 1; // beta\n"
        "/* gamma */ const char* s = \"delta\";\n");
    EXPECT_EQ(ids.count("alpha"), 1u);
    EXPECT_EQ(ids.count("beta"), 0u);
    EXPECT_EQ(ids.count("gamma"), 0u);
    EXPECT_EQ(ids.count("delta"), 0u);
}

TEST(Lexer, IdentifierLineIsOneBased) {
    EXPECT_EQ(rtc::identifier_line("\n\n__global__ void k() {}", "k"), 3);
    EXPECT_EQ(rtc::identifier_line("nothing here", "k"), 0);
}

TEST(Lexer, IncludeDetection) {
    EXPECT_TRUE(rtc::has_include_directives("  #include <cstdio>\n"));
    EXPECT_TRUE(rtc::has_include_directives("#  include \"defs.h\"\n"));
    EXPECT_FALSE(rtc::has_include_directives("// #include \"defs.h\"\n"));
    EXPECT_FALSE(rtc::has_include_directives("int include = 0;\n"));
}

}  // namespace
}  // namespace kl::analysis
