// Tests for the graph data-flow analyzer (src/analysis/graph_lint.*,
// docs/LINTING.md): footprint extraction with argument-role resolution,
// the happens-before reachability relation, the KL006-KL009 checks, the
// 100-seed differential between the static hazard pass and a
// shadow-memory reference model defined here, and the instantiate/replay
// wiring under the KERNEL_LAUNCHER_LINT modes.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "analysis/graph_lint.hpp"
#include "core/kernel_launcher.hpp"
#include "graph/graph.hpp"
#include "nvrtcsim/registry.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace kl::analysis {
namespace {

using graph::GraphCapture;
using graph::LaunchGraph;
using graph::NodeId;

/// Builds a synthetic footprint directly (no graph capture needed): the
/// unit under test for the pure-analysis checks.
NodeFootprint fp(
    std::vector<size_t> deps,
    std::vector<ByteInterval> reads = {},
    std::vector<ByteInterval> writes = {},
    bool copies_out = false) {
    NodeFootprint node;
    node.label = "synthetic";
    node.deps = std::move(deps);
    node.reads = std::move(reads);
    node.writes = std::move(writes);
    node.copies_out = copies_out;
    return node;
}

std::vector<Diagnostic>
with_code(const std::vector<Diagnostic>& diags, const std::string& code) {
    std::vector<Diagnostic> out;
    for (const Diagnostic& d : diags) {
        if (d.code == code) {
            out.push_back(d);
        }
    }
    return out;
}

/// Restores the previous graph lint override on scope exit, so tests can
/// force a mode without leaking it into later tests.
struct ScopedLintOverride {
    explicit ScopedLintOverride(std::optional<core::LintMode> mode):
        previous_(graph::lint_override()) {
        graph::set_lint_override(mode);
    }
    ~ScopedLintOverride() {
        graph::set_lint_override(previous_);
    }

  private:
    std::optional<core::LintMode> previous_;
};

/// Forces a trace mode for the duration of a test and wipes recorded state
/// on entry and exit.
struct ScopedTrace {
    explicit ScopedTrace(trace::Mode m) {
        trace::set_mode(m);
        trace::clear();
    }
    ~ScopedTrace() {
        trace::clear();
        trace::set_mode(trace::Mode::Off);
    }
};

core::KernelBuilder vector_add_builder() {
    rtc::register_builtin_kernels();
    core::KernelBuilder builder(
        "vector_add",
        core::KernelSource::inline_source(
            "vector_add.cu", rtc::builtin_kernel_source("vector_add")));
    core::Expr block_size = builder.tune("block_size", {32, 64, 128, 256});
    builder.problem_size(core::arg3).template_args(block_size).block_size(block_size);
    return builder;
}

core::KernelBuilder saxpy_builder() {
    rtc::register_builtin_kernels();
    core::KernelBuilder builder(
        "saxpy",
        core::KernelSource::inline_source(
            "saxpy.cu", rtc::builtin_kernel_source("saxpy")));
    core::Expr bs = builder.tune("BLOCK_SIZE", {64, 128, 256});
    builder.problem_size(core::arg3).block_size(bs);
    return builder;
}

struct Fixture {
    std::string dir = make_temp_dir("kl-graph-lint");
    std::unique_ptr<sim::Context> context;

    Fixture(): context(sim::Context::create("NVIDIA RTX A4000", sim::ExecutionMode::Functional)) {}

    core::WisdomSettings settings() {
        return core::WisdomSettings().wisdom_dir(dir);
    }
};

uint64_t count_events(
    const std::vector<trace::TraceEvent>& events,
    const std::string& name) {
    uint64_t n = 0;
    for (const trace::TraceEvent& event : events) {
        if (event.name == name) {
            n++;
        }
    }
    return n;
}

// --- ByteInterval -----------------------------------------------------------

TEST(ByteIntervalTest, OverlapAndEmptiness) {
    ByteInterval a {0, 64};
    ByteInterval b {32, 96};
    ByteInterval c {64, 128};
    ByteInterval zero {16, 16};
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_TRUE(b.overlaps(a));
    EXPECT_FALSE(a.overlaps(c));  // half-open: touching is not overlapping
    EXPECT_FALSE(a.overlaps(zero));
    EXPECT_TRUE(zero.empty());
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, (ByteInterval {0, 64}));
    EXPECT_EQ((ByteInterval {0, 16}).to_string(), "[0x0, 0x10)");
}

// --- Reachability -----------------------------------------------------------

TEST(ReachabilityTest, DiamondClosure) {
    // 0 -> {1, 2} -> 3
    std::vector<NodeFootprint> nodes = {fp({}), fp({0}), fp({0}), fp({1, 2})};
    Reachability reach(nodes);
    EXPECT_EQ(reach.size(), 4u);
    EXPECT_TRUE(reach.is_ancestor(0, 1));
    EXPECT_TRUE(reach.is_ancestor(0, 3));  // transitive
    EXPECT_TRUE(reach.is_ancestor(1, 3));
    EXPECT_FALSE(reach.is_ancestor(3, 0));  // strictly directed
    EXPECT_FALSE(reach.is_ancestor(1, 2));  // siblings are unordered
    EXPECT_FALSE(reach.is_ancestor(1, 1));  // strict: never its own ancestor
    EXPECT_TRUE(reach.ordered(0, 3));
    EXPECT_TRUE(reach.ordered(3, 0));  // symmetric
    EXPECT_FALSE(reach.ordered(1, 2));
}

TEST(ReachabilityTest, LongChainCrossesBitsetWords) {
    // 130 nodes exercise the multi-word ancestor bitsets.
    std::vector<NodeFootprint> nodes;
    nodes.push_back(fp({}));
    for (size_t i = 1; i < 130; i++) {
        nodes.push_back(fp({i - 1}));
    }
    Reachability reach(nodes);
    EXPECT_TRUE(reach.is_ancestor(0, 129));
    EXPECT_TRUE(reach.is_ancestor(64, 65));
    EXPECT_TRUE(reach.is_ancestor(63, 128));
    EXPECT_FALSE(reach.is_ancestor(129, 0));
}

TEST(ReachabilityTest, RejectsSelfAndForwardDependencies) {
    EXPECT_THROW(Reachability({fp({0})}), Error);  // depends on itself
    EXPECT_THROW(Reachability({fp({5}), fp({})}), Error);  // forward reference
}

// --- footprint extraction ---------------------------------------------------

NodeFootprint footprint_of(const graph::Node& node) {
    return graph_footprints({node}).front();
}

TEST(NodeFootprintTest, MemoryOperations) {
    graph::Node memset_node;
    memset_node.kind = graph::NodeKind::Memset;
    memset_node.dst = 0x1000;
    memset_node.bytes = 0x100;
    NodeFootprint ms = footprint_of(memset_node);
    EXPECT_EQ(ms.label, "memset");
    EXPECT_TRUE(ms.reads.empty());
    ASSERT_EQ(ms.writes.size(), 1u);
    EXPECT_EQ(ms.writes[0], (ByteInterval {0x1000, 0x1100}));
    EXPECT_FALSE(ms.copies_out);

    graph::Node htod;
    htod.kind = graph::NodeKind::MemcpyHtoD;
    htod.dst = 0x2000;
    htod.bytes = 64;
    NodeFootprint h = footprint_of(htod);
    EXPECT_EQ(h.label, "memcpy htod");
    EXPECT_TRUE(h.reads.empty());  // the host-side read is not device bytes
    ASSERT_EQ(h.writes.size(), 1u);
    EXPECT_EQ(h.writes[0], (ByteInterval {0x2000, 0x2040}));

    graph::Node dtoh;
    dtoh.kind = graph::NodeKind::MemcpyDtoH;
    dtoh.src = 0x3000;
    dtoh.bytes = 64;
    dtoh.deps = {1, 2};
    NodeFootprint d = footprint_of(dtoh);
    EXPECT_EQ(d.label, "memcpy dtoh");
    ASSERT_EQ(d.reads.size(), 1u);
    EXPECT_EQ(d.reads[0], (ByteInterval {0x3000, 0x3040}));
    EXPECT_TRUE(d.writes.empty());
    EXPECT_TRUE(d.copies_out);  // the copied bytes escape the graph
    EXPECT_EQ(d.deps, (std::vector<size_t> {1, 2}));

    graph::Node dtod;
    dtod.kind = graph::NodeKind::MemcpyDtoD;
    dtod.dst = 0x5000;
    dtod.src = 0x4000;
    dtod.bytes = 32;
    NodeFootprint dd = footprint_of(dtod);
    EXPECT_EQ(dd.label, "memcpy dtod");
    ASSERT_EQ(dd.reads.size(), 1u);
    ASSERT_EQ(dd.writes.size(), 1u);
    EXPECT_EQ(dd.reads[0], (ByteInterval {0x4000, 0x4020}));
    EXPECT_EQ(dd.writes[0], (ByteInterval {0x5000, 0x5020}));
}

TEST(NodeFootprintTest, UploadWritesItsDestination) {
    graph::Node upload;
    upload.kind = graph::NodeKind::Upload;
    upload.dst = 0x6000;
    upload.bytes = 0x80;
    NodeFootprint f = footprint_of(upload);
    EXPECT_EQ(f.label, "upload");
    // The payload lives host-side in the recording; only the re-bound
    // destination block is device bytes.
    EXPECT_TRUE(f.reads.empty());
    ASSERT_EQ(f.writes.size(), 1u);
    EXPECT_EQ(f.writes[0], (ByteInterval {0x6000, 0x6080}));
    EXPECT_FALSE(f.copies_out);
}

TEST(NodeFootprintTest, UnorderedUploadReaderPairIsKL006) {
    graph::Node upload;
    upload.kind = graph::NodeKind::Upload;
    upload.dst = 0x6000;
    upload.bytes = 0x80;
    graph::Node reader;
    reader.kind = graph::NodeKind::MemcpyDtoH;
    reader.src = 0x6040;
    reader.bytes = 0x10;

    // No dependency edge: the write/read overlap on [0x6040, 0x6050) is a
    // hazard, exactly as for any other memory node kind.
    std::vector<Diagnostic> diags = lint_footprints(graph_footprints({upload, reader}));
    EXPECT_FALSE(with_code(diags, "KL006").empty());

    // The edge silences it.
    reader.deps = {0};
    diags = lint_footprints(graph_footprints({upload, reader}));
    EXPECT_TRUE(with_code(diags, "KL006").empty());
}

TEST(NodeFootprintTest, ZeroByteOperationsHaveNoFootprint) {
    graph::Node node;
    node.kind = graph::NodeKind::Memset;
    node.dst = 0x1000;
    node.bytes = 0;
    NodeFootprint f = footprint_of(node);
    EXPECT_TRUE(f.reads.empty());
    EXPECT_TRUE(f.writes.empty());
}

TEST(NodeFootprintTest, UndeclaredLaunchArgumentsAreReadWrite) {
    Fixture fx;
    core::WisdomKernel kernel(vector_add_builder(), fx.settings());
    const int n = 16;
    core::DeviceArray<float> c(n), a(n), b(n);
    GraphCapture capture;
    capture.add_launch(kernel, {}, c, a, b, n);
    LaunchGraph g = capture.finish();

    NodeFootprint f = footprint_of(g.nodes()[0]);
    EXPECT_EQ(f.label, "kernel 'vector_add'");
    // vector_add(float*, float*, float*, int): no const qualifiers, no
    // declared outputs -- every buffer must be assumed read-write.
    ASSERT_EQ(f.reads.size(), 3u);
    ASSERT_EQ(f.writes.size(), 3u);
    EXPECT_EQ(f.writes[0], (ByteInterval {c.ptr(), c.ptr() + c.byte_size()}));
    EXPECT_EQ(f.writes[1], (ByteInterval {a.ptr(), a.ptr() + a.byte_size()}));
    EXPECT_EQ(f.writes[2], (ByteInterval {b.ptr(), b.ptr() + b.byte_size()}));
}

TEST(NodeFootprintTest, ConstPointerParameterReadsOnly) {
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 16;
    core::DeviceArray<float> y(n), x(n);
    GraphCapture capture;
    capture.add_launch(kernel, {}, y, x, 2.0f, n);
    LaunchGraph g = capture.finish();

    // saxpy(float* y, const float* x, float a, int n): x is const-qualified
    // so the signature alone proves it read-only; y stays read-write.
    NodeFootprint f = footprint_of(g.nodes()[0]);
    ASSERT_EQ(f.reads.size(), 2u);
    EXPECT_EQ(f.reads[0], (ByteInterval {y.ptr(), y.ptr() + y.byte_size()}));
    EXPECT_EQ(f.reads[1], (ByteInterval {x.ptr(), x.ptr() + x.byte_size()}));
    ASSERT_EQ(f.writes.size(), 1u);
    EXPECT_EQ(f.writes[0], (ByteInterval {y.ptr(), y.ptr() + y.byte_size()}));
}

TEST(NodeFootprintTest, DeclaredOutputArgsImplyInputs) {
    Fixture fx;
    core::KernelBuilder builder = vector_add_builder();
    builder.output_arg(0);
    core::WisdomKernel kernel(builder, fx.settings());
    const int n = 16;
    core::DeviceArray<float> c(n), a(n), b(n);
    GraphCapture capture;
    capture.add_launch(kernel, {}, c, a, b, n);
    LaunchGraph g = capture.finish();

    // With output_args declared, the non-output buffers become reads; the
    // declared output stays read-write (it may accumulate in place).
    NodeFootprint f = footprint_of(g.nodes()[0]);
    ASSERT_EQ(f.reads.size(), 3u);
    ASSERT_EQ(f.writes.size(), 1u);
    EXPECT_EQ(f.writes[0], (ByteInterval {c.ptr(), c.ptr() + c.byte_size()}));
}

TEST(NodeFootprintTest, ExplicitRolesWinOverInference) {
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 16;
    core::DeviceArray<float> y(n), x(n);
    GraphCapture capture;
    capture.add_launch(
        kernel, {}, core::write_only(y), core::read_only(x), 2.0f, n);
    LaunchGraph g = capture.finish();

    NodeFootprint f = footprint_of(g.nodes()[0]);
    ASSERT_EQ(f.reads.size(), 1u);
    EXPECT_EQ(f.reads[0], (ByteInterval {x.ptr(), x.ptr() + x.byte_size()}));
    ASSERT_EQ(f.writes.size(), 1u);
    EXPECT_EQ(f.writes[0], (ByteInterval {y.ptr(), y.ptr() + y.byte_size()}));
}

// --- KL006: unordered overlapping pairs -------------------------------------

TEST(KL006Test, UnorderedWriteWriteIsAnError) {
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}), fp({}, {}, {{32, 96}})});
    std::vector<Diagnostic> kl006 = with_code(diags, "KL006");
    ASSERT_EQ(kl006.size(), 1u);
    EXPECT_EQ(kl006[0].severity, Severity::Error);
    EXPECT_NE(kl006[0].message.find("write/write"), std::string::npos);
    EXPECT_NE(kl006[0].message.find("no dependency path"), std::string::npos);
    EXPECT_EQ(kl006[0].kernel, "graph node #0");
}

TEST(KL006Test, UnorderedReadWriteIsAnError) {
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}), fp({}, {{0, 64}}, {}, true)});
    std::vector<Diagnostic> kl006 = with_code(diags, "KL006");
    ASSERT_EQ(kl006.size(), 1u);
    EXPECT_EQ(kl006[0].severity, Severity::Error);
    EXPECT_NE(kl006[0].message.find("read/write"), std::string::npos);
}

TEST(KL006Test, DependencyEdgeSilencesTheHazard) {
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}), fp({0}, {{0, 64}}, {}, true)});
    EXPECT_TRUE(with_code(diags, "KL006").empty());
}

TEST(KL006Test, DisjointUnorderedNodesAreFine) {
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}), fp({}, {}, {{64, 128}})});
    EXPECT_TRUE(with_code(diags, "KL006").empty());
}

TEST(KL006Test, SelfOverlappingCopyIsAWarning) {
    // A DtoD copy whose source and destination ranges partially alias: the
    // per-node KL006 variant, Warning severity.
    graph::Node node;
    node.kind = graph::NodeKind::MemcpyDtoD;
    node.src = 0x1000;
    node.dst = 0x1020;
    node.bytes = 0x40;
    std::vector<Diagnostic> diags = lint_footprints(graph_footprints({node}));
    std::vector<Diagnostic> kl006 = with_code(diags, "KL006");
    ASSERT_EQ(kl006.size(), 1u);
    EXPECT_EQ(kl006[0].severity, Severity::Warning);
    EXPECT_NE(kl006[0].message.find("self-overlapping"), std::string::npos);
}

TEST(KL006Test, IdenticalReadWriteExtentIsNotSelfOverlap) {
    // An in-place update (read-write argument) reads and writes the same
    // extent; that is the normal case, not a hazard.
    std::vector<Diagnostic> diags =
        lint_footprints({fp({}, {{0, 64}}, {{0, 64}})});
    EXPECT_TRUE(with_code(diags, "KL006").empty());
}

// --- KL007: redundant dependency edges --------------------------------------

TEST(KL007Test, DuplicateDependencyIsANote) {
    std::vector<Diagnostic> diags = lint_footprints({fp({}), fp({0, 0})});
    std::vector<Diagnostic> kl007 = with_code(diags, "KL007");
    ASSERT_EQ(kl007.size(), 1u);
    EXPECT_EQ(kl007[0].severity, Severity::Note);
    EXPECT_NE(kl007[0].message.find("more than once"), std::string::npos);
}

TEST(KL007Test, TransitivelyImpliedEdgeIsANote) {
    // 2 depends on both 0 and 1, but 1 already depends on 0.
    std::vector<Diagnostic> diags =
        lint_footprints({fp({}), fp({0}), fp({0, 1})});
    std::vector<Diagnostic> kl007 = with_code(diags, "KL007");
    ASSERT_EQ(kl007.size(), 1u);
    EXPECT_EQ(kl007[0].severity, Severity::Note);
    EXPECT_NE(kl007[0].message.find("redundant"), std::string::npos);
    EXPECT_NE(kl007[0].message.find("implied through #1"), std::string::npos);
}

TEST(KL007Test, NecessaryEdgesStaySilent) {
    std::vector<Diagnostic> diags =
        lint_footprints({fp({}), fp({}), fp({0, 1})});
    EXPECT_TRUE(with_code(diags, "KL007").empty());
}

// --- KL008: dead writes -----------------------------------------------------

TEST(KL008Test, UnreadWriteIsANote) {
    std::vector<Diagnostic> diags = lint_footprints({fp({}, {}, {{0, 64}})});
    std::vector<Diagnostic> kl008 = with_code(diags, "KL008");
    ASSERT_EQ(kl008.size(), 1u);
    EXPECT_EQ(kl008[0].severity, Severity::Note);
    EXPECT_NE(kl008[0].message.find("dead write"), std::string::npos);
}

TEST(KL008Test, CopyOutKeepsTheWriteLive) {
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}), fp({0}, {{0, 64}}, {}, true)});
    EXPECT_TRUE(with_code(diags, "KL008").empty());
}

TEST(KL008Test, PartialReadKeepsTheWholeWriteLive) {
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}), fp({0}, {{0, 16}}, {}, true)});
    EXPECT_TRUE(with_code(diags, "KL008").empty());
}

// --- KL009: redundant transfers ---------------------------------------------

TEST(KL009Test, SameExtentOverwriteIsAWarning) {
    // Node 1 overwrites exactly what node 0 wrote and nothing could have
    // read it in between: node 0's write was wasted work.
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}),
         fp({0}, {}, {{0, 64}}),
         fp({1}, {{0, 64}}, {}, true)});
    std::vector<Diagnostic> kl009 = with_code(diags, "KL009");
    ASSERT_EQ(kl009.size(), 1u);
    EXPECT_EQ(kl009[0].severity, Severity::Warning);
    EXPECT_NE(kl009[0].message.find("redundant transfer"), std::string::npos);
    EXPECT_EQ(kl009[0].kernel, "graph node #0");
    // The first write is not also reported dead: the overwrite hands the
    // finding to KL009 instead of KL008.
    EXPECT_TRUE(with_code(diags, "KL008").empty());
}

TEST(KL009Test, InterveningReaderSilencesIt) {
    // 0 writes, 1 reads it, 2 overwrites: the first write was consumed.
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}),
         fp({0}, {{0, 64}}, {}, true),
         fp({1}, {}, {{0, 64}}),
         fp({2}, {{0, 64}}, {}, true)});
    EXPECT_TRUE(with_code(diags, "KL009").empty());
}

TEST(KL009Test, OverwriterThatReadsFirstSilencesIt) {
    // Node 1 reads the extent it overwrites (e.g. an in-place transform of
    // node 0's result), so the first write was consumed.
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}),
         fp({0}, {{0, 64}}, {{0, 64}}),
         fp({1}, {{0, 64}}, {}, true)});
    EXPECT_TRUE(with_code(diags, "KL009").empty());
}

TEST(KL009Test, DifferentExtentsStaySilent) {
    std::vector<Diagnostic> diags = lint_footprints(
        {fp({}, {}, {{0, 64}}),
         fp({0}, {}, {{0, 32}}),
         fp({1}, {{0, 64}}, {}, true)});
    EXPECT_TRUE(with_code(diags, "KL009").empty());
}

// --- edge cases -------------------------------------------------------------

TEST(GraphLintEdgeCases, EmptyGraphHasNoFindings) {
    EXPECT_TRUE(lint_footprints({}).empty());

    Fixture fx;
    GraphCapture capture;
    LaunchGraph g = capture.finish();
    EXPECT_TRUE(g.lint().empty());
    ScopedLintOverride force(core::LintMode::Error);
    g.instantiate();  // an empty graph instantiates fine even under error
}

TEST(GraphLintEdgeCases, SingleMemsetIsOnlyADeadWriteNote) {
    Fixture fx;
    core::DeviceArray<float> a(16);
    GraphCapture capture;
    capture.add_memset(a.ptr(), 0, a.byte_size());
    std::vector<Diagnostic> diags = capture.finish().lint();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "KL008");
    EXPECT_EQ(diags[0].severity, Severity::Note);
}

// --- determinism ------------------------------------------------------------

TEST(GraphLintDeterminism, DiagnosticsAreSortedAndReproducible) {
    // A graph producing every code at once: KL006 (1 vs 2 unordered), KL007
    // (duplicate dep), KL008 (dead writes), KL009 (0 overwritten by 3).
    std::vector<NodeFootprint> nodes = {
        fp({}, {}, {{0, 64}}),
        fp({0, 0}, {}, {{64, 128}}),
        fp({}, {{64, 128}}, {{128, 192}}),
        fp({0}, {}, {{0, 64}}),
    };
    std::vector<Diagnostic> first = lint_footprints(nodes);
    std::vector<Diagnostic> second = lint_footprints(nodes);
    ASSERT_FALSE(first.empty());
    EXPECT_FALSE(with_code(first, "KL006").empty());
    EXPECT_FALSE(with_code(first, "KL007").empty());
    EXPECT_FALSE(with_code(first, "KL008").empty());
    EXPECT_FALSE(with_code(first, "KL009").empty());

    EXPECT_TRUE(std::is_sorted(first.begin(), first.end(), diagnostic_order));
    ASSERT_EQ(first.size(), second.size());
    EXPECT_EQ(render_all(first), render_all(second));
}

TEST(GraphLintDeterminism, SortDiagnosticsOrdersByCodeThenSubject) {
    Diagnostic a;
    a.code = "KL008";
    a.kernel = "graph node #1";
    Diagnostic b;
    b.code = "KL006";
    b.kernel = "graph node #2";
    Diagnostic c;
    c.code = "KL006";
    c.kernel = "graph node #1";
    std::vector<Diagnostic> diags = {a, b, c};
    sort_diagnostics(diags);
    EXPECT_EQ(diags[0].code, "KL006");
    EXPECT_EQ(diags[0].kernel, "graph node #1");
    EXPECT_EQ(diags[1].code, "KL006");
    EXPECT_EQ(diags[1].kernel, "graph node #2");
    EXPECT_EQ(diags[2].code, "KL008");
}

// --- shadow-memory reference model -----------------------------------------

/// A cross-node access conflict found by the shadow memory: two accessors
/// with no dependency path touched the same bytes and at least one of them
/// wrote. `first` < `second` in recording order.
struct ShadowConflict {
    size_t first = 0;
    size_t second = 0;
    bool write_write = false;  ///< both accesses were writes
    uint64_t begin = 0;        ///< one overlapping byte range [begin, end)
    uint64_t end = 0;
};

/// Byte-granular shadow memory: the reference model the static KL006 pass
/// (find_hazards) is checked against.
///
/// Every shadowed byte remembers the FULL set of node ids that have read
/// or written it so far — not just the most recent writer. Keeping every
/// accessor is what makes the model agree exactly with the static
/// all-pairs hazard analysis: with last-writer-only tagging, an ordered
/// overwrite in between would hide the conflict between the first writer
/// and a later unordered accessor.
///
/// Accesses must be fed in recording order (which is a topological order
/// of the graph). On each access the model reports a conflict against
/// every already-tagged accessor of the same bytes that is not ordered
/// before the current node according to the `ordered` predicate.
class ShadowMemory {
  public:
    /// `ordered(a, b)` must return true iff node `a` happens-before node
    /// `b` (a dependency path exists from a to b). It is only consulted
    /// with a < b in feed order.
    explicit ShadowMemory(std::function<bool(size_t, size_t)> ordered):
        ordered_(std::move(ordered)) {}

    void on_read(size_t node, uint64_t begin, uint64_t size) {
        if (size > 0) {
            access(node, begin, begin + size, /*is_write=*/false);
        }
    }

    void on_write(size_t node, uint64_t begin, uint64_t size) {
        if (size > 0) {
            access(node, begin, begin + size, /*is_write=*/true);
        }
    }

    /// Conflicts found so far, deduplicated by (first, second) pair and
    /// sorted by that pair.
    std::vector<ShadowConflict> conflicts() const {
        std::vector<ShadowConflict> out;
        out.reserve(found_.size());
        for (const auto& [pair, conflict] : found_) {
            out.push_back(conflict);
        }
        return out;  // map order is already (first, second)
    }

  private:
    /// One maximal run of bytes with identical accessor sets. Keyed by its
    /// begin address in `cells_`; `end` is exclusive. Invariant: cells are
    /// disjoint (they need not cover the space — untagged gaps are bytes
    /// never touched).
    struct Cell {
        uint64_t end = 0;
        std::vector<size_t> writers;
        std::vector<size_t> readers;
    };

    /// Splits the cell containing `pos` (if any) so `pos` becomes a cell
    /// boundary.
    void split_at(uint64_t pos) {
        auto it = cells_.upper_bound(pos);
        if (it == cells_.begin()) {
            return;
        }
        --it;
        if (it->first >= pos || it->second.end <= pos) {
            return;  // pos is already a boundary or falls in a gap
        }
        Cell tail = it->second;  // copies accessor sets
        it->second.end = pos;
        cells_.emplace(pos, std::move(tail));
    }

    void report(size_t prior, size_t node, bool write_write, uint64_t begin, uint64_t end) {
        auto key = std::make_pair(prior, node);
        auto it = found_.find(key);
        if (it != found_.end()) {
            // Keep the first overlap range, but upgrade the kind: a pair that
            // conflicts both read-write and write-write reports as write-write.
            it->second.write_write = it->second.write_write || write_write;
            return;
        }
        found_.emplace(key, ShadowConflict {prior, node, write_write, begin, end});
    }

    void access(size_t node, uint64_t begin, uint64_t end, bool is_write) {
        split_at(begin);
        split_at(end);

        // Walk existing cells inside [begin, end), checking conflicts and
        // tagging; create fresh cells for the gaps in between.
        uint64_t cursor = begin;
        auto it = cells_.lower_bound(begin);
        while (cursor < end) {
            if (it == cells_.end() || it->first >= end) {
                // Trailing gap: everything from cursor to end is untouched.
                Cell cell;
                cell.end = end;
                (is_write ? cell.writers : cell.readers).push_back(node);
                cells_.emplace(cursor, std::move(cell));
                break;
            }
            if (it->first > cursor) {
                // Gap before the next cell.
                Cell cell;
                cell.end = it->first;
                (is_write ? cell.writers : cell.readers).push_back(node);
                it = cells_.emplace(cursor, std::move(cell)).first;
                ++it;
                cursor = it->first;
                continue;
            }
            Cell& cell = it->second;
            // A write conflicts with unordered writers and readers; a read
            // with unordered writers only.
            for (size_t w : cell.writers) {
                if (w != node && !ordered_(w, node)) {
                    report(w, node, /*write_write=*/is_write, it->first, cell.end);
                }
            }
            if (is_write) {
                for (size_t r : cell.readers) {
                    if (r != node && !ordered_(r, node)) {
                        report(r, node, /*write_write=*/false, it->first, cell.end);
                    }
                }
            }
            std::vector<size_t>& tagged = is_write ? cell.writers : cell.readers;
            if (std::find(tagged.begin(), tagged.end(), node) == tagged.end()) {
                tagged.push_back(node);
            }
            cursor = cell.end;
            ++it;
        }
    }

    std::function<bool(size_t, size_t)> ordered_;
    std::map<uint64_t, Cell> cells_;
    std::map<std::pair<size_t, size_t>, ShadowConflict> found_;
};

/// The reference hazard set: sweeps the footprints in recording order
/// through a ShadowMemory and returns its conflicts in find_hazards()'s
/// shape, for the differential below.
std::vector<GraphHazard>
oracle_hazards(const std::vector<NodeFootprint>& nodes, const Reachability& reach) {
    ShadowMemory shadow([&reach](size_t a, size_t b) { return reach.ordered(a, b); });
    for (size_t i = 0; i < nodes.size(); i++) {
        for (const ByteInterval& r : nodes[i].reads) {
            shadow.on_read(i, r.begin, r.end - r.begin);
        }
        for (const ByteInterval& w : nodes[i].writes) {
            shadow.on_write(i, w.begin, w.end - w.begin);
        }
    }
    std::vector<GraphHazard> out;
    for (const ShadowConflict& c : shadow.conflicts()) {
        GraphHazard h;
        h.first = c.first;
        h.second = c.second;
        h.write_write = c.write_write;
        h.overlap = {c.begin, c.end};
        out.push_back(h);
    }
    return out;
}

TEST(ShadowMemoryTest, ReportsUnorderedConflicts) {
    ShadowMemory shadow([](size_t, size_t) { return false; });
    shadow.on_write(0, 0, 64);
    shadow.on_read(1, 32, 64);  // overlaps [32, 64) with node 0's write
    shadow.on_write(2, 0, 16);  // overlaps node 0's write only
    std::vector<ShadowConflict> conflicts = shadow.conflicts();
    ASSERT_EQ(conflicts.size(), 2u);
    EXPECT_EQ(conflicts[0].first, 0u);
    EXPECT_EQ(conflicts[0].second, 1u);
    EXPECT_FALSE(conflicts[0].write_write);
    EXPECT_EQ(conflicts[0].begin, 32u);
    EXPECT_EQ(conflicts[0].end, 64u);
    EXPECT_EQ(conflicts[1].first, 0u);
    EXPECT_EQ(conflicts[1].second, 2u);
    EXPECT_TRUE(conflicts[1].write_write);
}

TEST(ShadowMemoryTest, OrderedAccessesAreSilent) {
    ShadowMemory shadow([](size_t, size_t) { return true; });
    shadow.on_write(0, 0, 64);
    shadow.on_write(1, 0, 64);
    shadow.on_read(2, 0, 64);
    EXPECT_TRUE(shadow.conflicts().empty());
}

TEST(ShadowMemoryTest, OrderedOverwriteDoesNotHideOlderWriter) {
    // 0 -> 1 overwrites the bytes; 2 is unordered with both. With
    // last-writer-only tagging the 0-2 conflict would be lost; the full
    // accessor set keeps it.
    auto ordered = [](size_t a, size_t b) { return a == 0 && b == 1; };
    ShadowMemory shadow(ordered);
    shadow.on_write(0, 0, 64);
    shadow.on_write(1, 0, 64);
    shadow.on_write(2, 0, 64);
    std::vector<ShadowConflict> conflicts = shadow.conflicts();
    ASSERT_EQ(conflicts.size(), 2u);
    EXPECT_EQ(conflicts[0].first, 0u);
    EXPECT_EQ(conflicts[0].second, 2u);
    EXPECT_EQ(conflicts[1].first, 1u);
    EXPECT_EQ(conflicts[1].second, 2u);
}

// --- static pass vs oracle: 100-seed differential ---------------------------

std::vector<NodeFootprint> random_dag(std::mt19937& rng) {
    std::uniform_int_distribution<size_t> node_count(2, 12);
    std::uniform_int_distribution<uint64_t> cell(0, 7);
    std::uniform_int_distribution<int> pct(0, 99);
    size_t n = node_count(rng);
    std::vector<NodeFootprint> nodes;
    nodes.reserve(n);
    for (size_t i = 0; i < n; i++) {
        NodeFootprint node;
        node.label = "synthetic #" + std::to_string(i);
        for (size_t d = 0; d < i; d++) {
            if (pct(rng) < 25) {
                node.deps.push_back(d);
            }
        }
        // A cramped 512-byte address space of 64-byte cells, so overlaps
        // (and therefore hazards) are common.
        auto interval = [&]() -> ByteInterval {
            uint64_t begin = cell(rng) * 64;
            uint64_t length = (cell(rng) % 3 + 1) * 64;
            return {begin, begin + length};
        };
        for (int r = pct(rng) % 3; r > 0; r--) {
            node.reads.push_back(interval());
        }
        for (int w = pct(rng) % 3; w > 0; w--) {
            node.writes.push_back(interval());
        }
        nodes.push_back(std::move(node));
    }
    return nodes;
}

TEST(GraphLintDifferential, StaticHazardsMatchOracleOn100SeededDags) {
    size_t total_hazards = 0;
    for (uint32_t seed = 0; seed < 100; seed++) {
        std::mt19937 rng(seed);
        std::vector<NodeFootprint> nodes = random_dag(rng);
        Reachability reach(nodes);
        std::vector<GraphHazard> statics = find_hazards(nodes, reach);
        std::vector<GraphHazard> dynamic = oracle_hazards(nodes, reach);
        // Both come back sorted by (first, second); equality also compares
        // the write_write classification.
        ASSERT_EQ(statics.size(), dynamic.size()) << "seed " << seed;
        for (size_t k = 0; k < statics.size(); k++) {
            EXPECT_EQ(statics[k], dynamic[k]) << "seed " << seed << " #" << k;
        }
        total_hazards += statics.size();
    }
    // The generator must actually produce hazards for the comparison to
    // mean anything.
    EXPECT_GT(total_hazards, 100u);
}

TEST(GraphLintDifferential, DependencyCompleteDagsHaveZeroHazards) {
    for (uint32_t seed = 0; seed < 100; seed++) {
        std::mt19937 rng(seed);
        std::vector<NodeFootprint> nodes = random_dag(rng);
        // Chain every node to its predecessor: the DAG becomes totally
        // ordered, so neither the static pass nor the oracle may report.
        for (size_t i = 1; i < nodes.size(); i++) {
            nodes[i].deps.push_back(i - 1);
        }
        Reachability reach(nodes);
        EXPECT_TRUE(find_hazards(nodes, reach).empty()) << "seed " << seed;
        EXPECT_TRUE(oracle_hazards(nodes, reach).empty()) << "seed " << seed;
    }
}

// --- lint override plumbing -------------------------------------------------

TEST(LintOverrideTest, ScopedOverrideRestoresPrevious) {
    graph::set_lint_override(std::nullopt);
    EXPECT_FALSE(graph::lint_override().has_value());
    {
        ScopedLintOverride outer(core::LintMode::Error);
        EXPECT_EQ(graph::lint_override(), core::LintMode::Error);
        {
            ScopedLintOverride inner(core::LintMode::Off);
            EXPECT_EQ(graph::lint_override(), core::LintMode::Off);
        }
        EXPECT_EQ(graph::lint_override(), core::LintMode::Error);
    }
    EXPECT_FALSE(graph::lint_override().has_value());
}

TEST(LintOverrideTest, FullModeParsesAndOrdersStrictest) {
    // "full" (the deleted per-replay oracle mode) is no longer a mode: it is
    // rejected like any unknown spelling, and Error is the strictest mode.
    EXPECT_THROW(core::parse_lint_mode("full"), Error);
    EXPECT_EQ(std::max(core::LintMode::Error, core::LintMode::Warn), core::LintMode::Error);
    EXPECT_GT(core::LintMode::Error, core::LintMode::Warn);
    EXPECT_GT(core::LintMode::Warn, core::LintMode::Off);
}

// --- instantiate/replay integration -----------------------------------------

/// A vector_add pipeline with declared roles; `complete` controls whether
/// the launch depends on both input uploads or misses the edge to b.
struct Pipeline {
    Fixture fx;
    core::WisdomKernel kernel;
    static constexpr int n = 64;
    core::DeviceArray<float> c, a, b;
    std::vector<float> ha, hb, hc;
    LaunchGraph graph;

    explicit Pipeline(bool complete):
        kernel(vector_add_builder(), fx.settings()),
        c(n),
        a(n),
        b(n),
        ha(n, 1.0f),
        hb(n, 2.0f),
        hc(n, 0.0f),
        graph(record(complete)) {}

    LaunchGraph record(bool complete) {
        GraphCapture capture;
        NodeId up_a = capture.add_memcpy_htod(a.ptr(), ha.data(), a.byte_size());
        NodeId up_b = capture.add_memcpy_htod(b.ptr(), hb.data(), b.byte_size());
        std::vector<NodeId> deps =
            complete ? std::vector<NodeId> {up_a, up_b} : std::vector<NodeId> {up_a};
        NodeId launch = capture.add_launch(
            kernel,
            deps,
            core::write_only(c),
            core::read_only(a),
            core::read_only(b),
            n);
        capture.add_memcpy_dtoh(hc.data(), c.ptr(), c.byte_size(), {launch});
        return capture.finish();
    }
};

TEST(GraphLintIntegration, CleanPipelineHasNoFindings) {
    Pipeline p(/*complete=*/true);
    EXPECT_TRUE(p.graph.lint().empty());
}

TEST(GraphLintIntegration, MissingEdgeReportsOneHazard) {
    Pipeline p(/*complete=*/false);
    std::vector<Diagnostic> diags = p.graph.lint();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "KL006");
    EXPECT_EQ(diags[0].severity, Severity::Error);
    EXPECT_NE(diags[0].message.find("memcpy htod"), std::string::npos);
    EXPECT_NE(diags[0].message.find("kernel 'vector_add'"), std::string::npos);
}

TEST(GraphLintIntegration, LintNeverThrowsButInstantiateEnforces) {
    Pipeline p(/*complete=*/false);
    {
        ScopedLintOverride force(core::LintMode::Error);
        EXPECT_NO_THROW(p.graph.lint());
        EXPECT_THROW(p.graph.instantiate(), DefinitionError);
    }
    {
        // Warn reports to stderr but instantiates and replays.
        ScopedLintOverride force(core::LintMode::Warn);
        p.graph.instantiate().replay();
    }
    {
        ScopedLintOverride force(core::LintMode::Off);
        p.graph.instantiate().replay();
    }
}

TEST(GraphLintIntegration, CountersAndSpanRecorded) {
    ScopedTrace scoped(trace::Mode::Full);
    Pipeline p(/*complete=*/false);
    ScopedLintOverride force(core::LintMode::Warn);
    p.graph.instantiate().replay();

    std::map<std::string, uint64_t> counters = trace::counters_snapshot();
    EXPECT_EQ(counters["kl.lint.graph.runs"], 1u);
    EXPECT_EQ(counters["kl.lint.graph.kl006"], 1u);
    EXPECT_EQ(count_events(trace::events_snapshot(), "lint.graph"), 1u);
}

TEST(GraphLintIntegration, UpdateScalarDoesNotInvalidateTheAnalysis) {
    ScopedTrace scoped(trace::Mode::Counters);
    Fixture fx;
    core::WisdomKernel kernel(saxpy_builder(), fx.settings());
    const int n = 32;
    core::DeviceArray<float> y(n), x(n);
    std::vector<float> hy(n, 1.0f), hx(n, 2.0f), hout(n);

    GraphCapture capture;
    NodeId up_y = capture.add_memcpy_htod(y.ptr(), hy.data(), y.byte_size());
    NodeId up_x = capture.add_memcpy_htod(x.ptr(), hx.data(), x.byte_size());
    NodeId launch = capture.add_launch(
        kernel,
        {up_y, up_x},
        core::read_write(y),
        core::read_only(x),
        3.0f,
        n);
    capture.add_memcpy_dtoh(hout.data(), y.ptr(), y.byte_size(), {launch});
    LaunchGraph graph = capture.finish();
    std::vector<Diagnostic> before = graph.lint();
    EXPECT_TRUE(before.empty());

    ScopedLintOverride force(core::LintMode::Error);
    graph::GraphExec exec = graph.instantiate();
    exec.replay();
    EXPECT_FLOAT_EQ(hout[0], 3.0f * 2.0f + 1.0f);

    // Scalar updates cannot move buffer footprints (buffer arguments are
    // not updatable), so the static result does not change: no re-lint,
    // no re-instantiation, replay still clean.
    exec.update_scalar(launch, 2, 0.5f);
    exec.replay();
    EXPECT_FLOAT_EQ(hout[0], 0.5f * 2.0f + 1.0f);
    EXPECT_EQ(graph.lint().size(), before.size());

    std::map<std::string, uint64_t> counters = trace::counters_snapshot();
    EXPECT_EQ(counters["kl.graph.instantiates"], 1u);
    EXPECT_EQ(counters["kl.lint.graph.runs"], 1u);  // static pass: once
}

}  // namespace
}  // namespace kl::analysis
