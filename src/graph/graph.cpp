#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "analysis/diagnostics.hpp"
#include "analysis/graph_lint.hpp"
#include "analysis/lint.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace kl::graph {

namespace {

/// -1 means "no override": the graph lint mode resolves from the graph's
/// kernels / the environment. Otherwise the LintMode value to force.
std::atomic<int> g_lint_override {-1};

void bump(const char* name, uint64_t n = 1) {
    if (trace::counters_enabled()) {
        trace::counter(name).add(n);
    }
}

}  // namespace

void set_lint_override(std::optional<core::LintMode> mode) {
    g_lint_override.store(
        mode.has_value() ? static_cast<int>(*mode) : -1,
        std::memory_order_relaxed);
}

std::optional<core::LintMode> lint_override() {
    int value = g_lint_override.load(std::memory_order_relaxed);
    if (value < 0) {
        return std::nullopt;
    }
    return static_cast<core::LintMode>(value);
}

// --- GraphCapture -----------------------------------------------------------

GraphCapture::GraphCapture(): capture_start_host_(trace::host_now_seconds()) {}

NodeId GraphCapture::add_node(Node node) {
    for (NodeId dep : node.deps) {
        if (dep >= nodes_.size()) {
            throw Error(
                "graph: dependency #" + std::to_string(dep) + " of node #"
                + std::to_string(nodes_.size())
                + " is not a recorded node (dependencies must be recorded first)");
        }
    }
    nodes_.push_back(std::move(node));
    return nodes_.size() - 1;
}

NodeId GraphCapture::add_launch(
    core::WisdomKernel& kernel,
    std::vector<core::KernelArg> args,
    std::vector<NodeId> deps) {
    Node node;
    node.kind = NodeKind::Launch;
    node.deps = std::move(deps);
    node.kernel = &kernel;
    node.args = std::move(args);
    return add_node(std::move(node));
}

NodeId GraphCapture::add_memcpy_htod(
    sim::DevicePtr dst,
    const void* src,
    uint64_t bytes,
    std::vector<NodeId> deps) {
    Node node;
    node.kind = NodeKind::MemcpyHtoD;
    node.deps = std::move(deps);
    node.dst = dst;
    node.host_src = src;
    node.bytes = bytes;
    return add_node(std::move(node));
}

NodeId GraphCapture::add_memcpy_dtoh(
    void* dst,
    sim::DevicePtr src,
    uint64_t bytes,
    std::vector<NodeId> deps) {
    Node node;
    node.kind = NodeKind::MemcpyDtoH;
    node.deps = std::move(deps);
    node.host_dst = dst;
    node.src = src;
    node.bytes = bytes;
    return add_node(std::move(node));
}

NodeId GraphCapture::add_memcpy_dtod(
    sim::DevicePtr dst,
    sim::DevicePtr src,
    uint64_t bytes,
    std::vector<NodeId> deps) {
    Node node;
    node.kind = NodeKind::MemcpyDtoD;
    node.deps = std::move(deps);
    node.dst = dst;
    node.src = src;
    node.bytes = bytes;
    return add_node(std::move(node));
}

NodeId GraphCapture::add_memset(
    sim::DevicePtr dst,
    uint8_t value,
    uint64_t bytes,
    std::vector<NodeId> deps) {
    Node node;
    node.kind = NodeKind::Memset;
    node.deps = std::move(deps);
    node.dst = dst;
    node.fill = value;
    node.bytes = bytes;
    return add_node(std::move(node));
}

NodeId GraphCapture::add_upload(
    sim::DevicePtr dst,
    sim::Payload payload,
    std::vector<NodeId> deps) {
    Node node;
    node.kind = NodeKind::Upload;
    node.deps = std::move(deps);
    node.dst = dst;
    node.bytes = payload.size;
    node.payload = std::move(payload);
    // Recording references the snapshot; zero payload bytes are copied.
    // The counter exists (interned at zero) so tests can pin it.
    if (trace::counters_enabled()) {
        trace::counter("kl.mem.capture.bytes_copied");
    }
    return add_node(std::move(node));
}

NodeId GraphCapture::add_upload(sim::DevicePtr dst, std::vector<NodeId> deps) {
    return add_upload(
        dst, sim::Context::current().memory().snapshot(dst), std::move(deps));
}

LaunchGraph GraphCapture::finish() {
    bump("kl.graph.captures");
    if (trace::spans_enabled()) {
        trace::emit_complete(
            trace::Domain::Host,
            "graph",
            "graph.capture",
            capture_start_host_,
            trace::host_now_seconds() - capture_start_host_,
            {{"nodes", std::to_string(nodes_.size())}});
    }
    auto nodes = std::make_shared<std::vector<Node>>(std::move(nodes_));
    nodes_ = {};
    capture_start_host_ = trace::host_now_seconds();
    return LaunchGraph(std::move(nodes));
}

// --- GraphExec --------------------------------------------------------------

/// One instantiated node: the recorded operation plus everything resolved
/// at bake time (compiled instance, marshalled argument slots, modeled
/// duration). `op.args` is this executable's own copy — update_scalar
/// mutates it in place, which keeps the `slots` pointers (into the
/// KernelArg inline storage) valid.
struct GraphExec::BakedNode {
    Node op;
    // Launch
    core::WisdomKernel::BakedLaunch baked;
    std::vector<void*> slots;
    // Schedule
    double duration = 0;  ///< modeled seconds on the stream timeline
    const char* span_name = "graph.node";
};

/// The precomputed state the replay-time shadow-memory oracle needs
/// (KERNEL_LAUNCHER_LINT=full): node footprints and the happens-before
/// relation, both invariant across replays, scalar updates and
/// re-instantiations (buffer arguments cannot be updated).
struct GraphShadowPlan {
    std::vector<analysis::NodeFootprint> footprints;
    analysis::Reachability reach;
};

/// The memoized KL006–KL009 analysis of one immutable recording. Computed
/// on the first instantiate()/lint() and shared by every copy of the
/// LaunchGraph, so repeat instantiations pay two atomic loads instead of
/// the full pass. (A kernel source file edited on disk after the first
/// run is not re-parsed — the same staleness window the compile cache
/// accepts.)
struct GraphAnalysisCache {
    std::once_flag once;
    std::vector<analysis::NodeFootprint> footprints;
    std::vector<analysis::Diagnostic> diagnostics;
};

struct GraphExec::Impl {
    std::shared_ptr<const std::vector<Node>> source;
    /// Set once at instantiation under full lint mode, immutable after.
    std::shared_ptr<const GraphShadowPlan> shadow_plan;
    /// Replays hold this shared; update_scalar and invalidation-driven
    /// re-instantiation hold it exclusively.
    mutable std::shared_mutex mutex;
    std::vector<BakedNode> nodes;                                  ///< guarded by mutex
    /// Each kernel recorded in the graph, with the cache epoch its bake
    /// observed; a mismatch against the kernel's live epoch marks the
    /// whole executable stale.
    std::vector<std::pair<core::WisdomKernel*, uint64_t>> epochs;  ///< guarded by mutex
    /// MemoryPool::epoch() at bake time; a mismatch (release_all happened)
    /// marks the executable stale exactly like a kernel cache epoch bump.
    uint64_t mem_epoch = 0;                                        ///< guarded by mutex
    std::atomic<uint64_t> replays {0};
    std::atomic<uint64_t> instantiations {0};
    std::atomic<double> last_end {0};
};

namespace {

/// Wraps a driver/model rejection of a baked launch in the KL003 shape of
/// the static analysis (docs/LINTING.md): graph instantiation is where
/// resource-limit findings surface, since replay submits without checks.
[[noreturn]] void throw_kl003(
    const core::WisdomKernel& kernel,
    const core::Config& config,
    const CudaError& error) {
    analysis::Diagnostic diag;
    diag.code = "KL003";
    diag.severity = analysis::Severity::Error;
    diag.message = std::string(error.what()) + " (baked configuration "
        + config.to_string() + ")";
    diag.kernel = kernel.def().name;
    throw CudaError("graph instantiation failed:\n" + analysis::render_all({diag}));
}

/// Modeled duration of a launch node at its current geometry, validated
/// like the driver validates an eager launch. Throws CudaError.
double plan_seconds(const GraphExec::BakedNode& node, sim::Context& context) {
    const core::KernelDef::Geometry& geom = node.baked.geometry;
    return context
        .plan_launch(*node.baked.image, geom.grid, geom.block, geom.shared_mem_bytes)
        .seconds;
}

/// Resolves one launch node: compile/select via bake_launch, then validate
/// the geometry (KL003) and precompute the modeled duration and argument
/// slots.
void bake_launch_node(GraphExec::BakedNode& node, sim::Context& context) {
    node.baked = node.op.kernel->bake_launch(node.op.args);
    try {
        node.duration = plan_seconds(node, context);
    } catch (const CudaError& e) {
        throw_kl003(*node.op.kernel, node.baked.config, e);
    }
    node.slots = core::arg_slots(node.op.args);
    node.span_name = "graph.kernel";
}

/// Bounds-checks one memory node's device operands and precomputes its
/// modeled duration. Called on every bake — after a MemoryPool::
/// release_all() the recorded pointers are permanently unmapped, so this
/// is where a stale executable fails loudly instead of touching freed
/// blocks.
void validate_memory_node(GraphExec::BakedNode& node, sim::Context& context) {
    const Node& op = node.op;
    sim::MemoryPool& memory = context.memory();
    switch (op.kind) {
        case NodeKind::Launch:
            break;
        case NodeKind::MemcpyHtoD:
            memory.check_range(op.dst, op.bytes);
            node.duration = context.transfer_seconds(op.bytes);
            node.span_name = "graph.memcpy.htod";
            break;
        case NodeKind::MemcpyDtoH:
            memory.check_range(op.src, op.bytes);
            node.duration = context.transfer_seconds(op.bytes);
            node.span_name = "graph.memcpy.dtoh";
            break;
        case NodeKind::MemcpyDtoD:
            memory.check_range(op.src, op.bytes);
            memory.check_range(op.dst, op.bytes);
            node.duration = context.dtod_seconds(op.bytes);
            node.span_name = "graph.memcpy.dtod";
            break;
        case NodeKind::Memset:
            memory.check_range(op.dst, op.bytes);
            node.duration = context.memset_seconds(op.bytes);
            node.span_name = "graph.memset";
            break;
        case NodeKind::Upload:
            // Size agreement with the whole allocation is enforced by
            // bind() at replay; here the range must at least be live.
            memory.check_range(op.dst, op.bytes);
            node.duration = context.transfer_seconds(op.bytes);
            node.span_name = "graph.upload";
            break;
    }
}

/// Records which cache epoch each distinct kernel was baked at. Two nodes
/// of one kernel can observe different epochs when a clear_cache races the
/// bake; keeping the smaller one makes the executable read as stale (and
/// re-bake), never as fresh-but-wrong.
void collect_epochs(GraphExec::Impl& impl) {
    impl.epochs.clear();
    for (const GraphExec::BakedNode& node : impl.nodes) {
        if (node.op.kind != NodeKind::Launch) {
            continue;
        }
        auto seen = std::find_if(
            impl.epochs.begin(), impl.epochs.end(), [&](const auto& entry) {
                return entry.first == node.op.kernel;
            });
        if (seen == impl.epochs.end()) {
            impl.epochs.emplace_back(node.op.kernel, node.baked.epoch);
        } else {
            seen->second = std::min(seen->second, node.baked.epoch);
        }
    }
}

bool is_stale(const GraphExec::Impl& impl, sim::Context& context) {
    if (impl.mem_epoch != context.memory().epoch()) {
        return true;
    }
    for (const auto& [kernel, epoch] : impl.epochs) {
        if (kernel->cache_epoch() != epoch) {
            return true;
        }
    }
    return false;
}

/// The lint mode the graph data-flow analysis runs under: the test/bench
/// override when set, otherwise the strictest mode among the graph's
/// kernels (they carry the process settings), otherwise — for graphs of
/// pure memory operations — KERNEL_LAUNCHER_LINT itself.
core::LintMode resolve_lint_mode(const std::vector<Node>& nodes) {
    if (std::optional<core::LintMode> forced = lint_override()) {
        return *forced;
    }
    bool any_launch = false;
    core::LintMode mode = core::LintMode::Off;
    for (const Node& node : nodes) {
        if (node.kind == NodeKind::Launch) {
            any_launch = true;
            mode = std::max(mode, node.kernel->settings().lint_mode());
        }
    }
    if (any_launch) {
        return mode;
    }
    if (std::optional<std::string> env = get_env("KERNEL_LAUNCHER_LINT")) {
        return core::parse_lint_mode(*env);
    }
    return core::LintMode::Warn;
}

/// Fills the per-recording analysis cache on first use.
const GraphAnalysisCache&
ensure_analysis(GraphAnalysisCache& cache, const std::vector<Node>& nodes) {
    std::call_once(cache.once, [&] {
        cache.footprints = analysis::graph_footprints(nodes);
        cache.diagnostics = analysis::lint_footprints(cache.footprints);
    });
    return cache;
}

/// Instantiation-time static pass: KL006–KL009 over the recording
/// (memoized). Returns the cached analysis so full mode can reuse the
/// footprints for the oracle plan.
const GraphAnalysisCache& lint_at_instantiate(
    GraphAnalysisCache& cache,
    const std::vector<Node>& nodes,
    core::LintMode mode) {
    trace::HostSpan span(
        "lint",
        "lint.graph",
        {{"nodes", std::to_string(nodes.size())}});
    const GraphAnalysisCache& cached = ensure_analysis(cache, nodes);
    bump("kl.lint.graph.runs");
    if (trace::counters_enabled()) {
        for (const analysis::Diagnostic& d : cached.diagnostics) {
            if (d.code == "KL006") {
                bump("kl.lint.graph.kl006");
            } else if (d.code == "KL007") {
                bump("kl.lint.graph.kl007");
            } else if (d.code == "KL008") {
                bump("kl.lint.graph.kl008");
            } else if (d.code == "KL009") {
                bump("kl.lint.graph.kl009");
            }
        }
    }
    analysis::enforce(cached.diagnostics, mode, "launch graph");
    return cached;
}

/// Replay-time dynamic cross-check (full mode): sweep the footprints
/// through the shadow memory and refuse to submit a racy DAG. The static
/// pass at instantiation reports the same hazard set, so a conflict here
/// means the static analyzer and the oracle disagree — a bug either way.
void run_shadow_oracle(const GraphShadowPlan& plan) {
    bump("kl.lint.graph.oracle_runs");
    std::vector<analysis::GraphHazard> hazards =
        analysis::oracle_hazards(plan.footprints, plan.reach);
    if (hazards.empty()) {
        return;
    }
    bump("kl.lint.graph.oracle_hazards", hazards.size());
    std::string message =
        "graph replay blocked: the shadow-memory oracle found "
        + std::to_string(hazards.size()) + " unordered conflict(s):";
    for (const analysis::GraphHazard& h : hazards) {
        message += "\n  nodes #" + std::to_string(h.first) + " and #"
            + std::to_string(h.second) + " touch " + h.overlap.to_string() + " ("
            + (h.write_write ? "write/write" : "read/write") + ")";
    }
    throw CudaError(message);
}

/// Functional-mode node effects, in recorded order: the same kernel call
/// and memory effects as the eager Context::launch/memcpy_*/memset_d8
/// paths. Caller holds the reclaim fence.
void execute_functional(const GraphExec::BakedNode& node, sim::Context& context) {
    const Node& op = node.op;
    sim::MemoryPool& memory = context.memory();
    switch (op.kind) {
        case NodeKind::Launch: {
            const core::KernelDef::Geometry& geom = node.baked.geometry;
            context.run_kernel(
                *node.baked.image,
                geom.grid,
                geom.block,
                geom.shared_mem_bytes,
                node.slots.data(),
                node.slots.size());
            break;
        }
        case NodeKind::MemcpyHtoD:
            // The legacy path re-streams the payload bytes from the live
            // host pointer on every replay; kl.mem.replay.bytes_copied is
            // the regression tripwire zero-copy graphs pin to 0.
            memory.write_from_host(op.dst, op.host_src, op.bytes);
            bump("kl.mem.replay.bytes_copied", op.bytes);
            break;
        case NodeKind::MemcpyDtoH:
            memory.read_to_host(op.host_dst, op.src, op.bytes);
            break;
        case NodeKind::MemcpyDtoD:
            memory.copy(op.dst, op.src, op.bytes);
            break;
        case NodeKind::Memset:
            memory.fill(op.dst, op.fill, op.bytes);
            break;
        case NodeKind::Upload:
            // Zero-copy: re-bind the block to the recorded snapshot. A
            // replay after replay with no intervening write is a no-op
            // (the dirty flag short-circuits). Copies zero bytes; the
            // interned-but-never-bumped replay counter stays 0.
            memory.bind(op.dst, op.payload);
            break;
    }
}

/// The batched submission. Caller holds impl.mutex (shared or exclusive).
void submit_locked(GraphExec::Impl& impl, sim::Context& context, sim::Stream& stream) {
    const bool spans = trace::spans_enabled();
    const double host_start = spans ? trace::host_now_seconds() : 0;

    // One submission: the host pays the fixed launch cost once, no matter
    // how many nodes the graph holds — that is the batching win on the
    // simulated timeline. Root nodes start when both the host has issued
    // the graph and prior stream work has drained.
    context.clock().advance(context.device().launch_overhead_us * 1e-6);
    double t0 = context.clock().now();
    if (stream.busy_until() > t0) {
        t0 = stream.busy_until();
    }

    const bool functional = context.mode() == sim::ExecutionMode::Functional;
    // Functional replay resolves pool blocks to host pointers; holding the
    // reclaim fence shared keeps a concurrent release_all() from unmapping
    // them mid-replay (it waits for the fence, then the epoch bump makes
    // the next replay fail its staleness re-validation loudly).
    std::shared_lock<std::shared_mutex> fence;
    if (functional) {
        fence = std::shared_lock<std::shared_mutex>(context.memory().reclaim_fence());
    }
    uint32_t track = 0;
    if (spans) {
        track = trace::named_track("stream " + std::to_string(stream.id()));
    }

    thread_local std::vector<double> ends;
    ends.assign(impl.nodes.size(), 0);

    double graph_end = t0;
    for (size_t i = 0; i < impl.nodes.size(); i++) {
        const GraphExec::BakedNode& node = impl.nodes[i];
        double start = t0;
        for (NodeId dep : node.op.deps) {
            if (ends[dep] > start) {
                start = ends[dep];
            }
        }
        if (functional) {
            execute_functional(node, context);
        }
        const double end = start + node.duration;
        ends[i] = end;
        if (end > graph_end) {
            graph_end = end;
        }
        if (spans) {
            trace::Args args;
            if (node.op.kind == NodeKind::Launch) {
                args.emplace_back("kernel", node.baked.image->lowered_name);
            } else {
                args.emplace_back("bytes", std::to_string(node.op.bytes));
            }
            trace::emit_complete_on(
                trace::Domain::Sim,
                track,
                "graph",
                node.span_name,
                start,
                node.duration,
                std::move(args));
        }
    }

    stream.extend_to(graph_end);
    impl.last_end.store(graph_end, std::memory_order_relaxed);
    impl.replays.fetch_add(1, std::memory_order_relaxed);
    bump("kl.graph.replays");
    bump("kl.graph.nodes_replayed", impl.nodes.size());
    if (spans) {
        trace::emit_complete(
            trace::Domain::Host,
            "graph",
            "graph.replay",
            host_start,
            trace::host_now_seconds() - host_start,
            {{"nodes", std::to_string(impl.nodes.size())}});
    }
}

/// The one bake pass of instantiate() and of the re-instantiation replay()
/// runs on a stale executable: resolves every launch node, bounds-checks
/// every memory operand, precomputes durations and records the epochs the
/// bake observed. Caller holds impl.mutex exclusively (or owns impl).
void bake_nodes(GraphExec::Impl& impl, sim::Context& context) {
    for (GraphExec::BakedNode& node : impl.nodes) {
        if (node.op.kind == NodeKind::Launch) {
            bake_launch_node(node, context);
        } else {
            validate_memory_node(node, context);
        }
    }
    collect_epochs(impl);
    impl.mem_epoch = context.memory().epoch();
    impl.instantiations.fetch_add(1, std::memory_order_relaxed);
    bump("kl.graph.instantiates");
}

trace::HostSpan instantiate_span(size_t nodes) {
    return trace::HostSpan(
        "graph", "graph.instantiate", {{"nodes", std::to_string(nodes)}});
}

}  // namespace

LaunchGraph::LaunchGraph(std::shared_ptr<const std::vector<Node>> nodes):
    nodes_(std::move(nodes)),
    analysis_(std::make_shared<GraphAnalysisCache>()) {}

std::vector<analysis::Diagnostic> LaunchGraph::lint() const {
    return ensure_analysis(*analysis_, *nodes_).diagnostics;
}

GraphExec LaunchGraph::instantiate() const {
    sim::Context& context = sim::Context::current();
    const core::LintMode lint_mode = resolve_lint_mode(*nodes_);
    auto impl = std::make_shared<GraphExec::Impl>();
    impl->source = nodes_;
    trace::HostSpan span = instantiate_span(nodes_->size());
    if (lint_mode != core::LintMode::Off) {
        const GraphAnalysisCache& cached =
            lint_at_instantiate(*analysis_, *nodes_, lint_mode);
        if (lint_mode == core::LintMode::Full) {
            analysis::Reachability reach(cached.footprints);
            impl->shadow_plan = std::make_shared<const GraphShadowPlan>(
                GraphShadowPlan {cached.footprints, std::move(reach)});
        }
    }
    impl->nodes.reserve(nodes_->size());
    for (const Node& op : *nodes_) {
        impl->nodes.emplace_back().op = op;
    }
    bake_nodes(*impl, context);
    return GraphExec(std::move(impl));
}

void GraphExec::replay(sim::Stream* stream) {
    Impl& impl = *impl_;
    sim::Context& context = sim::Context::current();
    if (stream == nullptr) {
        stream = &context.default_stream();
    }

    // Full lint mode: validate this replay against the shadow-memory
    // oracle before submitting anything. The plan is immutable (set once
    // at instantiation), so no lock is needed.
    if (impl.shadow_plan != nullptr) {
        run_shadow_oracle(*impl.shadow_plan);
    }

    {
        std::shared_lock<std::shared_mutex> lock(impl.mutex);
        if (!is_stale(impl, context)) {
            submit_locked(impl, context, *stream);
            return;
        }
    }

    // A recorded kernel saw clear_cache (or the pool saw release_all)
    // since the bake: re-instantiate under the exclusive lock, then replay
    // in the same critical section (concurrent replays that lost the race
    // re-check and proceed shared).
    std::unique_lock<std::shared_mutex> lock(impl.mutex);
    if (is_stale(impl, context)) {
        bump("kl.graph.invalidations");
        trace::HostSpan span = instantiate_span(impl.nodes.size());
        bake_nodes(impl, context);
    }
    submit_locked(impl, context, *stream);
}

void GraphExec::update_scalar_arg(
    NodeId node_id,
    size_t arg_index,
    const core::KernelArg& arg) {
    Impl& impl = *impl_;
    sim::Context& context = sim::Context::current();
    std::unique_lock<std::shared_mutex> lock(impl.mutex);
    if (node_id >= impl.nodes.size()) {
        throw Error("graph: no node #" + std::to_string(node_id));
    }
    BakedNode& node = impl.nodes[node_id];
    if (node.op.kind != NodeKind::Launch) {
        throw Error("graph: node #" + std::to_string(node_id) + " is not a kernel launch");
    }
    std::vector<core::KernelArg>& args = node.op.args;
    const core::KernelDef& def = node.op.kernel->def();
    if (arg_index >= args.size()) {
        throw Error(
            "graph: node #" + std::to_string(node_id) + " has "
            + std::to_string(args.size()) + " arguments, no #"
            + std::to_string(arg_index));
    }
    core::KernelArg& current = args[arg_index];
    if (current.is_buffer()) {
        throw Error(
            "graph: argument #" + std::to_string(arg_index) + " of node #"
            + std::to_string(node_id)
            + " is a buffer; only scalar arguments are update-able");
    }
    if (current.type() != arg.type()) {
        throw Error(
            std::string("graph: scalar type mismatch: argument #")
            + std::to_string(arg_index) + " is " + core::scalar_name(current.type())
            + ", update value is " + core::scalar_name(arg.type()));
    }

    const core::KernelArg saved = current;
    current = arg;
    const core::ProblemSize problem = def.eval_problem_size(args);
    if (problem != node.baked.geometry.problem) {
        current = saved;
        throw Error(
            "graph: updating argument #" + std::to_string(arg_index)
            + " changes the problem size from "
            + node.baked.geometry.problem.to_string() + " to " + problem.to_string()
            + ", which selects a different compiled instance; capture a new graph");
    }
    try {
        // Geometry expressions may read scalar arguments, so block/grid/
        // shared memory (and with them the modeled duration) can change.
        node.baked.geometry = def.eval_geometry(node.baked.config, args);
        node.duration = plan_seconds(node, context);
    } catch (...) {
        current = saved;
        node.baked.geometry = def.eval_geometry(node.baked.config, args);
        throw;
    }
    bump("kl.graph.scalar_updates");
}

size_t GraphExec::node_count() const noexcept {
    return impl_->source->size();
}

uint64_t GraphExec::replay_count() const noexcept {
    return impl_->replays.load(std::memory_order_relaxed);
}

uint64_t GraphExec::instantiate_count() const noexcept {
    return impl_->instantiations.load(std::memory_order_relaxed);
}

double GraphExec::last_replay_end() const noexcept {
    return impl_->last_end.load(std::memory_order_relaxed);
}

}  // namespace kl::graph
