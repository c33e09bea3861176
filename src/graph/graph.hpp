#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/kernel_arg.hpp"
#include "core/wisdom.hpp"
#include "core/wisdom_kernel.hpp"
#include "cudasim/context.hpp"

namespace kl::graph {

/// Launch graphs (docs/GRAPHS.md): capture-once/replay-many batched
/// submission of a DAG of WisdomKernel launches, memcpys and memsets.
///
/// The pipeline mirrors CUDA graphs:
///
///     GraphCapture capture;                 // record nodes + dependencies
///     NodeId a = capture.add_memset(...);
///     NodeId b = capture.add_launch(kernel, args, {a});
///     LaunchGraph graph = capture.finish(); // immutable recording
///     GraphExec exec = graph.instantiate(); // resolve configs, lint,
///                                           // compile, marshal — once
///     exec.replay(stream);                  // one locked submission
///
/// Instantiation resolves everything a launch normally pays per call, with
/// the eager path's own functions: WisdomKernel::bake_launch (the resolve
/// of launch_args: config selection, compile or compile-cache probe, KL004
/// lint, geometry), sim::Context::plan_launch (KL003 validation and the
/// modeled duration) and core::arg_slots (marshalling). Replay then
/// submits the whole pre-baked DAG under a single shared lock, honoring
/// the recorded dependencies on the simulated stream timeline, with the
/// eager path's functional effects (Context::run_kernel and the
/// MemoryPool copy/fill functions).

/// Overrides the lint mode the graph data-flow analysis (KL006–KL009,
/// docs/LINTING.md) runs under at instantiation, for tests and benches.
/// Without an override the strictest lint_mode() among the graph's
/// kernels applies (KERNEL_LAUNCHER_LINT for kernel-free graphs).
/// nullopt restores the default resolution.
void set_lint_override(std::optional<core::LintMode> mode);
std::optional<core::LintMode> lint_override();

/// Identifies a node within one capture/graph; assigned densely in
/// recording order, so `deps` can only name already-recorded nodes and the
/// recording order is always a valid topological order.
using NodeId = size_t;

enum class NodeKind {
    Launch,      ///< a WisdomKernel launch
    MemcpyHtoD,  ///< host -> device copy
    MemcpyDtoH,  ///< device -> host copy
    MemcpyDtoD,  ///< device -> device copy
    Memset,      ///< byte fill of device memory
    Upload,      ///< zero-copy payload upload: replay re-binds the block
};

/// One recorded node: the union of everything any node kind needs. An
/// implementation detail of the capture/instantiate pipeline, public only
/// so that LaunchGraph can hold the recording by value.
struct Node {
    NodeKind kind = NodeKind::Launch;
    std::vector<NodeId> deps;
    // Launch
    core::WisdomKernel* kernel = nullptr;
    std::vector<core::KernelArg> args;
    // Memory operations (dst/src are device pointers; MemcpyHtoD reads
    // host_src, MemcpyDtoH writes host_dst — both must stay valid for the
    // lifetime of every GraphExec instantiated from the recording).
    sim::DevicePtr dst = 0;
    sim::DevicePtr src = 0;
    const void* host_src = nullptr;
    void* host_dst = nullptr;
    uint64_t bytes = 0;
    uint8_t fill = 0;
    // Upload: the immutable pool-block snapshot replay re-binds to dst.
    // Unlike MemcpyHtoD's host_src, the recording owns the bytes (shared,
    // refcounted), so the capture-time source may be freed immediately.
    sim::Payload payload;
};

class LaunchGraph;
class GraphExec;

/// Records a DAG of launches and memory operations. Not thread-safe (one
/// capture is built by one thread); the resulting LaunchGraph/GraphExec
/// are where concurrency happens.
class GraphCapture {
  public:
    GraphCapture();

    /// Records a kernel launch. The kernel object must outlive every
    /// GraphExec instantiated from this recording (it owns the compiled
    /// instances the graph replays).
    NodeId add_launch(
        core::WisdomKernel& kernel,
        std::vector<core::KernelArg> args,
        std::vector<NodeId> deps = {});

    /// Convenience: C++ arguments instead of a pre-built vector.
    template<typename... Ts>
    NodeId add_launch(
        core::WisdomKernel& kernel,
        std::vector<NodeId> deps,
        const Ts&... args) {
        return add_launch(kernel, core::into_args(args...), std::move(deps));
    }

    NodeId add_memcpy_htod(
        sim::DevicePtr dst,
        const void* src,
        uint64_t bytes,
        std::vector<NodeId> deps = {});
    NodeId add_memcpy_dtoh(
        void* dst,
        sim::DevicePtr src,
        uint64_t bytes,
        std::vector<NodeId> deps = {});
    NodeId add_memcpy_dtod(
        sim::DevicePtr dst,
        sim::DevicePtr src,
        uint64_t bytes,
        std::vector<NodeId> deps = {});
    NodeId add_memset(
        sim::DevicePtr dst,
        uint8_t value,
        uint64_t bytes,
        std::vector<NodeId> deps = {});

    /// Records a zero-copy upload: replaying the node re-binds `dst` to
    /// read as `payload` (copy-on-write; docs/MEMORY.md). The payload size
    /// must equal the allocation size of `dst` (whole-block binding).
    /// Capture copies zero payload bytes (`kl.mem.capture.bytes_copied`
    /// stays 0) and replay moves zero bytes (`kl.mem.replay.bytes_copied`
    /// stays 0) — the alternative to add_memcpy_htod, which re-streams
    /// `bytes` from the live host pointer on every functional replay.
    NodeId add_upload(
        sim::DevicePtr dst,
        sim::Payload payload,
        std::vector<NodeId> deps = {});

    /// Convenience: snapshots `dst`'s current contents from the current
    /// context's pool (O(1)) and records an upload of that snapshot.
    NodeId add_upload(sim::DevicePtr dst, std::vector<NodeId> deps = {});

    size_t node_count() const noexcept {
        return nodes_.size();
    }

    /// Seals the recording into an immutable graph. The capture is empty
    /// afterwards and may record a new graph.
    LaunchGraph finish();

  private:
    NodeId add_node(Node node);

    std::vector<Node> nodes_;
    double capture_start_host_ = 0;
};

/// Lazily-computed, shared KL006-KL009 analysis of one recording (the
/// footprints and diagnostics only depend on the immutable node list, so
/// every instantiate() and lint() of the same recording reuses them).
struct GraphAnalysisCache;

/// An immutable recorded DAG. Cheap to copy (shared recording); the
/// executable form is produced by instantiate().
class LaunchGraph {
  public:
    size_t node_count() const noexcept {
        return nodes_->size();
    }

    const std::vector<Node>& nodes() const noexcept {
        return *nodes_;
    }

    /// Resolves every node against the current context: selects configs,
    /// compiles (or waits for) instances, runs lint checks (including the
    /// KL006–KL009 graph data-flow analysis), validates geometry against
    /// the device, precomputes per-node timing and marshals arguments.
    /// Throws where a launch would (compile errors, KL004/KL006 under
    /// KERNEL_LAUNCHER_LINT=error, invalid geometry).
    GraphExec instantiate() const;

    /// Runs only the KL006–KL009 graph data-flow analysis and returns its
    /// findings (deterministic order, never throws on findings). Does not
    /// compile or bake anything. The analysis is computed once per
    /// recording and cached: repeat calls (and instantiate()) reuse it.
    std::vector<analysis::Diagnostic> lint() const;

  private:
    friend class GraphCapture;
    explicit LaunchGraph(std::shared_ptr<const std::vector<Node>> nodes);

    std::shared_ptr<const std::vector<Node>> nodes_;
    std::shared_ptr<GraphAnalysisCache> analysis_;
};

/// An instantiated graph, ready to replay. Copies share one executable
/// (shared state), so a GraphExec may be replayed concurrently from many
/// threads: replays take a shared lock; scalar updates and
/// re-instantiation after WisdomKernel::clear_cache take an exclusive one.
class GraphExec {
  public:
    /// Submits the whole pre-baked DAG to `stream` (default stream when
    /// null) as one batched operation: the host is charged a single launch
    /// overhead, every node is scheduled at the completion of its
    /// dependencies, and (in Functional mode) node effects execute in
    /// recorded order. When any recorded kernel saw a clear_cache since
    /// the last bake, the graph re-instantiates first.
    void replay(sim::Stream* stream = nullptr);

    /// Replaces scalar argument `arg_index` of launch node `node` for all
    /// subsequent replays (KLARAPTOR-style dynamic parameters without
    /// re-capture). The new value must have the same scalar type and must
    /// not change the problem size (that would require a different
    /// compiled instance — capture a new graph instead); geometry and
    /// timing are re-evaluated. Throws kl::Error on any violation.
    template<typename T>
    void update_scalar(NodeId node, size_t arg_index, T value) {
        update_scalar_arg(node, arg_index, core::KernelArg::scalar(value));
    }

    size_t node_count() const noexcept;
    uint64_t replay_count() const noexcept;
    /// 1 for the initial instantiation, plus one per invalidation-driven
    /// re-instantiation.
    uint64_t instantiate_count() const noexcept;
    /// Virtual-clock completion time of the last replay's final node.
    double last_replay_end() const noexcept;

    /// Implementation detail (defined in graph.cpp); public only so the
    /// file-local bake/submit helpers can name the nested types.
    struct BakedNode;
    struct Impl;

  private:
    friend class LaunchGraph;

    explicit GraphExec(std::shared_ptr<Impl> impl): impl_(std::move(impl)) {}

    void update_scalar_arg(NodeId node, size_t arg_index, const core::KernelArg& arg);

    std::shared_ptr<Impl> impl_;
};

}  // namespace kl::graph
