#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "graph/graph.hpp"

namespace kl::analysis {

/// Whole-graph data-flow analysis for launch graphs (docs/GRAPHS.md):
/// computes the device byte-intervals every recorded node reads and
/// writes, the happens-before relation induced by `deps`, and reports
///
///   KL006  data hazard: two nodes with no dependency path touch
///          overlapping bytes and at least one writes (plus a same-node
///          variant for partially self-overlapping reads/writes)
///   KL007  redundant dependency edge (implied by another path)
///   KL008  dead write (bytes never read, copied out, or overwritten)
///   KL009  redundant transfer (same-extent write-after-write with no
///          possible intervening read)
///
/// This static pass is the only graph hazard check; it runs once, at
/// instantiation. tests/test_graph_lint.cpp holds a byte-granular
/// shadow-memory reference model and checks on seeded random DAGs that
/// its conflict set equals find_hazards() exactly — both are "unordered
/// pair with a byte in common, at least one side writing".

/// A half-open device byte range [begin, end). Empty when begin == end.
struct ByteInterval {
    uint64_t begin = 0;
    uint64_t end = 0;

    bool empty() const noexcept {
        return begin >= end;
    }
    bool overlaps(const ByteInterval& other) const noexcept {
        // max(begins) < min(ends): false whenever either side is empty.
        return (begin > other.begin ? begin : other.begin)
            < (end < other.end ? end : other.end);
    }
    friend bool operator==(const ByteInterval& a, const ByteInterval& b) noexcept {
        return a.begin == b.begin && a.end == b.end;
    }

    /// "[0x700000000000, 0x700000000400)" — for diagnostics.
    std::string to_string() const;
};

/// The data-flow summary of one graph node: which device bytes it reads
/// and writes, and its recorded dependencies. Extracted from graph::Node
/// by graph_footprints(), or built directly (kl-lint --graph, tests).
struct NodeFootprint {
    std::string label;  ///< "kernel 'vector_add'", "memset", "memcpy htod"...
    std::vector<size_t> deps;
    std::vector<ByteInterval> reads;
    std::vector<ByteInterval> writes;
    /// True for device-to-host copies: the read escapes the graph, so the
    /// bytes it covers are live even if no later node touches them.
    bool copies_out = false;
};

/// Happens-before over the recorded dependencies, as per-node ancestor
/// bitsets. Node ids are dense recording-order indices, so every
/// dependency points backwards and one forward pass closes the relation.
class Reachability {
  public:
    /// Throws kl::Error when a dependency names the node itself or a node
    /// recorded later (captures cannot produce either).
    explicit Reachability(const std::vector<NodeFootprint>& nodes);

    size_t size() const noexcept {
        return n_;
    }

    /// Strict: true iff a != b and a dependency path leads from a to b.
    bool is_ancestor(size_t a, size_t b) const noexcept;

    /// True iff a dependency path orders the two nodes either way.
    bool ordered(size_t a, size_t b) const noexcept {
        return is_ancestor(a, b) || is_ancestor(b, a);
    }

  private:
    size_t n_ = 0;
    size_t words_ = 0;
    std::vector<uint64_t> bits_;  ///< ancestors of i at [i*words_, (i+1)*words_)
};

/// One unordered overlapping pair. `first` < `second` in recording order;
/// `write_write` when both sides write the shared bytes (a pair that
/// conflicts both ways reports as write-write). `overlap` is one witness
/// range.
struct GraphHazard {
    size_t first = 0;
    size_t second = 0;
    bool write_write = false;
    ByteInterval overlap;

    friend bool operator==(const GraphHazard& a, const GraphHazard& b) noexcept {
        return a.first == b.first && a.second == b.second
            && a.write_write == b.write_write;
    }
};

/// Extracts the footprint of each recorded node, in recording order. For
/// launches, each buffer argument contributes [ptr, ptr + byte_size) with a
/// direction resolved in this order:
///   1. an explicit core::ArgRole declared at capture time
///      (read_only()/write_only()/read_write());
///   2. a const-qualified pointer parameter in the kernel signature reads;
///   3. when the definition declares output_args, declared outputs are
///      read-write and the remaining pointer parameters read;
///   4. otherwise the conservative read-write.
/// The signature is WisdomKernel::signature(); without one (unreadable
/// source or no declaration at registration) (2) is skipped.
std::vector<NodeFootprint> graph_footprints(const std::vector<graph::Node>& nodes);

/// The static all-pairs hazard set: every unordered pair whose footprints
/// share at least one byte with a write on either side. Sorted by
/// (first, second).
std::vector<GraphHazard>
find_hazards(const std::vector<NodeFootprint>& nodes, const Reachability& reach);

/// Runs all graph checks (KL006–KL009) over pre-extracted footprints.
/// Diagnostics come back in deterministic (code, subject) order.
std::vector<Diagnostic> lint_footprints(const std::vector<NodeFootprint>& nodes);

}  // namespace kl::analysis
