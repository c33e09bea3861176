#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

namespace kl::sim {

/// A cross-node access conflict found by the shadow-memory oracle: two
/// accessors with no dependency path touched the same bytes and at least
/// one of them wrote. `first` < `second` in recording order.
struct ShadowConflict {
    size_t first = 0;
    size_t second = 0;
    bool write_write = false;  ///< both accesses were writes
    uint64_t begin = 0;        ///< one overlapping byte range [begin, end)
    uint64_t end = 0;

    friend bool operator==(const ShadowConflict& a, const ShadowConflict& b) noexcept {
        return a.first == b.first && a.second == b.second;
    }
};

/// Byte-granular shadow memory used as the dynamic hazard oracle for
/// launch-graph replays (KERNEL_LAUNCHER_LINT=full, docs/GRAPHS.md).
///
/// Every shadowed byte remembers the FULL set of node ids that have read
/// or written it so far — not just the most recent writer. Keeping every
/// accessor is what makes the oracle agree exactly with the static
/// all-pairs hazard analysis: with last-writer-only tagging, an ordered
/// overwrite in between would hide the conflict between the first writer
/// and a later unordered accessor.
///
/// Accesses must be fed in recording order (which is a topological order
/// of the graph). On each access the oracle reports a conflict against
/// every already-tagged accessor of the same bytes that is not ordered
/// before the current node according to the `ordered` predicate.
class ShadowMemory {
  public:
    /// `ordered(a, b)` must return true iff node `a` happens-before node
    /// `b` (a dependency path exists from a to b). It is only consulted
    /// with a < b in feed order.
    explicit ShadowMemory(std::function<bool(size_t, size_t)> ordered);

    void on_read(size_t node, uint64_t begin, uint64_t size);
    void on_write(size_t node, uint64_t begin, uint64_t size);

    /// Conflicts found so far, deduplicated by (first, second) pair and
    /// sorted by that pair.
    std::vector<ShadowConflict> conflicts() const;

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

    void access(size_t node, uint64_t begin, uint64_t end, bool is_write);
    /// Splits the cell containing `pos` (if any) so `pos` becomes a cell
    /// boundary.
    void split_at(uint64_t pos);
    void report(size_t prior, size_t node, bool write_write, uint64_t begin, uint64_t end);

    std::function<bool(size_t, size_t)> ordered_;
    std::map<uint64_t, Cell> cells_;
    std::map<std::pair<size_t, size_t>, ShadowConflict> found_;
};

}  // namespace kl::sim
