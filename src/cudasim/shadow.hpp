#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
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

/// A stream-ordered allocation-lifetime violation found by AllocOracle.
struct AllocHazard {
    enum class Kind {
        /// An access touched bytes whose deferred free was already
        /// enqueued (logically dead memory).
        UseAfterFreeAsync,
        /// A new allocation reused bytes of a cross-stream deferred free
        /// before the virtual clock passed the free's horizon (no
        /// ordering edge).
        PrematureReuse,
        /// A new allocation overlaps a live allocation.
        Overlap,
    };

    Kind kind = Kind::UseAfterFreeAsync;
    uint64_t base = 0;    ///< base of the offending range
    uint64_t size = 0;    ///< its size
    uint64_t stream = 0;  ///< stream of the offending operation
    std::string detail;   ///< human-readable description
};

/// Reference model of the stream-ordered allocator's lifetime rules
/// (docs/MEMORY.md), used to cross-check MemoryPool's deferred-free
/// bookkeeping the same way the graph oracle cross-checks KL006
/// (the PR-7 static-analysis ≡ oracle pattern).
///
/// The stress harness mirrors every allocate_async/free_async/access into
/// this oracle, in issue order, and asserts hazards() stays empty: the
/// oracle independently tracks live extents, pending (deferred) frees and
/// their completion horizons, so any pool bug that hands out overlapping,
/// premature or dead bytes surfaces as a hazard here.
///
/// Not thread-safe: feed it from one thread (serialize the schedule), like
/// ShadowMemory.
class AllocOracle {
  public:
    /// A new allocation of [base, base+size) issued on `stream` at host
    /// time `host_now`. Flags Overlap against live extents and
    /// PrematureReuse against pending frees that neither belong to
    /// `stream` nor completed by `host_now`; bytes of pending frees the
    /// allocation may legally reuse are reclaimed into it.
    void on_alloc(uint64_t base, uint64_t size, uint64_t stream, double host_now);

    /// A deferred free of the allocation at `base`, enqueued on `stream`
    /// with completion horizon `ready_time` (= the stream's busy horizon
    /// or the issue time, whichever is later).
    void on_free(uint64_t base, uint64_t stream, double ready_time);

    /// A read/write of [ptr, ptr+size) at host time `host_now`. Flags
    /// UseAfterFreeAsync when the bytes belong to a pending free (dead
    /// memory), and when they are entirely unknown to the oracle.
    void on_access(uint64_t ptr, uint64_t size, uint64_t stream, double host_now);

    const std::vector<AllocHazard>& hazards() const noexcept {
        return hazards_;
    }

  private:
    struct Region {
        uint64_t end = 0;     ///< exclusive
        uint64_t stream = 0;  ///< issuing stream
    };

    struct Pending {
        uint64_t base = 0;
        uint64_t end = 0;
        uint64_t free_stream = 0;  ///< stream the free was enqueued on
        double ready_time = 0;     ///< horizon after which anyone may reuse
    };

    std::map<uint64_t, Region> live_;  ///< by base
    std::vector<Pending> pending_;
    std::vector<AllocHazard> hazards_;
};

}  // namespace kl::sim
