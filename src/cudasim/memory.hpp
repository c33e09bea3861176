#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>
#include <vector>

#include "cudasim/stream.hpp"

namespace kl::sim {

/// Opaque device address, modeled after CUdeviceptr. Address arithmetic
/// (ptr + offset) works as long as the result stays inside one allocation.
using DevicePtr = uint64_t;

/// Arena slab size in bytes (KERNEL_LAUNCHER_MEM_SLAB, e.g. "64M"; read
/// once, default 64 MiB). Oversized allocations get a dedicated slab.
uint64_t mem_slab_bytes();
void set_mem_slab_bytes(uint64_t bytes);

/// An immutable, refcounted snapshot of device-block contents, produced in
/// O(1) by MemoryPool::snapshot() (docs/MEMORY.md). A null `data` with a
/// nonzero `size` means "all zeros" (the block was never materialized).
/// Launch graphs record Payloads instead of re-streaming payload bytes:
/// replaying an upload node re-binds the destination block to the payload
/// (copy-on-write), moving zero bytes.
struct Payload {
    std::shared_ptr<const std::vector<std::byte>> data;
    uint64_t size = 0;

    bool zeros() const noexcept {
        return data == nullptr;
    }
};

/// Simulated device memory. Allocations live in a flat virtual address
/// space with guard gaps between them, so out-of-bounds offsets are caught
/// rather than silently landing in a neighbor.
///
/// Allocation is stream-ordered (`allocate_async`/`free_async`,
/// docs/MEMORY.md): blocks are carved from per-stream slab arenas. A free
/// is *deferred*: the block becomes reusable by the same stream
/// immediately (stream order), and by other streams only once the virtual
/// clock passes the free's enqueue horizon — the same event-boundary
/// reclamation rule cudaMallocAsync pools implement. Steady-state reuse
/// touches only the owning arena's lock, never the global map.
///
/// Backing host storage is *lazy*: it is only materialized the first time
/// an allocation is touched by a copy or a functional kernel launch. In
/// timing-only simulation mode, multi-gigabyte device buffers therefore
/// cost nothing but bookkeeping — which is what lets the Table 3 capture
/// experiment handle 512^3 double-precision fields on a small host.
///
/// Blocks can additionally carry a copy-on-write *baseline* Payload
/// (snapshot()/bind()): reads see the baseline bytes without copying;
/// the first write detaches into private storage.
///
/// All bookkeeping is internally synchronized, so concurrent launches (and
/// functional kernel implementations resolving their buffers) may touch
/// the pool from many threads. Resolved host pointers stay valid across
/// other threads' allocations until the block is freed or rebound:
/// backing storage is sized once at materialization and allocation nodes
/// are pointer-stable.
class MemoryPool {
  public:
    MemoryPool() = default;
    MemoryPool(const MemoryPool&) = delete;
    MemoryPool& operator=(const MemoryPool&) = delete;

    /// Device capacity for out-of-memory checks; 0 means unlimited.
    /// Set once by Context construction, before any allocation.
    void set_capacity(uint64_t bytes) noexcept {
        capacity_bytes_ = bytes;
    }

    // --- stream-ordered API ----------------------------------------------

    /// Allocates `size` bytes for work that will be enqueued on `stream`
    /// at host time `host_now`. Reuses, in order of preference: a block
    /// freed earlier on the same stream (stream order is the ordering
    /// edge), a block from any stream whose deferred free completed before
    /// `host_now` on the virtual clock, or fresh bytes carved from the
    /// stream's arena. Reused blocks read as zeros, exactly like fresh
    /// allocations.
    DevicePtr allocate_async(uint64_t size, const Stream& stream, double host_now);

    /// Enqueues a deferred free on `stream`: the block is logically dead
    /// immediately (resolve/check_range on it throw, bytes_in_use drops),
    /// but its bytes only become reusable per the allocate_async rules.
    /// The completion horizon is max(stream.busy_until(), host_now).
    void free_async(DevicePtr ptr, const Stream& stream, double host_now);

    // --- introspection ----------------------------------------------------

    /// Total bytes currently allocated (live user allocations).
    uint64_t bytes_in_use() const noexcept {
        return bytes_in_use_.load(std::memory_order_relaxed);
    }

    /// Number of live allocations.
    size_t allocation_count() const noexcept {
        return live_count_.load(std::memory_order_relaxed);
    }

    /// Point-in-time allocator statistics (docs/MEMORY.md). Gauges are
    /// exact under quiescence and monotonic counters are always exact.
    struct Stats {
        uint64_t bytes_in_use = 0;      ///< live user bytes (gauge)
        uint64_t high_water_bytes = 0;  ///< max bytes_in_use ever seen
        uint64_t arena_bytes = 0;       ///< address space carved into slabs
        uint64_t slab_count = 0;        ///< slabs carved so far
        uint64_t deferred_blocks = 0;   ///< frees awaiting reclamation (gauge)
        uint64_t deferred_bytes = 0;    ///< bytes those frees cover (gauge)
        uint64_t deferred_peak = 0;     ///< max deferred_blocks ever seen
        uint64_t reuse_hits = 0;        ///< allocations served from a reclaimed block
        uint64_t cow_detach_bytes = 0;  ///< bytes copied detaching COW baselines
    };
    Stats stats() const;

    /// Size of the allocation containing `ptr`, measured from `ptr` to the
    /// allocation end. Throws CudaError for unmapped addresses.
    uint64_t remaining_size(DevicePtr ptr) const;

    /// Resolves a device address range to host memory for reading or
    /// writing, materializing backing storage on first touch (zero-filled,
    /// or a private copy of the COW baseline when one is bound). Marks the
    /// block dirty, so a later bind() cannot skip re-binding. Throws
    /// CudaError when the range is unmapped, freed, or crosses the end of
    /// the allocation.
    void* resolve(DevicePtr ptr, uint64_t size);

    /// Read-only resolve that never copies: returns private storage when
    /// present, else the COW baseline bytes, else nullptr (never-touched
    /// memory reads as zeros). Still bounds-checks.
    const void* resolve_if_materialized(DevicePtr ptr, uint64_t size);

    /// Validates a range without materializing.
    void check_range(DevicePtr ptr, uint64_t size) const;

    /// True when the allocation containing ptr has contents (private
    /// storage or a bound baseline).
    bool is_materialized(DevicePtr ptr) const;

    // --- functional effects of the memory operations ----------------------
    // The data movement of cuMemcpyHtoD/DtoH/DtoD and cuMemsetD8, shared by
    // the eager Context paths and graph replay. They take no fence: the
    // caller holds reclaim_fence() shared around them.

    void write_from_host(DevicePtr dst, const void* src, uint64_t size);
    /// Never-touched device memory reads back as zeros.
    void read_to_host(void* dst, DevicePtr src, uint64_t size);
    void copy(DevicePtr dst, DevicePtr src, uint64_t size);
    void fill(DevicePtr dst, uint8_t value, uint64_t size);

    // --- zero-copy payloads (graph capture, docs/MEMORY.md) --------------

    /// O(1) snapshot of a whole block's current contents. `ptr` must be
    /// the allocation base. Private storage is frozen into the snapshot
    /// (the block keeps reading it as its baseline; the next write
    /// detaches). Copies zero bytes.
    Payload snapshot(DevicePtr ptr);

    /// Binds `ptr`'s block (whole-block: `ptr` is the base and the block
    /// size must equal payload.size) to read as `payload`. O(1): when the
    /// block already carries this baseline unwritten, it is a no-op
    /// (returns false); otherwise the baseline is swapped in and private
    /// storage dropped (returns true). Copies zero bytes either way.
    bool bind(DevicePtr ptr, const Payload& payload);

    // --- teardown ---------------------------------------------------------

    /// Epoch-fenced bulk release: takes the reclaim fence exclusively
    /// (waiting out in-flight replays and functional memory operations,
    /// which hold it shared), unmaps everything, resets arenas, and bumps
    /// epoch(). Pointers never become valid again: address space is carved
    /// monotonically, so stale DevicePtrs fail check_range forever after.
    void release_all();

    /// Bumped by release_all(); graph executables record the epoch at bake
    /// and treat a mismatch as staleness (src/graph/).
    uint64_t epoch() const noexcept {
        return epoch_.load(std::memory_order_acquire);
    }

    /// The reclaim fence. Functional-mode readers/writers of resolved
    /// pointers (eager memcpy/memset/launch paths, graph replay) hold it
    /// shared for the duration of the access; only release_all() takes it
    /// exclusively.
    std::shared_mutex& reclaim_fence() const noexcept {
        return reclaim_mutex_;
    }

  private:
    struct Allocation {
        uint64_t base = 0;
        uint64_t size = 0;
        std::atomic<bool> live {true};  ///< false once freed
        // Contents; guarded by `m`. `storage` is private writable bytes;
        // `baseline` is a shared immutable snapshot read when storage is
        // absent. `dirty` records a write since the last bind().
        std::mutex m;
        std::shared_ptr<std::vector<std::byte>> storage;
        std::shared_ptr<const std::vector<std::byte>> baseline;
        bool dirty = false;
    };

    /// One deferred free: the block plus the virtual-clock horizon at
    /// which the enqueueing stream's free completes.
    struct Deferred {
        Allocation* block = nullptr;
        double ready_time = 0;
    };

    /// Per-stream arena: slab bump state, exact-size free lists and the
    /// deferred-free queue. Each has its own lock; steady-state
    /// allocate_async/free_async touch exactly one arena lock.
    struct Arena {
        std::mutex m;
        uint64_t slab_base = 0;      ///< current slab start (0: none yet)
        uint64_t slab_offset = 0;    ///< bump pointer within the slab
        uint64_t slab_end = 0;       ///< current slab end
        /// Reclaimed blocks ready for reuse, by exact size.
        std::unordered_map<uint64_t, std::vector<Allocation*>> free_lists;
        std::deque<Deferred> deferred;
    };

    /// Finds the allocation containing `ptr`; nullptr when unmapped.
    /// Caller must hold map_mutex_ (shared suffices).
    const Allocation* find(DevicePtr ptr) const;
    Allocation* find(DevicePtr ptr);

    /// check_range without locking; caller must hold map_mutex_. Freed
    /// (non-live) blocks report as use-after-free.
    void check_range_locked(DevicePtr ptr, uint64_t size) const;

    /// Looks the block up under the shared map lock and returns it (map
    /// nodes are pointer-stable). Throws like check_range.
    Allocation* checked_block(DevicePtr ptr, uint64_t size);

    /// Arena for stream id, created on first use.
    Arena& arena_for(uint64_t stream_id);

    /// Migrates every horizon-passed deferred entry of `arena` into its
    /// free lists (reusable by any stream from then on). Caller holds
    /// arena.m.
    void reclaim_ready(Arena& arena, double host_now);

    /// Claims an exact-size block straight from the arena's deferred
    /// queue — legal only for allocations on the arena's own stream
    /// (stream order is the edge). Caller holds arena.m.
    Allocation* take_deferred(Arena& arena, uint64_t size);

    /// Pops an exact-size block from the arena's free list, or nullptr.
    /// Caller holds arena.m.
    Allocation* pop_free(Arena& arena, uint64_t size);

    /// Carves a fresh block from the arena's slab (new slab when needed)
    /// and registers it in the address map. Caller holds NO locks.
    Allocation* carve(Arena& arena, uint64_t size);

    /// Accounting for a new/reused live allocation of `size` bytes.
    void note_alloc(uint64_t size);
    void check_capacity(uint64_t size) const;

    mutable std::shared_mutex map_mutex_;
    /// Keyed by base address; map::upper_bound gives containing-allocation
    /// lookup in O(log n). unique_ptr: Allocation carries a mutex and must
    /// stay pointer-stable across rebalancing.
    std::map<uint64_t, std::unique_ptr<Allocation>> allocations_;
    std::atomic<uint64_t> next_base_ {0x700000000000ull};  // CUDA-like high VA

    mutable std::mutex arenas_mutex_;
    std::map<uint64_t, std::unique_ptr<Arena>> arenas_;

    mutable std::shared_mutex reclaim_mutex_;
    std::atomic<uint64_t> epoch_ {0};

    uint64_t capacity_bytes_ = 0;
    std::atomic<uint64_t> bytes_in_use_ {0};
    std::atomic<uint64_t> live_count_ {0};
    std::atomic<uint64_t> high_water_ {0};
    std::atomic<uint64_t> arena_bytes_ {0};
    std::atomic<uint64_t> slab_count_ {0};
    std::atomic<uint64_t> deferred_blocks_ {0};
    std::atomic<uint64_t> deferred_bytes_ {0};
    std::atomic<uint64_t> deferred_peak_ {0};
    std::atomic<uint64_t> reuse_hits_ {0};
    std::atomic<uint64_t> cow_detach_bytes_ {0};
};

}  // namespace kl::sim
