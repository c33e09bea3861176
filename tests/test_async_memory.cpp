// Tests for the stream-ordered async memory pool (docs/MEMORY.md): basic
// allocate_async/free_async semantics, event-boundary reclamation, the
// copy-on-write snapshot/bind payload machinery, and the randomized
// allocator stress suite cross-checked against the AllocOracle reference
// model.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cudasim/context.hpp"
#include "cudasim/memory.hpp"
#include "cudasim/stream.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"

namespace kl::sim {
namespace {

/// Seed-count multiplier for the randomized suites; scripts/check.sh's
/// mem-stress stage sets KERNEL_LAUNCHER_MEM_STRESS_SEEDS=10.
int seed_multiplier() {
    if (std::optional<std::string> env = get_env("KERNEL_LAUNCHER_MEM_STRESS_SEEDS")) {
        const int value = std::atoi(env->c_str());
        return value > 0 ? value : 1;
    }
    return 1;
}

/// The pool's kl.mem.* account for one test: counters mode on a cleared
/// recorder for the guard's lifetime; on exit the recorder is cleared again
/// and the previous mode restored (the mem-stress stage runs every test of
/// this binary in one process).
class MemCounters {
  public:
    MemCounters(): previous_(trace::mode()) {
        trace::set_mode(trace::Mode::Counters);
        trace::clear();
    }
    ~MemCounters() {
        trace::clear();
        trace::set_mode(previous_);
    }
    uint64_t operator[](const std::string& name) const {
        const std::map<std::string, uint64_t> counters = trace::counters_snapshot();
        auto it = counters.find(name);
        return it == counters.end() ? 0 : it->second;
    }
    /// Allocations not yet freed.
    uint64_t live_blocks() const {
        return (*this)["kl.mem.alloc.count"] - (*this)["kl.mem.free.count"];
    }
    /// Frees enqueued but not yet reclaimed.
    uint64_t deferred_blocks() const {
        return (*this)["kl.mem.deferred.enqueued"] - (*this)["kl.mem.deferred.reclaimed"];
    }

  private:
    trace::Mode previous_;
};

// --- basic stream-ordered semantics -----------------------------------------

TEST(AsyncAlloc, BasicAccounting) {
    MemCounters counters;
    MemoryPool pool;
    Stream s0(0);
    DevicePtr a = pool.allocate_async(100, s0, 0.0);
    DevicePtr b = pool.allocate_async(200, s0, 0.0);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.bytes_in_use(), 300u);
    EXPECT_EQ(counters.live_blocks(), 2u);
    pool.free_async(a, s0, 0.0);
    // Logically dead at enqueue: accounting drops immediately.
    EXPECT_EQ(pool.bytes_in_use(), 200u);
    EXPECT_EQ(counters.live_blocks(), 1u);
    EXPECT_THROW(pool.free_async(a, s0, 0.0), CudaError);  // double free
    EXPECT_THROW(pool.allocate_async(0, s0, 0.0), CudaError);
}

TEST(AsyncAlloc, FreedBlockReadsAsUseAfterFree) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(64, s0, 0.0);
    pool.resolve(p, 64);
    pool.free_async(p, s0, 0.0);
    // The mapping survives (monotonic address space) but the block is dead.
    EXPECT_THROW(pool.check_range(p, 1), CudaError);
    EXPECT_THROW(pool.resolve(p, 1), CudaError);
    EXPECT_THROW(pool.resolve_if_materialized(p, 1), CudaError);
    try {
        pool.check_range(p, 1);
        FAIL() << "expected CudaError";
    } catch (const CudaError& e) {
        EXPECT_NE(std::string(e.what()).find("use after free"), std::string::npos);
    }
}

TEST(AsyncAlloc, SameStreamReuseIsImmediate) {
    MemCounters counters;
    MemoryPool pool;
    Stream s0(0);
    // The stream is busy far into the future, so the free's horizon is
    // way ahead of the clock — but same-stream reuse needs no clock.
    s0.extend_to(100.0);
    DevicePtr p = pool.allocate_async(256, s0, 0.0);
    pool.free_async(p, s0, 0.0);
    DevicePtr q = pool.allocate_async(256, s0, 0.0);
    EXPECT_EQ(p, q);  // stream order is the ordering edge
    EXPECT_EQ(counters["kl.mem.reuse.hits"], 1u);
}

TEST(AsyncAlloc, CrossStreamReuseWaitsForHorizon) {
    MemoryPool pool;
    Stream s0(0);
    Stream s1(1);
    s0.extend_to(10.0);  // pending work on s0 until t=10

    DevicePtr p = pool.allocate_async(256, s0, 0.0);
    pool.free_async(p, s0, 0.0);  // horizon = max(10, 0) = 10

    // t=5: no ordering edge yet — s1 must NOT get the same bytes.
    DevicePtr q = pool.allocate_async(256, s1, 5.0);
    EXPECT_NE(p, q);

    // t=10: the free's horizon passed; now the bytes may cross streams.
    DevicePtr r = pool.allocate_async(256, s1, 10.0);
    EXPECT_EQ(p, r);
}

TEST(AsyncAlloc, CrossStreamReuseAfterIdleStreamFree) {
    MemoryPool pool;
    Stream s0(0);
    Stream s1(1);
    // Idle stream: the free completes at its issue time.
    DevicePtr p = pool.allocate_async(512, s0, 3.0);
    pool.free_async(p, s0, 4.0);  // horizon = max(0, 4) = 4
    EXPECT_NE(pool.allocate_async(512, s1, 3.5), p);
    EXPECT_EQ(pool.allocate_async(512, s1, 4.0), p);
}

TEST(AsyncAlloc, ReusedBlockReadsAsZeros) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(128, s0, 0.0);
    auto* data = static_cast<unsigned char*>(pool.resolve(p, 128));
    std::memset(data, 0xAB, 128);
    pool.free_async(p, s0, 0.0);
    DevicePtr q = pool.allocate_async(128, s0, 0.0);
    ASSERT_EQ(p, q);  // same bytes recycled...
    EXPECT_FALSE(pool.is_materialized(q));  // ...but contents dropped
    EXPECT_EQ(pool.resolve_if_materialized(q, 128), nullptr);
    EXPECT_EQ(*static_cast<unsigned char*>(pool.resolve(q, 1)), 0);
}

TEST(AsyncAlloc, GuardGapsBetweenCarvedBlocks) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(64, s0, 0.0);
    pool.allocate_async(64, s0, 0.0);
    EXPECT_NO_THROW(pool.check_range(p, 64));
    EXPECT_THROW(pool.check_range(p, 65), CudaError);
    EXPECT_THROW(pool.check_range(p + 64, 1), CudaError);
    EXPECT_THROW(pool.check_range(p + 4096, 1), CudaError);  // guard gap
}

TEST(AsyncAlloc, ExactSizeMatchOnly) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(256, s0, 0.0);
    pool.free_async(p, s0, 0.0);
    // A different size must not reuse the block (exact-size free lists).
    DevicePtr q = pool.allocate_async(128, s0, 0.0);
    EXPECT_NE(p, q);
}

TEST(AsyncAlloc, SlabGrowthAndDedicatedOversizeSlab) {
    // Slabs are address space only, so these blocks allocate no host bytes.
    MemCounters counters;
    MemoryPool pool;
    Stream s0(0);
    // Each block's footprint is size + guard, 256-aligned, so four 16 MiB
    // blocks overflow one slab and six must spill into a second.
    const uint64_t block = kSlabBytes / 4;
    for (int i = 0; i < 6; i++) {
        pool.allocate_async(block, s0, 0.0);
    }
    EXPECT_EQ(counters["kl.mem.slabs"], 2u);
    EXPECT_EQ(counters["kl.mem.slab.bytes"], 2 * kSlabBytes);
    // An allocation bigger than the slab gets a dedicated one.
    pool.allocate_async(2 * kSlabBytes, s0, 0.0);
    EXPECT_GE(counters["kl.mem.slab.bytes"], 4 * kSlabBytes);
    EXPECT_EQ(counters["kl.mem.slabs"], 3u);
}

TEST(AsyncAlloc, PerStreamArenasDoNotInterleave) {
    MemoryPool pool;
    Stream s0(0);
    Stream s1(1);
    DevicePtr a0 = pool.allocate_async(256, s0, 0.0);
    DevicePtr b0 = pool.allocate_async(256, s1, 0.0);
    DevicePtr a1 = pool.allocate_async(256, s0, 0.0);
    DevicePtr b1 = pool.allocate_async(256, s1, 0.0);
    // Each stream bump-allocates within its own slab: consecutive blocks
    // of one stream are closer to each other than to the other stream's.
    EXPECT_EQ(a1 - a0, b1 - b0);
    EXPECT_GE(std::max(b0, a0) - std::min(b0, a0), kSlabBytes);
}

TEST(AsyncAlloc, DeferredGaugesTrackQueueDepth) {
    MemCounters counters;
    MemoryPool pool;
    Stream s0(0);
    s0.extend_to(50.0);
    std::vector<DevicePtr> ptrs;
    for (int i = 0; i < 4; i++) {
        ptrs.push_back(pool.allocate_async(100, s0, 0.0));
    }
    for (DevicePtr p : ptrs) {
        pool.free_async(p, s0, 0.0);  // horizons at t=50
    }
    EXPECT_EQ(counters.deferred_blocks(), 4u);
    // A cross-stream allocation at t=50 reclaims the whole queue.
    Stream s1(1);
    pool.allocate_async(100, s1, 50.0);
    EXPECT_EQ(counters.deferred_blocks(), 0u);
    EXPECT_EQ(counters["kl.mem.deferred.reclaimed"], 4u);
}

TEST(AsyncAlloc, HighWaterTracksPeak) {
    MemCounters counters;
    MemoryPool pool;
    Stream s0(0);
    DevicePtr a = pool.allocate_async(300, s0, 0.0);
    DevicePtr b = pool.allocate_async(500, s0, 0.0);
    pool.free_async(a, s0, 0.0);
    pool.free_async(b, s0, 0.0);
    EXPECT_EQ(pool.bytes_in_use(), 0u);
    EXPECT_EQ(counters["kl.mem.highwater.bytes"], 800u);
}

TEST(AsyncAlloc, CapacityCheckCountsLiveBytesOnly) {
    MemoryPool pool;
    pool.set_capacity(1000);
    Stream s0(0);
    DevicePtr p = pool.allocate_async(800, s0, 0.0);
    EXPECT_THROW(pool.allocate_async(300, s0, 0.0), CudaError);
    pool.free_async(p, s0, 0.0);
    // Freed-but-deferred bytes do not count against capacity (they are
    // reusable by this stream right now).
    EXPECT_NO_THROW(pool.allocate_async(800, s0, 0.0));
}

// --- context routing ---------------------------------------------------------

TEST(ContextRouting, AsyncModeRoutesMallocThroughDefaultStream) {
    MemCounters counters;
    auto context = Context::create("NVIDIA RTX A4000");
    DevicePtr p = context->malloc(1024);
    context->free(p);
    // Same size on the default stream: stream-order reuse.
    DevicePtr q = context->malloc(1024);
    EXPECT_EQ(p, q);
    EXPECT_GE(counters["kl.mem.reuse.hits"], 1u);
    context->free(q);
}

TEST(ContextRouting, MallocAsyncOnExplicitStream) {
    auto context = Context::create("NVIDIA RTX A4000");
    Stream& stream = context->create_stream();
    MemoryPool& pool = context->memory();
    DevicePtr p = pool.allocate_async(4096, stream, context->clock().now());
    EXPECT_NO_THROW(pool.check_range(p, 4096));
    pool.free_async(p, stream, context->clock().now());
    EXPECT_THROW(context->memory().check_range(p, 1), CudaError);
}

TEST(ContextRouting, OutOfMemoryMessageUnchanged) {
    auto context = Context::create("NVIDIA RTX A4000");  // 16 GiB
    try {
        context->malloc(1ull << 60);
        FAIL() << "expected CudaError";
    } catch (const CudaError& e) {
        EXPECT_NE(std::string(e.what()).find("out of device memory"), std::string::npos);
    }
}

// --- copy-on-write payloads --------------------------------------------------

TEST(Payloads, SnapshotFreezesCurrentContents) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(64, s0, 0.0);
    auto* data = static_cast<unsigned char*>(pool.resolve(p, 64));
    std::memset(data, 7, 64);
    Payload snap = pool.snapshot(p);
    ASSERT_FALSE(snap.zeros());
    EXPECT_EQ(snap.size, 64u);
    EXPECT_EQ((*snap.data)[0], std::byte {7});
    // The block still reads the frozen bytes (now its baseline).
    const auto* read = static_cast<const unsigned char*>(pool.resolve_if_materialized(p, 64));
    ASSERT_NE(read, nullptr);
    EXPECT_EQ(read[63], 7);
}

TEST(Payloads, WriteAfterSnapshotDetachesCopyOnWrite) {
    MemCounters counters;
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(32, s0, 0.0);
    std::memset(pool.resolve(p, 32), 1, 32);
    Payload snap = pool.snapshot(p);
    // Writing detaches into private storage; the snapshot is immutable.
    std::memset(pool.resolve(p, 32), 2, 32);
    EXPECT_EQ((*snap.data)[0], std::byte {1});
    const auto* read = static_cast<const unsigned char*>(pool.resolve_if_materialized(p, 32));
    EXPECT_EQ(read[0], 2);
    EXPECT_EQ(counters["kl.mem.cow.bytes_copied"], 32u);
}

TEST(Payloads, SnapshotOfUntouchedBlockIsZeros) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(128, s0, 0.0);
    Payload snap = pool.snapshot(p);
    EXPECT_TRUE(snap.zeros());
    EXPECT_EQ(snap.size, 128u);
}

TEST(Payloads, BindSwapsContentsWithoutCopying) {
    MemCounters counters;
    MemoryPool pool;
    Stream s0(0);
    DevicePtr src = pool.allocate_async(16, s0, 0.0);
    DevicePtr dst = pool.allocate_async(16, s0, 0.0);
    std::memset(pool.resolve(src, 16), 9, 16);
    Payload snap = pool.snapshot(src);

    EXPECT_TRUE(pool.bind(dst, snap));
    const auto* read = static_cast<const unsigned char*>(pool.resolve_if_materialized(dst, 16));
    ASSERT_NE(read, nullptr);
    EXPECT_EQ(read[5], 9);
    // Re-binding the same unwritten payload is a no-op.
    EXPECT_FALSE(pool.bind(dst, snap));
    // After a write, the bind re-applies.
    std::memset(pool.resolve(dst, 16), 0, 16);
    EXPECT_TRUE(pool.bind(dst, snap));
    EXPECT_EQ(counters["kl.mem.cow.bytes_copied"], 16u);  // one detach, from the write
}

TEST(Payloads, BindSizeMismatchThrows) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr a = pool.allocate_async(16, s0, 0.0);
    DevicePtr b = pool.allocate_async(32, s0, 0.0);
    Payload snap = pool.snapshot(a);
    EXPECT_THROW(pool.bind(b, snap), CudaError);
    EXPECT_THROW(pool.bind(b + 4, pool.snapshot(b)), CudaError);  // not a base
    EXPECT_THROW(pool.snapshot(a + 4), CudaError);
}

TEST(Payloads, SnapshotOutlivesFreeOfSourceBlock) {
    MemoryPool pool;
    Stream s0(0);
    DevicePtr p = pool.allocate_async(64, s0, 0.0);
    std::memset(pool.resolve(p, 64), 42, 64);
    Payload snap = pool.snapshot(p);
    pool.free_async(p, s0, 0.0);
    DevicePtr q = pool.allocate_async(64, s0, 0.0);  // recycles the bytes
    ASSERT_EQ(q, p);
    // The snapshot still holds the frozen contents (shared ownership).
    EXPECT_EQ((*snap.data)[63], std::byte {42});
    // And binding it to the recycled block restores them.
    pool.bind(q, snap);
    const auto* read = static_cast<const unsigned char*>(pool.resolve_if_materialized(q, 64));
    EXPECT_EQ(read[0], 42);
}

// --- allocator reference oracle ----------------------------------------------

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
/// bookkeeping the same way the shadow-memory model in
/// test_graph_lint.cpp cross-checks the static KL006 pass.
///
/// The stress harness mirrors every allocate_async/free_async/access into
/// this oracle, in submission order, and asserts hazards() stays empty: the
/// oracle independently tracks live extents, pending (deferred) frees and
/// their completion horizons, so any pool bug that hands out overlapping,
/// premature or dead bytes surfaces as a hazard here.
///
/// Not thread-safe: feed it from one thread (serialize the schedule).
class AllocOracle {
  public:
    /// A new allocation of [base, base+size) submitted on `stream` at host
    /// time `host_now`. Flags Overlap against live extents and
    /// PrematureReuse against pending frees that neither belong to
    /// `stream` nor completed by `host_now`; bytes of pending frees the
    /// allocation may legally reuse are reclaimed into it.
    void on_alloc(uint64_t base, uint64_t size, uint64_t stream, double host_now);

    /// A deferred free of the allocation at `base`, enqueued on `stream`
    /// with completion horizon `ready_time` (= the stream's busy horizon
    /// or the submission time, whichever is later).
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

bool overlaps(uint64_t a_begin, uint64_t a_end, uint64_t b_begin, uint64_t b_end) {
    return a_begin < b_end && b_begin < a_end;
}

void AllocOracle::on_alloc(
    uint64_t base,
    uint64_t size,
    uint64_t stream,
    double host_now) {
    const uint64_t end = base + size;

    // Overlap with a live extent is unconditionally a bug.
    auto it = live_.upper_bound(base);
    if (it != live_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.end > base) {
            it = prev;
        }
    }
    for (; it != live_.end() && it->first < end; ++it) {
        if (overlaps(base, end, it->first, it->second.end)) {
            hazards_.push_back(
                {AllocHazard::Kind::Overlap,
                 base,
                 size,
                 stream,
                 "allocation overlaps live block at "
                     + std::to_string(it->first)});
        }
    }

    // Bytes of a pending free may be reused by the freeing stream at any
    // time (stream order) or by anyone once the clock passed the horizon;
    // anything else is premature reuse. Reclaimed entries leave the
    // pending set either way — the allocator has demonstrably recycled
    // them, and double-reporting every later access would drown the
    // signal.
    for (size_t i = 0; i < pending_.size();) {
        Pending& p = pending_[i];
        if (!overlaps(base, end, p.base, p.end)) {
            i++;
            continue;
        }
        if (p.free_stream != stream && p.ready_time > host_now) {
            hazards_.push_back(
                {AllocHazard::Kind::PrematureReuse,
                 base,
                 size,
                 stream,
                 "reuses bytes of a stream-" + std::to_string(p.free_stream)
                     + " deferred free not complete until t="
                     + std::to_string(p.ready_time) + " (now t="
                     + std::to_string(host_now) + ")"});
        }
        p = pending_.back();
        pending_.pop_back();
    }

    live_[base] = Region {end, stream};
}

void AllocOracle::on_free(uint64_t base, uint64_t stream, double ready_time) {
    auto it = live_.find(base);
    if (it == live_.end()) {
        // Free of something the oracle never saw allocated (or already
        // freed): model it as an access violation of zero bytes.
        hazards_.push_back(
            {AllocHazard::Kind::UseAfterFreeAsync,
             base,
             0,
             stream,
             "free of unknown or already-freed base"});
        return;
    }
    pending_.push_back(Pending {base, it->second.end, stream, ready_time});
    live_.erase(it);
}

void AllocOracle::on_access(
    uint64_t ptr,
    uint64_t size,
    uint64_t stream,
    double host_now) {
    (void)host_now;  // dead is dead regardless of the clock
    const uint64_t end = ptr + size;

    for (const Pending& p : pending_) {
        if (overlaps(ptr, end, p.base, p.end)) {
            hazards_.push_back(
                {AllocHazard::Kind::UseAfterFreeAsync,
                 ptr,
                 size,
                 stream,
                 "access to bytes whose deferred free was enqueued on stream "
                     + std::to_string(p.free_stream)});
            return;
        }
    }

    // Must land fully inside one live extent.
    auto it = live_.upper_bound(ptr);
    if (it != live_.begin()) {
        auto prev = std::prev(it);
        if (ptr >= prev->first && end <= prev->second.end) {
            return;  // fully contained in a live allocation
        }
    }
    hazards_.push_back(
        {AllocHazard::Kind::UseAfterFreeAsync,
         ptr,
         size,
         stream,
         "access outside every live allocation"});
}

// --- randomized stress suite -------------------------------------------------

/// One generated schedule step. Blocks are named by dense logical ids so
/// the same schedule replays identically against the pool and the oracle.
struct Op {
    enum Kind { Alloc, Free, Write, Read, Work, Advance } kind = Alloc;
    int block = 0;        ///< logical block id
    uint64_t size = 0;    ///< Alloc: bytes
    int stream = 0;       ///< issuing stream index
    double amount = 0;    ///< Work: duration; Advance: clock delta
    uint8_t pattern = 0;  ///< Write: fill byte
};

/// Generates a random schedule over `streams` streams: allocations and
/// deferred frees interleaved with device work, clock advances and
/// materializing writes/reads.
std::vector<Op> generate_schedule(Rng& rng, int streams, int steps) {
    std::vector<Op> ops;
    std::vector<int> live;  // logical ids currently allocated
    int next_id = 0;
    for (int i = 0; i < steps; i++) {
        const int roll = static_cast<int>(rng.next_below(10));
        if (roll < 3 || live.empty()) {
            Op op;
            op.kind = Op::Alloc;
            op.block = next_id++;
            // Mix of sizes with deliberate repeats so reuse actually hits.
            static constexpr uint64_t kSizes[] = {64, 256, 1024, 4096, 100};
            op.size = kSizes[rng.next_below(5)];
            op.stream = static_cast<int>(rng.next_below(streams));
            ops.push_back(op);
            live.push_back(op.block);
        } else if (roll < 5) {
            const size_t pick = rng.next_below(live.size());
            Op op;
            op.kind = Op::Free;
            op.block = live[pick];
            op.stream = static_cast<int>(rng.next_below(streams));
            ops.push_back(op);
            live[pick] = live.back();
            live.pop_back();
        } else if (roll < 7) {
            Op op;
            op.kind = Op::Write;
            op.block = live[rng.next_below(live.size())];
            op.stream = static_cast<int>(rng.next_below(streams));
            op.pattern = static_cast<uint8_t>(rng.next_below(255) + 1);
            ops.push_back(op);
        } else if (roll < 8) {
            Op op;
            op.kind = Op::Read;
            op.block = live[rng.next_below(live.size())];
            op.stream = static_cast<int>(rng.next_below(streams));
            ops.push_back(op);
        } else if (roll < 9) {
            Op op;
            op.kind = Op::Work;
            op.stream = static_cast<int>(rng.next_below(streams));
            op.amount = rng.next_double(0.001, 0.1);
            ops.push_back(op);
        } else {
            Op op;
            op.kind = Op::Advance;
            op.amount = rng.next_double(0.001, 0.2);
            ops.push_back(op);
        }
    }
    return ops;
}

/// Replays a schedule against a pool, asserting that every Read step sees
/// the block's last written pattern (zeros when never written). With
/// `oracle`/`check_overlap`, also mirrors into the reference model and
/// asserts live extents never overlap.
void run_schedule(const std::vector<Op>& ops, AllocOracle* oracle, bool check_overlap) {
    MemoryPool pool;
    SimClock clock;
    std::vector<std::unique_ptr<Stream>> streams;
    for (int i = 0; i < 8; i++) {
        streams.push_back(std::make_unique<Stream>(i));
    }
    struct LiveBlock {
        DevicePtr base = 0;
        uint64_t size = 0;
        uint8_t last_pattern = 0;  ///< 0: never written (reads as zeros)
    };
    std::map<int, LiveBlock> live;

    for (const Op& op : ops) {
        Stream& stream = *streams[op.stream];
        const double now = clock.now();
        switch (op.kind) {
            case Op::Alloc: {
                DevicePtr p = pool.allocate_async(op.size, stream, now);
                if (oracle != nullptr) {
                    oracle->on_alloc(p, op.size, stream.id(), now);
                }
                if (check_overlap) {
                    for (const auto& [id, block] : live) {
                        const bool disjoint =
                            p + op.size <= block.base || block.base + block.size <= p;
                        EXPECT_TRUE(disjoint)
                            << "allocation [" << p << ", " << p + op.size
                            << ") overlaps live block " << id;
                    }
                }
                live[op.block] = LiveBlock {p, op.size, 0};
                break;
            }
            case Op::Free: {
                LiveBlock block = live.at(op.block);
                if (oracle != nullptr) {
                    oracle->on_free(block.base, stream.id(), stream.record_horizon(now));
                }
                pool.free_async(block.base, stream, now);
                live.erase(op.block);
                break;
            }
            case Op::Write: {
                LiveBlock& block = live.at(op.block);
                if (oracle != nullptr) {
                    oracle->on_access(block.base, block.size, stream.id(), now);
                }
                std::memset(pool.resolve(block.base, block.size), op.pattern, block.size);
                block.last_pattern = op.pattern;
                break;
            }
            case Op::Read: {
                const LiveBlock& block = live.at(op.block);
                if (oracle != nullptr) {
                    oracle->on_access(block.base, block.size, stream.id(), now);
                }
                const auto* data = static_cast<const unsigned char*>(
                    pool.resolve_if_materialized(block.base, block.size));
                const unsigned char expected = block.last_pattern;
                if (data == nullptr) {
                    EXPECT_EQ(expected, 0)
                        << "written block " << op.block << " lost its contents";
                } else {
                    EXPECT_EQ(data[0], expected);
                    EXPECT_EQ(data[block.size - 1], expected);
                }
                break;
            }
            case Op::Work:
                stream.enqueue(op.amount, now);
                break;
            case Op::Advance:
                clock.advance(op.amount);
                break;
        }
    }
}

TEST(StressSuite, RandomSchedulesHoldInvariants100Seeds) {
    const int seeds = 100 * seed_multiplier();
    for (int seed = 0; seed < seeds; seed++) {
        Rng rng(0xA5F00000ull + seed);
        const int streams = 2 + static_cast<int>(rng.next_below(7));  // 2..8
        std::vector<Op> ops = generate_schedule(rng, streams, 300);
        AllocOracle oracle;
        run_schedule(ops, &oracle, /*check_overlap=*/true);
        ASSERT_TRUE(oracle.hazards().empty())
            << "seed " << seed << ": " << oracle.hazards().front().detail;
        if (::testing::Test::HasFailure()) {
            FAIL() << "first failing seed: " << seed;
        }
    }
}

TEST(StressSuite, ConcurrentPerThreadStreams) {
    // 8 threads, each with its own stream and private blocks, hammering
    // one pool. TSan (scripts/check.sh thread variant) validates the
    // locking; the assertions validate the bookkeeping.
    MemCounters counters;
    MemoryPool pool;
    SimClock clock;
    constexpr int kThreads = 8;
    constexpr int kIters = 200;
    std::vector<std::unique_ptr<Stream>> streams;
    for (int i = 0; i < kThreads; i++) {
        streams.push_back(std::make_unique<Stream>(i));
    }
    std::atomic<int> failures {0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            Rng rng(0xC0FFEEull + t);
            for (int i = 0; i < kIters; i++) {
                const uint64_t size = 64 + 64 * rng.next_below(8);
                const double now = clock.now();
                DevicePtr p = pool.allocate_async(size, *streams[t], now);
                auto* data = static_cast<unsigned char*>(pool.resolve(p, size));
                data[0] = static_cast<unsigned char>(t + 1);
                data[size - 1] = static_cast<unsigned char>(t + 1);
                streams[t]->enqueue(0.0001, now);
                if (data[0] != t + 1 || data[size - 1] != t + 1) {
                    failures.fetch_add(1);
                }
                pool.free_async(p, *streams[t], clock.now());
                if (rng.next_bool(0.2)) {
                    clock.advance(0.001);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(pool.bytes_in_use(), 0u);
    EXPECT_EQ(counters.live_blocks(), 0u);
}

TEST(StressSuite, ConcurrentCrossStreamChurnKeepsAccountingCoherent) {
    MemCounters counters;
    MemoryPool pool;
    SimClock clock;
    constexpr int kThreads = 8;
    std::vector<std::unique_ptr<Stream>> streams;
    for (int i = 0; i < kThreads; i++) {
        streams.push_back(std::make_unique<Stream>(i));
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
        threads.emplace_back([&, t] {
            Rng rng(0xDEAD00ull + t);
            std::vector<std::pair<DevicePtr, int>> mine;  // (ptr, freeing stream)
            for (int i = 0; i < 150; i++) {
                DevicePtr p = pool.allocate_async(256, *streams[t], clock.now());
                // Free on a DIFFERENT stream sometimes (cross-stream edge).
                const int fs = static_cast<int>(rng.next_below(kThreads));
                mine.emplace_back(p, fs);
                if (mine.size() > 4) {
                    auto [ptr, fstream] = mine.front();
                    mine.erase(mine.begin());
                    pool.free_async(ptr, *streams[fstream], clock.now());
                }
                clock.advance(0.0001);
            }
            for (auto [ptr, fstream] : mine) {
                pool.free_async(ptr, *streams[fstream], clock.now());
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(pool.bytes_in_use(), 0u);
    EXPECT_EQ(counters.live_blocks(), 0u);
    EXPECT_EQ(counters["kl.mem.alloc.count"], uint64_t(kThreads) * 150);
    EXPECT_EQ(counters["kl.mem.free.count"], counters["kl.mem.alloc.count"]);
    EXPECT_EQ(counters["kl.mem.deferred.enqueued"], counters["kl.mem.free.count"]);
    EXPECT_LE(counters["kl.mem.deferred.reclaimed"], counters["kl.mem.deferred.enqueued"]);
}

// --- allocator-oracle cross-check -------------------------------------------

TEST(AllocOracleModel, FlagsOverlap) {
    AllocOracle oracle;
    oracle.on_alloc(1000, 100, 0, 0.0);
    oracle.on_alloc(1050, 100, 1, 0.0);  // overlaps [1000, 1100)
    ASSERT_EQ(oracle.hazards().size(), 1u);
    EXPECT_EQ(oracle.hazards()[0].kind, AllocHazard::Kind::Overlap);
}

TEST(AllocOracleModel, FlagsPrematureCrossStreamReuse) {
    AllocOracle oracle;
    oracle.on_alloc(1000, 100, 0, 0.0);
    oracle.on_free(1000, 0, /*ready_time=*/10.0);
    // Same stream may reuse immediately...
    oracle.on_alloc(1000, 100, 0, 1.0);
    EXPECT_TRUE(oracle.hazards().empty());
    oracle.on_free(1000, 0, 10.0);
    // ...a different stream before t=10 is premature.
    oracle.on_alloc(1000, 100, 3, 5.0);
    ASSERT_EQ(oracle.hazards().size(), 1u);
    EXPECT_EQ(oracle.hazards()[0].kind, AllocHazard::Kind::PrematureReuse);
}

TEST(AllocOracleModel, AllowsCrossStreamReuseAfterHorizon) {
    AllocOracle oracle;
    oracle.on_alloc(2000, 64, 0, 0.0);
    oracle.on_free(2000, 0, 3.0);
    oracle.on_alloc(2000, 64, 1, 3.0);  // boundary: horizon passed
    EXPECT_TRUE(oracle.hazards().empty());
}

TEST(AllocOracleModel, FlagsUseAfterFreeAsync) {
    AllocOracle oracle;
    oracle.on_alloc(3000, 128, 0, 0.0);
    oracle.on_free(3000, 0, 5.0);
    oracle.on_access(3000, 16, 1, 1.0);
    ASSERT_EQ(oracle.hazards().size(), 1u);
    EXPECT_EQ(oracle.hazards()[0].kind, AllocHazard::Kind::UseAfterFreeAsync);
    // Double free of the (now unknown) base is also flagged.
    oracle.on_free(3000, 0, 6.0);
    EXPECT_EQ(oracle.hazards().size(), 2u);
}

TEST(AllocOracleModel, PoolAndOracleAgreeOnUseAfterFree) {
    // The pool throws on exactly the accesses the oracle flags.
    MemoryPool pool;
    Stream s0(0);
    AllocOracle oracle;
    DevicePtr p = pool.allocate_async(64, s0, 0.0);
    oracle.on_alloc(p, 64, 0, 0.0);
    EXPECT_NO_THROW(pool.check_range(p, 64));
    oracle.on_access(p, 64, 0, 0.0);
    EXPECT_TRUE(oracle.hazards().empty());

    oracle.on_free(p, 0, 0.0);
    pool.free_async(p, s0, 0.0);
    EXPECT_THROW(pool.check_range(p, 64), CudaError);
    oracle.on_access(p, 64, 0, 0.0);
    EXPECT_FALSE(oracle.hazards().empty());
}

TEST(AllocOracleCrossCheck, PoolAgreesWithOracle50Seeds) {
    // The deferred-free bookkeeping of the real allocator, judged by the
    // independent reference model: 50+ random schedules, zero hazards.
    const int seeds = 50 * seed_multiplier();
    for (int seed = 0; seed < seeds; seed++) {
        Rng rng(0x0AC1E000ull + seed);
        const int streams = 2 + static_cast<int>(rng.next_below(7));
        std::vector<Op> ops = generate_schedule(rng, streams, 250);
        AllocOracle oracle;
        run_schedule(ops, &oracle, /*check_overlap=*/false);
        ASSERT_TRUE(oracle.hazards().empty())
            << "seed " << seed << ": " << oracle.hazards().front().detail;
    }
}

}  // namespace
}  // namespace kl::sim
