#include "cudasim/memory.hpp"

#include <algorithm>
#include <cstring>
#include <string>

#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace kl::sim {

namespace {

constexpr uint64_t kGuardGap = 4096;  // unmapped bytes between allocations
constexpr uint64_t kDefaultSlabBytes = 64ull << 20;

/// Address-space footprint of one block inside a slab: the requested bytes
/// plus the guard gap, rounded up to the CUDA-like 256-byte granularity.
uint64_t block_footprint(uint64_t size) {
    return (size + kGuardGap + 255) & ~uint64_t(255);
}

/// 0 until initialized from KERNEL_LAUNCHER_MEM_SLAB.
std::atomic<uint64_t> g_slab_bytes {0};

uint64_t parse_slab_bytes(const std::string& text) {
    size_t pos = 0;
    unsigned long long value = 0;
    try {
        value = std::stoull(text, &pos);
    } catch (const std::exception&) {
        throw Error("invalid KERNEL_LAUNCHER_MEM_SLAB value '" + text + "'");
    }
    uint64_t multiplier = 1;
    if (pos < text.size()) {
        std::string suffix = text.substr(pos);
        if (suffix == "K" || suffix == "k") {
            multiplier = 1ull << 10;
        } else if (suffix == "M" || suffix == "m") {
            multiplier = 1ull << 20;
        } else if (suffix == "G" || suffix == "g") {
            multiplier = 1ull << 30;
        } else {
            throw Error("invalid KERNEL_LAUNCHER_MEM_SLAB value '" + text + "'");
        }
    }
    if (value == 0) {
        throw Error("invalid KERNEL_LAUNCHER_MEM_SLAB value '" + text + "'");
    }
    return value * multiplier;
}

void bump(const char* name, uint64_t n = 1) {
    if (trace::counters_enabled()) {
        trace::counter(name).add(n);
    }
}

}  // namespace

uint64_t mem_slab_bytes() {
    uint64_t value = g_slab_bytes.load(std::memory_order_relaxed);
    if (value == 0) {
        value = kDefaultSlabBytes;
        if (std::optional<std::string> env = get_env("KERNEL_LAUNCHER_MEM_SLAB")) {
            value = parse_slab_bytes(*env);
        }
        g_slab_bytes.store(value, std::memory_order_relaxed);
    }
    return value;
}

void set_mem_slab_bytes(uint64_t bytes) {
    g_slab_bytes.store(bytes, std::memory_order_relaxed);
}

// --- accounting -------------------------------------------------------------

void MemoryPool::check_capacity(uint64_t size) const {
    if (capacity_bytes_ == 0) {
        return;
    }
    const uint64_t in_use = bytes_in_use_.load(std::memory_order_relaxed);
    if (in_use + size > capacity_bytes_) {
        throw CudaError(
            "out of device memory: requested " + std::to_string(size) + " bytes, "
            + std::to_string(capacity_bytes_ - in_use) + " available");
    }
}

void MemoryPool::note_alloc(uint64_t size) {
    live_count_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t now = bytes_in_use_.fetch_add(size, std::memory_order_relaxed) + size;
    uint64_t high = high_water_.load(std::memory_order_relaxed);
    while (now > high
           && !high_water_.compare_exchange_weak(high, now, std::memory_order_relaxed)) {
    }
    if (trace::counters_enabled()) {
        trace::counter("kl.mem.alloc.count").add(1);
        trace::counter("kl.mem.alloc.bytes").add(size);
        if (now > high) {
            trace::counter("kl.mem.highwater.bytes").add(now - high);
        }
    }
}

// --- stream-ordered path ----------------------------------------------------

MemoryPool::Arena& MemoryPool::arena_for(uint64_t stream_id) {
    std::lock_guard<std::mutex> lock(arenas_mutex_);
    std::unique_ptr<Arena>& slot = arenas_[stream_id];
    if (slot == nullptr) {
        slot = std::make_unique<Arena>();
    }
    return *slot;
}

void MemoryPool::reclaim_ready(Arena& arena, double host_now) {
    // Only horizon-passed entries migrate to the free lists: a free list
    // is poppable by ANY stream, so it must never hold a block whose
    // deferred free is still pending (same-stream reuse takes directly
    // from the deferred queue instead — see take_deferred).
    size_t kept = 0;
    size_t reclaimed = 0;
    uint64_t reclaimed_bytes = 0;
    for (size_t i = 0; i < arena.deferred.size(); i++) {
        Deferred entry = arena.deferred[i];
        if (entry.ready_time <= host_now) {
            arena.free_lists[entry.block->size].push_back(entry.block);
            reclaimed++;
            reclaimed_bytes += entry.block->size;
        } else {
            arena.deferred[kept++] = entry;
        }
    }
    arena.deferred.resize(kept);
    if (reclaimed > 0) {
        deferred_blocks_.fetch_sub(reclaimed, std::memory_order_relaxed);
        deferred_bytes_.fetch_sub(reclaimed_bytes, std::memory_order_relaxed);
        bump("kl.mem.deferred.reclaimed", reclaimed);
    }
}

MemoryPool::Allocation* MemoryPool::take_deferred(Arena& arena, uint64_t size) {
    // Stream-order reuse: every deferred entry of this arena was freed on
    // this arena's stream, so an allocation on the same stream may claim
    // one regardless of the clock — the stream's in-order queue IS the
    // ordering edge. Caller holds arena.m and is allocating on the
    // arena's own stream.
    for (size_t i = 0; i < arena.deferred.size(); i++) {
        if (arena.deferred[i].block->size == size) {
            Allocation* block = arena.deferred[i].block;
            arena.deferred[i] = arena.deferred.back();
            arena.deferred.pop_back();
            deferred_blocks_.fetch_sub(1, std::memory_order_relaxed);
            deferred_bytes_.fetch_sub(size, std::memory_order_relaxed);
            bump("kl.mem.deferred.reclaimed");
            return block;
        }
    }
    return nullptr;
}

MemoryPool::Allocation* MemoryPool::pop_free(Arena& arena, uint64_t size) {
    auto it = arena.free_lists.find(size);
    if (it == arena.free_lists.end() || it->second.empty()) {
        return nullptr;
    }
    Allocation* block = it->second.back();
    it->second.pop_back();
    return block;
}

MemoryPool::Allocation* MemoryPool::carve(Arena& arena, uint64_t size) {
    const uint64_t footprint = block_footprint(size);
    uint64_t base = 0;
    {
        std::lock_guard<std::mutex> lock(arena.m);
        if (arena.slab_base == 0 || arena.slab_offset + footprint > arena.slab_end - arena.slab_base) {
            const uint64_t slab_size = std::max(mem_slab_bytes(), footprint);
            arena.slab_base = next_base_.fetch_add(slab_size, std::memory_order_relaxed);
            arena.slab_end = arena.slab_base + slab_size;
            arena.slab_offset = 0;
            arena_bytes_.fetch_add(slab_size, std::memory_order_relaxed);
            slab_count_.fetch_add(1, std::memory_order_relaxed);
            if (trace::counters_enabled()) {
                trace::counter("kl.mem.slabs").add(1);
                trace::counter("kl.mem.slab.bytes").add(slab_size);
            }
        }
        base = arena.slab_base + arena.slab_offset;
        arena.slab_offset += footprint;
    }
    auto alloc = std::make_unique<Allocation>();
    alloc->base = base;
    alloc->size = size;
    Allocation* block = alloc.get();
    {
        std::unique_lock<std::shared_mutex> lock(map_mutex_);
        allocations_.emplace(base, std::move(alloc));
    }
    return block;
}

DevicePtr MemoryPool::allocate_async(uint64_t size, const Stream& stream, double host_now) {
    if (size == 0) {
        throw CudaError("cuMemAllocAsync: zero-size allocation");
    }
    std::shared_lock<std::shared_mutex> fence(reclaim_mutex_);
    check_capacity(size);
    const uint64_t stream_id = stream.id();

    // 1. The issuing stream's own arena: completed frees first, then
    //    stream-order reuse straight from the deferred queue (this
    //    stream's own pending frees are reusable unconditionally).
    Arena& own = arena_for(stream_id);
    Allocation* block = nullptr;
    {
        std::lock_guard<std::mutex> lock(own.m);
        reclaim_ready(own, host_now);
        block = pop_free(own, size);
        if (block == nullptr) {
            block = take_deferred(own, size);
        }
    }

    // 2. Scavenge other arenas for completed frees (ordering edge: the
    //    virtual clock passed the free's horizon before this allocation
    //    was issued). One arena lock at a time, never nested.
    if (block == nullptr) {
        std::vector<Arena*> others;
        {
            std::lock_guard<std::mutex> lock(arenas_mutex_);
            others.reserve(arenas_.size());
            for (auto& [id, arena] : arenas_) {
                if (id != stream_id) {
                    others.push_back(arena.get());
                }
            }
        }
        for (Arena* other : others) {
            std::lock_guard<std::mutex> lock(other->m);
            reclaim_ready(*other, host_now);
            block = pop_free(*other, size);
            if (block != nullptr) {
                break;
            }
        }
    }

    if (block != nullptr) {
        // Reused bytes must be indistinguishable from a fresh allocation:
        // contents were dropped at free time, so the block lazily reads as
        // zeros again.
        {
            std::lock_guard<std::mutex> contents(block->m);
            block->storage.reset();
            block->baseline.reset();
            block->dirty = false;
        }
        block->live.store(true, std::memory_order_release);
        reuse_hits_.fetch_add(1, std::memory_order_relaxed);
        if (trace::counters_enabled()) {
            trace::counter("kl.mem.reuse.hits").add(1);
            trace::counter("kl.mem.reuse.bytes").add(size);
        }
        note_alloc(size);
        return block->base;
    }

    // 3. Fresh bytes from the stream's slab.
    block = carve(own, size);
    note_alloc(size);
    return block->base;
}

void MemoryPool::free_async(DevicePtr ptr, const Stream& stream, double host_now) {
    std::shared_lock<std::shared_mutex> fence(reclaim_mutex_);
    Allocation* block = nullptr;
    {
        std::shared_lock<std::shared_mutex> lock(map_mutex_);
        auto it = allocations_.find(ptr);
        if (it == allocations_.end()) {
            throw CudaError("cuMemFreeAsync: pointer is not an allocation base address");
        }
        block = it->second.get();
        if (!block->live.exchange(false, std::memory_order_acq_rel)) {
            throw CudaError("cuMemFreeAsync: double free of device pointer");
        }
        std::lock_guard<std::mutex> contents(block->m);
        block->storage.reset();
        block->baseline.reset();
        block->dirty = false;
    }
    bytes_in_use_.fetch_sub(block->size, std::memory_order_relaxed);
    live_count_.fetch_sub(1, std::memory_order_relaxed);

    // The free completes when the stream's already-enqueued work drains —
    // but never before the host issued it.
    const double ready = stream.record_horizon(host_now);
    // Blocks freed on a stream other than the one that carved them are
    // adopted by the freeing stream's arena (the free's ordering lives on
    // that stream's timeline).
    Arena& arena = arena_for(stream.id());
    {
        std::lock_guard<std::mutex> lock(arena.m);
        arena.deferred.push_back(Deferred {block, ready});
    }
    const uint64_t depth = deferred_blocks_.fetch_add(1, std::memory_order_relaxed) + 1;
    deferred_bytes_.fetch_add(block->size, std::memory_order_relaxed);
    uint64_t peak = deferred_peak_.load(std::memory_order_relaxed);
    while (depth > peak
           && !deferred_peak_.compare_exchange_weak(peak, depth, std::memory_order_relaxed)) {
    }
    bump("kl.mem.free.count");
    bump("kl.mem.deferred.enqueued");
}

// --- lookup and contents ----------------------------------------------------

const MemoryPool::Allocation* MemoryPool::find(DevicePtr ptr) const {
    auto it = allocations_.upper_bound(ptr);
    if (it == allocations_.begin()) {
        return nullptr;
    }
    --it;
    const Allocation& alloc = *it->second;
    if (ptr >= alloc.base && ptr < alloc.base + alloc.size) {
        return &alloc;
    }
    return nullptr;
}

MemoryPool::Allocation* MemoryPool::find(DevicePtr ptr) {
    return const_cast<Allocation*>(static_cast<const MemoryPool*>(this)->find(ptr));
}

uint64_t MemoryPool::remaining_size(DevicePtr ptr) const {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    const Allocation* alloc = find(ptr);
    if (alloc == nullptr || !alloc->live.load(std::memory_order_acquire)) {
        throw CudaError("invalid device pointer");
    }
    return alloc->base + alloc->size - ptr;
}

void MemoryPool::check_range(DevicePtr ptr, uint64_t size) const {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    check_range_locked(ptr, size);
}

void MemoryPool::check_range_locked(DevicePtr ptr, uint64_t size) const {
    const Allocation* alloc = find(ptr);
    if (alloc == nullptr) {
        throw CudaError("invalid device pointer");
    }
    if (!alloc->live.load(std::memory_order_acquire)) {
        throw CudaError(
            "use after free: device pointer into a freed allocation (the block's "
            "deferred free was already enqueued)");
    }
    if (ptr + size > alloc->base + alloc->size) {
        throw CudaError(
            "device memory access out of bounds: " + std::to_string(size)
            + " bytes at offset " + std::to_string(ptr - alloc->base) + " of a "
            + std::to_string(alloc->size) + "-byte allocation");
    }
}

MemoryPool::Allocation* MemoryPool::checked_block(DevicePtr ptr, uint64_t size) {
    check_range_locked(ptr, size);
    return find(ptr);
}

void* MemoryPool::resolve(DevicePtr ptr, uint64_t size) {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    Allocation* alloc = checked_block(ptr, size);
    std::lock_guard<std::mutex> contents(alloc->m);
    if (alloc->storage == nullptr) {
        // First touch (or first write after a COW bind): materialize a
        // private copy — of the baseline when one is bound, else zeros.
        auto storage = std::make_shared<std::vector<std::byte>>();
        if (alloc->baseline != nullptr) {
            *storage = *alloc->baseline;
            cow_detach_bytes_.fetch_add(alloc->size, std::memory_order_relaxed);
            bump("kl.mem.cow.bytes_copied", alloc->size);
        } else {
            storage->assign(static_cast<size_t>(alloc->size), std::byte {0});
        }
        alloc->storage = std::move(storage);
        alloc->baseline.reset();
    }
    alloc->dirty = true;
    return alloc->storage->data() + (ptr - alloc->base);
}

const void* MemoryPool::resolve_if_materialized(DevicePtr ptr, uint64_t size) {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    Allocation* alloc = checked_block(ptr, size);
    std::lock_guard<std::mutex> contents(alloc->m);
    if (alloc->storage != nullptr) {
        return alloc->storage->data() + (ptr - alloc->base);
    }
    if (alloc->baseline != nullptr) {
        return alloc->baseline->data() + (ptr - alloc->base);
    }
    return nullptr;
}

bool MemoryPool::is_materialized(DevicePtr ptr) const {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    const Allocation* alloc = find(ptr);
    if (alloc == nullptr || !alloc->live.load(std::memory_order_acquire)) {
        throw CudaError("invalid device pointer");
    }
    // The contents mutex is not needed to answer the question racily-but-
    // safely; both pointers are only ever swapped under alloc->m, and this
    // query is advisory (a "has anyone touched it" probe).
    Allocation* mutable_alloc = const_cast<Allocation*>(alloc);
    std::lock_guard<std::mutex> contents(mutable_alloc->m);
    return alloc->storage != nullptr || alloc->baseline != nullptr;
}

// --- functional effects -----------------------------------------------------

void MemoryPool::write_from_host(DevicePtr dst, const void* src, uint64_t size) {
    std::memcpy(resolve(dst, size), src, size);
}

void MemoryPool::read_to_host(void* dst, DevicePtr src, uint64_t size) {
    const void* host = resolve_if_materialized(src, size);
    if (host != nullptr) {
        std::memcpy(dst, host, size);
    } else {
        std::memset(dst, 0, size);
    }
}

void MemoryPool::copy(DevicePtr dst, DevicePtr src, uint64_t size) {
    if (is_materialized(src)) {
        // Materialize the destination first: when src and dst share a
        // block, the write-side detach must not drop the baseline the
        // source pointer would read from.
        void* to = resolve(dst, size);
        const void* from = resolve_if_materialized(src, size);
        if (from != nullptr) {
            std::memmove(to, from, size);
        } else {
            std::memset(to, 0, size);
        }
    } else if (is_materialized(dst)) {
        std::memset(resolve(dst, size), 0, size);
    }
}

void MemoryPool::fill(DevicePtr dst, uint8_t value, uint64_t size) {
    // Zero-fill of untouched memory is already the materialization
    // default; only a nonzero fill forces materialization.
    if (value != 0 || is_materialized(dst)) {
        std::memset(resolve(dst, size), value, size);
    }
}

// --- zero-copy payloads -----------------------------------------------------

Payload MemoryPool::snapshot(DevicePtr ptr) {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    Allocation* alloc = find(ptr);
    if (alloc == nullptr || !alloc->live.load(std::memory_order_acquire)) {
        throw CudaError("snapshot: invalid device pointer");
    }
    if (ptr != alloc->base) {
        throw CudaError("snapshot: pointer is not an allocation base address");
    }
    std::lock_guard<std::mutex> contents(alloc->m);
    if (alloc->storage != nullptr) {
        // Freeze the private storage into an immutable baseline: the block
        // keeps reading these bytes, and the next write detaches. O(1).
        alloc->baseline = std::move(alloc->storage);
        alloc->storage.reset();
    }
    alloc->dirty = false;
    return Payload {alloc->baseline, alloc->size};
}

bool MemoryPool::bind(DevicePtr ptr, const Payload& payload) {
    std::shared_lock<std::shared_mutex> lock(map_mutex_);
    Allocation* alloc = find(ptr);
    if (alloc == nullptr || !alloc->live.load(std::memory_order_acquire)) {
        throw CudaError("bind: invalid device pointer");
    }
    if (ptr != alloc->base) {
        throw CudaError("bind: pointer is not an allocation base address");
    }
    if (alloc->size != payload.size) {
        throw CudaError(
            "bind: payload of " + std::to_string(payload.size)
            + " bytes does not match the " + std::to_string(alloc->size)
            + "-byte allocation");
    }
    std::lock_guard<std::mutex> contents(alloc->m);
    if (!alloc->dirty && alloc->storage == nullptr && alloc->baseline == payload.data) {
        bump("kl.mem.bind.hits");
        return false;  // already bound and unwritten — nothing to do
    }
    alloc->storage.reset();
    alloc->baseline = payload.data;
    alloc->dirty = false;
    bump("kl.mem.bind.rebinds");
    return true;
}

// --- stats and teardown -----------------------------------------------------

MemoryPool::Stats MemoryPool::stats() const {
    Stats s;
    s.bytes_in_use = bytes_in_use_.load(std::memory_order_relaxed);
    s.high_water_bytes = high_water_.load(std::memory_order_relaxed);
    s.arena_bytes = arena_bytes_.load(std::memory_order_relaxed);
    s.slab_count = slab_count_.load(std::memory_order_relaxed);
    s.deferred_blocks = deferred_blocks_.load(std::memory_order_relaxed);
    s.deferred_bytes = deferred_bytes_.load(std::memory_order_relaxed);
    s.deferred_peak = deferred_peak_.load(std::memory_order_relaxed);
    s.reuse_hits = reuse_hits_.load(std::memory_order_relaxed);
    s.cow_detach_bytes = cow_detach_bytes_.load(std::memory_order_relaxed);
    return s;
}

void MemoryPool::release_all() {
    // Epoch fence: wait out every in-flight replay / functional memory
    // operation (they hold the fence shared), then unmap under the
    // exclusive map lock. Graph executables notice the epoch bump and
    // treat their baked pointers as stale (src/graph/).
    std::unique_lock<std::shared_mutex> fence(reclaim_mutex_);
    std::unique_lock<std::shared_mutex> lock(map_mutex_);
    std::lock_guard<std::mutex> arenas(arenas_mutex_);
    allocations_.clear();
    arenas_.clear();
    bytes_in_use_.store(0, std::memory_order_relaxed);
    live_count_.store(0, std::memory_order_relaxed);
    deferred_blocks_.store(0, std::memory_order_relaxed);
    deferred_bytes_.store(0, std::memory_order_relaxed);
    // The point-in-time gauges describe arenas that no longer exist; the
    // lifetime stats (high-water, reuse, CoW traffic) survive the release.
    arena_bytes_.store(0, std::memory_order_relaxed);
    slab_count_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    bump("kl.mem.release_all");
}

}  // namespace kl::sim
