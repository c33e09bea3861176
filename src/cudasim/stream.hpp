#pragma once

#include <atomic>
#include <cstdint>

namespace kl::sim {

/// Simulated time. The simulator maintains a virtual clock (seconds since
/// context creation); device work advances stream timelines on that clock.
/// All experiment "wall clock" axes (e.g. the tuning-session plots) are
/// expressed in this simulated time, which makes runs machine-independent
/// and bit-reproducible.
///
/// The clock is lock-free so that concurrent launch paths (and the
/// compile-ahead pipeline) can charge time without a global lock; advance
/// and advance_to are atomic read-modify-write operations.
class SimClock {
  public:
    explicit SimClock(double start = 0) noexcept: now_(start) {}

    double now() const noexcept {
        return now_.load(std::memory_order_relaxed);
    }

    void advance(double seconds) noexcept {
        double current = now_.load(std::memory_order_relaxed);
        while (!now_.compare_exchange_weak(
            current, current + seconds, std::memory_order_relaxed)) {
        }
    }

    void advance_to(double t) noexcept {
        double current = now_.load(std::memory_order_relaxed);
        while (current < t
               && !now_.compare_exchange_weak(current, t, std::memory_order_relaxed)) {
        }
    }

  private:
    std::atomic<double> now_ {0};
};

/// A CUDA stream: an in-order work queue with its own completion horizon on
/// the simulated clock. Enqueueing is atomic, so multiple host threads may
/// submit to the same stream concurrently (their order is then whatever the
/// race resolves to, exactly as with the real driver).
class Stream {
  public:
    explicit Stream(uint64_t id = 0) noexcept: id_(id) {}

    uint64_t id() const noexcept {
        return id_;
    }

    /// Time at which all currently-enqueued work completes.
    double busy_until() const noexcept {
        return busy_until_.load(std::memory_order_relaxed);
    }

    /// Enqueues `duration` seconds of device work; work starts when both
    /// the host has issued it (`host_now`) and prior stream work finished.
    /// Returns the work's start time.
    double enqueue(double duration, double host_now) noexcept {
        double current = busy_until_.load(std::memory_order_relaxed);
        double start;
        do {
            start = current > host_now ? current : host_now;
        } while (!busy_until_.compare_exchange_weak(
            current, start + duration, std::memory_order_relaxed));
        op_epoch_.fetch_add(1, std::memory_order_relaxed);
        return start;
    }

    /// Pushes the completion horizon out to at least `t` (atomic max).
    /// Graph replay (src/graph/) schedules a whole DAG of pre-baked work
    /// as one submission and publishes only the graph's end time, instead
    /// of enqueueing node by node.
    void extend_to(double t) noexcept {
        double current = busy_until_.load(std::memory_order_relaxed);
        while (current < t
               && !busy_until_.compare_exchange_weak(current, t, std::memory_order_relaxed)) {
        }
        op_epoch_.fetch_add(1, std::memory_order_relaxed);
    }

    /// Count of enqueue/extend_to operations ever issued on this stream:
    /// a cheap "did anything land between these two points" probe used by
    /// the stream-ordered allocator's stress instrumentation.
    uint64_t op_epoch() const noexcept {
        return op_epoch_.load(std::memory_order_relaxed);
    }

    /// The event boundary an operation enqueued at host time `host_now`
    /// completes at: prior stream work or the issue time, whichever is
    /// later. This is the horizon MemoryPool::free_async defers to.
    double record_horizon(double host_now) const noexcept {
        const double busy = busy_until();
        return busy > host_now ? busy : host_now;
    }

  private:
    uint64_t id_;
    std::atomic<double> busy_until_ {0};
    std::atomic<uint64_t> op_epoch_ {0};
};

}  // namespace kl::sim
