#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace kl::util {

/// A small fixed-size worker pool for background jobs (notably the
/// compile-ahead pipeline of WisdomKernel). Tasks are plain
/// `std::function<void()>`; anything a task wants to report — results,
/// errors — must travel through state the task itself owns (e.g. the
/// shared instance state of a WisdomKernel build). An exception escaping
/// a task is swallowed, never propagated, since there is no caller to
/// receive it.
///
/// The destructor drains the queue: every task submitted before
/// destruction runs to completion and the workers are joined. Submitting
/// to a pool that is being destroyed throws kl::Error.
class ThreadPool {
  public:
    /// `num_threads == 0` picks a default based on hardware concurrency.
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    void submit(std::function<void()> task);

    size_t worker_count() const noexcept {
        return workers_.size();
    }

    /// Index of the calling thread within its owning pool ([0,
    /// worker_count)), or -1 when the caller is not a pool worker. Lets
    /// tasks label themselves (e.g. trace thread tracks named
    /// "compile-worker-N") without threading identity through every job.
    static int current_worker_index() noexcept;

  private:
    void worker_loop(int worker_index);

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;
};

/// The process-wide pool used for background compilation. Sized from
/// KERNEL_LAUNCHER_THREADS when set, hardware concurrency otherwise.
///
/// Construction order matters: callers that enqueue work touching other
/// process-wide singletons (the rtc kernel registry, the device registry)
/// must force those singletons into existence *before* the first call to
/// compile_pool(), so that the pool — whose destructor drains in-flight
/// jobs — is destroyed first at process exit.
ThreadPool& compile_pool();

}  // namespace kl::util
