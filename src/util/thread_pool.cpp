#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

#include "util/errors.hpp"
#include "util/fs.hpp"

namespace kl::util {

namespace {

size_t default_worker_count() {
    size_t n = std::thread::hardware_concurrency();
    if (n == 0) {
        n = 4;
    }
    return std::clamp<size_t>(n, 2, 16);
}

thread_local int t_worker_index = -1;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
    if (num_threads == 0) {
        num_threads = default_worker_count();
    }
    workers_.reserve(num_threads);
    for (size_t i = 0; i < num_threads; i++) {
        workers_.emplace_back([this, i] { worker_loop(static_cast<int>(i)); });
    }
}

ThreadPool::~ThreadPool() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void ThreadPool::submit(std::function<void()> task) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_) {
            throw Error("ThreadPool::submit on a pool that is shutting down");
        }
        queue_.push_back(std::move(task));
    }
    work_cv_.notify_one();
}

int ThreadPool::current_worker_index() noexcept {
    return t_worker_index;
}

void ThreadPool::worker_loop(int worker_index) {
    t_worker_index = worker_index;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                return;  // stopping and drained
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        try {
            task();
        } catch (...) {
            // Tasks must report failures through their own job state; an
            // escaped exception here has no receiver.
        }
    }
}

ThreadPool& compile_pool() {
    static size_t workers = [] {
        if (auto env = get_env("KERNEL_LAUNCHER_THREADS")) {
            long parsed = std::strtol(env->c_str(), nullptr, 10);
            if (parsed > 0) {
                return static_cast<size_t>(parsed);
            }
        }
        return size_t {0};
    }();
    static ThreadPool pool(workers);
    return pool;
}

}  // namespace kl::util
