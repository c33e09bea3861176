#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cudasim/device_props.hpp"
#include "cudasim/dim3.hpp"
#include "cudasim/kernel_image.hpp"
#include "cudasim/memory.hpp"
#include "cudasim/perf_model.hpp"
#include "cudasim/stream.hpp"

namespace kl::sim {

/// How kernel launches behave.
enum class ExecutionMode {
    /// Kernel implementations really run on the CPU, producing output data;
    /// timing still comes from the model. Used for correctness validation
    /// and for small-scale examples.
    Functional,
    /// Implementations are skipped; only the performance model runs. Used
    /// by large tuning sweeps (a 512^3 stencil per evaluation would be
    /// prohibitive on the host).
    TimingOnly,
};

/// Driver-style validation of one launch's geometry against a device:
/// non-empty grid/block, dimension limits, threads per block, and shared
/// memory (dynamic + static) per block. Throws CudaError on violation.
/// Context::plan_launch runs it before the performance model.
void validate_launch_geometry(
    const DeviceProperties& device,
    const KernelImage& image,
    Dim3 grid,
    Dim3 block,
    uint64_t shared_mem);

/// Statistics about the most recent launch; examined by tests and benches.
struct LaunchRecord {
    std::string kernel_name;
    Dim3 grid;
    Dim3 block;
    uint64_t shared_mem = 0;
    TimingEstimate timing;
    double start_time = 0;
    double end_time = 0;
};

/// A simulated CUDA context: one device, its memory, its streams, and the
/// virtual clock. Mirrors the CUDA driver's current-context model with an
/// explicit, exception-safe C++ API.
///
/// The launch and memory paths are thread-safe: many host threads may
/// launch kernels, copy memory and create streams on one context
/// concurrently (the clock and stream timelines are lock-free; launch
/// bookkeeping is mutex-guarded). Creating and destroying contexts
/// themselves is not synchronized — construct them from one thread, as
/// with real CUDA primary contexts. last_launch() returns a copy, taken
/// under the lock, of the record of the most recent launch of *any*
/// thread.
///
/// Each stage of a launch or memory operation exists once and is shared
/// with graph replay (src/graph/): plan_launch() validates and times a
/// launch, run_kernel() is its functional effect, the MemoryPool effect
/// functions move the bytes of a copy or fill, and transfer_seconds()/
/// dtod_seconds()/memset_seconds() time them.
class Context {
  public:
    explicit Context(
        const DeviceProperties& device,
        ExecutionMode mode = ExecutionMode::Functional);
    ~Context();

    Context(const Context&) = delete;
    Context& operator=(const Context&) = delete;

    /// Creates a context by device name from the global registry.
    static std::unique_ptr<Context> create(
        const std::string& device_name,
        ExecutionMode mode = ExecutionMode::Functional);

    /// The context most recently constructed and not yet destroyed
    /// (process-global, like the CUDA current-context stack).
    static Context& current();
    static Context* current_or_null() noexcept;

    const DeviceProperties& device() const noexcept {
        return device_;
    }

    ExecutionMode mode() const noexcept {
        return mode_;
    }
    void set_mode(ExecutionMode mode) noexcept {
        mode_ = mode;
    }

    MemoryPool& memory() noexcept {
        return memory_;
    }

    SimClock& clock() noexcept {
        return clock_;
    }

    PerfModel& perf_model() noexcept {
        return perf_model_;
    }

    Stream& default_stream() noexcept {
        // streams_[0] is created in the constructor and never moves
        // (unique_ptr target), so this needs no lock.
        return *streams_.front();
    }

    Stream& create_stream();

    /// Blocks (advances the virtual clock) until all streams are idle.
    void synchronize();

    // --- memory operations (with modeled PCIe transfer time) -------------

    /// Allocate/free, ordered on the default stream (cudaMallocAsync with
    /// stream 0 semantics).
    DevicePtr malloc(uint64_t size);
    void free(DevicePtr ptr);
    void memcpy_htod(DevicePtr dst, const void* src, uint64_t size);
    void memcpy_dtoh(void* dst, DevicePtr src, uint64_t size);
    void memset_d8(DevicePtr dst, uint8_t value, uint64_t size);

    /// Modeled host<->device transfer time for `size` bytes.
    double transfer_seconds(uint64_t size) const;
    /// Modeled on-device copy time: read + write at memory bandwidth.
    double dtod_seconds(uint64_t size) const;
    /// Modeled fill time: one write at memory bandwidth.
    double memset_seconds(uint64_t size) const;

    // --- launching --------------------------------------------------------

    /// Validates a launch like the driver (validate_launch_geometry) and
    /// estimates its duration; the model also rejects zero-occupancy
    /// launches. Throws CudaError.
    TimingEstimate plan_launch(
        const KernelImage& image,
        Dim3 grid,
        Dim3 block,
        uint64_t shared_mem) const;

    /// Runs the kernel implementation on the host (the functional effect
    /// of a launch). Throws CudaError when the image has no implementation.
    void run_kernel(
        const KernelImage& image,
        Dim3 grid,
        Dim3 block,
        uint64_t shared_mem,
        void* const* args,
        size_t num_args);

    /// Plans and executes a kernel launch; advances the stream timeline
    /// by the modeled duration, (in Functional mode) runs the kernel
    /// implementation and stores the record returned by last_launch().
    void launch(
        const KernelImage& image,
        Dim3 grid,
        Dim3 block,
        uint64_t shared_mem,
        Stream& stream,
        void* const* args,
        size_t num_args);

    LaunchRecord last_launch() const;

    uint64_t launch_count() const noexcept {
        return launch_count_.load(std::memory_order_relaxed);
    }

  private:
    /// Advances the clock by one memory operation's modeled duration and
    /// records it (bytes-moved counter and a Sim-domain span).
    void charge_memop(const char* name, double seconds, uint64_t bytes);

    DeviceProperties device_;
    ExecutionMode mode_;
    MemoryPool memory_;
    SimClock clock_;
    PerfModel perf_model_;
    mutable std::mutex mutex_;  ///< guards streams_ and last_launch_
    std::vector<std::unique_ptr<Stream>> streams_;
    LaunchRecord last_launch_;
    std::atomic<uint64_t> launch_count_ {0};
    Context* previous_current_ = nullptr;
};

}  // namespace kl::sim
