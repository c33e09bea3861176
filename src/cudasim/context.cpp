#include "cudasim/context.hpp"

#include <shared_mutex>

#include "trace/trace.hpp"
#include "util/errors.hpp"

namespace kl::sim {

namespace {

// PCIe gen4 x16 effective host<->device throughput.
constexpr double kPcieBandwidthGbs = 12.0;
constexpr double kPcieLatencySeconds = 8e-6;

std::atomic<Context*> g_current_context {nullptr};

}  // namespace

Context::Context(const DeviceProperties& device, ExecutionMode mode):
    device_(device),
    mode_(mode) {
    // The recorder must outlive the compile pool (whose jobs trace against
    // this context's clock); force it into existence first.
    trace::ensure_initialized();
    memory_.set_capacity(device.global_memory_bytes);
    streams_.push_back(std::make_unique<Stream>(0));
    previous_current_ = g_current_context.exchange(this, std::memory_order_acq_rel);
}

Context::~Context() {
    Context* expected = this;
    g_current_context.compare_exchange_strong(
        expected, previous_current_, std::memory_order_acq_rel);
}

std::unique_ptr<Context> Context::create(const std::string& device_name, ExecutionMode mode) {
    return std::make_unique<Context>(DeviceRegistry::global().by_name(device_name), mode);
}

Context& Context::current() {
    Context* current = g_current_context.load(std::memory_order_acquire);
    if (current == nullptr) {
        throw CudaError("no current simulated CUDA context");
    }
    return *current;
}

Context* Context::current_or_null() noexcept {
    return g_current_context.load(std::memory_order_acquire);
}

Stream& Context::create_stream() {
    std::lock_guard<std::mutex> lock(mutex_);
    streams_.push_back(std::make_unique<Stream>(streams_.size()));
    return *streams_.back();
}

void Context::synchronize() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& stream : streams_) {
        clock_.advance_to(stream->busy_until());
    }
}

DevicePtr Context::malloc(uint64_t size) {
    trace::count("cuda.mallocs");
    trace::count("cuda.bytes_allocated", size);
    // Capacity checking lives in the pool (set_capacity in the ctor); no
    // context lock on the allocation path.
    return memory_.allocate_async(size, default_stream(), clock_.now());
}

void Context::free(DevicePtr ptr) {
    memory_.free_async(ptr, default_stream(), clock_.now());
}

DevicePtr Context::malloc_async(uint64_t size, Stream& stream) {
    trace::count("cuda.mallocs");
    trace::count("cuda.bytes_allocated", size);
    return memory_.allocate_async(size, stream, clock_.now());
}

void Context::free_async(DevicePtr ptr, Stream& stream) {
    memory_.free_async(ptr, stream, clock_.now());
}

double Context::transfer_seconds(uint64_t size) const {
    return kPcieLatencySeconds + static_cast<double>(size) / (kPcieBandwidthGbs * 1e9);
}

double Context::dtod_seconds(uint64_t size) const {
    return 2.0 * static_cast<double>(size) / (device_.memory_bandwidth_gbs * 1e9);
}

double Context::memset_seconds(uint64_t size) const {
    return static_cast<double>(size) / (device_.memory_bandwidth_gbs * 1e9);
}

void Context::memcpy_htod(DevicePtr dst, const void* src, uint64_t size) {
    memory_.check_range(dst, size);
    if (mode_ == ExecutionMode::Functional) {
        // The reclaim fence keeps release_all() from unmapping the block
        // while its resolved host pointer is being written.
        std::shared_lock<std::shared_mutex> fence(memory_.reclaim_fence());
        memory_.write_from_host(dst, src, size);
    }
    charge_memop("memcpy.htod", transfer_seconds(size), size);
}

void Context::memcpy_dtoh(void* dst, DevicePtr src, uint64_t size) {
    memory_.check_range(src, size);
    if (mode_ == ExecutionMode::Functional) {
        std::shared_lock<std::shared_mutex> fence(memory_.reclaim_fence());
        memory_.read_to_host(dst, src, size);
    }
    charge_memop("memcpy.dtoh", transfer_seconds(size), size);
}

void Context::memcpy_dtod(DevicePtr dst, DevicePtr src, uint64_t size) {
    memory_.check_range(src, size);
    memory_.check_range(dst, size);
    if (mode_ == ExecutionMode::Functional) {
        std::shared_lock<std::shared_mutex> fence(memory_.reclaim_fence());
        memory_.copy(dst, src, size);
    }
    charge_memop("memcpy.dtod", dtod_seconds(size), size);
}

void Context::memset_d8(DevicePtr dst, uint8_t value, uint64_t size) {
    memory_.check_range(dst, size);
    if (mode_ == ExecutionMode::Functional) {
        std::shared_lock<std::shared_mutex> fence(memory_.reclaim_fence());
        memory_.fill(dst, value, size);
    }
    charge_memop("memset.d8", memset_seconds(size), size);
}

void Context::charge_memop(const char* name, double seconds, uint64_t bytes) {
    const double start = clock_.now();
    clock_.advance(seconds);
    trace::count("cuda.bytes_moved", bytes);
    if (trace::spans_enabled()) {
        trace::emit_complete(
            trace::Domain::Sim,
            "cuda",
            name,
            start,
            seconds,
            {{"bytes", std::to_string(bytes)}});
    }
}

void validate_launch_geometry(
    const DeviceProperties& device,
    const KernelImage& image,
    Dim3 grid,
    Dim3 block,
    uint64_t shared_mem) {
    // Validation mirroring the CUDA driver's launch checks.
    if (grid.volume() == 0 || block.volume() == 0) {
        throw CudaError("invalid launch: empty grid or block");
    }
    if (grid.x > 2147483647u || grid.y > 65535 || grid.z > 65535) {
        throw CudaError("invalid launch: grid dimensions exceed device limits");
    }
    if (block.x > 1024 || block.y > 1024 || block.z > 64
        || block.volume() > static_cast<uint64_t>(device.max_threads_per_block)) {
        throw CudaError(
            "invalid launch: block " + block.to_string() + " exceeds device limits");
    }
    if (shared_mem + image.static_shared_memory > device.shared_mem_per_block) {
        throw CudaError("invalid launch: shared memory exceeds per-block limit");
    }
}

TimingEstimate Context::plan_launch(
    const KernelImage& image,
    Dim3 grid,
    Dim3 block,
    uint64_t shared_mem) const {
    validate_launch_geometry(device_, image, grid, block, shared_mem);
    return perf_model_.estimate(device_, image, grid, block, shared_mem);
}

void Context::run_kernel(
    const KernelImage& image,
    Dim3 grid,
    Dim3 block,
    uint64_t shared_mem,
    void* const* args,
    size_t num_args) {
    if (!image.impl) {
        throw CudaError("kernel '" + image.lowered_name + "' has no implementation");
    }
    LaunchParams params;
    params.context = this;
    params.grid = grid;
    params.block = block;
    params.shared_mem_bytes = shared_mem;
    params.constants = &image.constants;
    params.args = args;
    params.num_args = num_args;
    image.impl(params);
}

void Context::launch(
    const KernelImage& image,
    Dim3 grid,
    Dim3 block,
    uint64_t shared_mem,
    Stream& stream,
    void* const* args,
    size_t num_args) {
    const TimingEstimate timing = plan_launch(image, grid, block, shared_mem);

    if (mode_ == ExecutionMode::Functional) {
        // The kernel implementation resolves device buffers to host
        // pointers; the reclaim fence keeps release_all() out while they
        // are in use.
        std::shared_lock<std::shared_mutex> fence(memory_.reclaim_fence());
        run_kernel(image, grid, block, shared_mem, args, num_args);
    }

    trace::count("cuda.launches");

    // Host pays the fixed launch cost, the stream the kernel duration.
    // The mutex keeps the (clock advance, enqueue, record) triple coherent
    // under concurrent launches.
    std::lock_guard<std::mutex> lock(mutex_);
    const double host_start = clock_.now();
    clock_.advance(device_.launch_overhead_us * 1e-6);
    double start = stream.enqueue(timing.seconds, clock_.now());

    if (trace::spans_enabled()) {
        trace::emit_complete(
            trace::Domain::Sim,
            "cuda",
            "cuda.launch",
            host_start,
            device_.launch_overhead_us * 1e-6,
            {{"kernel", image.lowered_name}});
        trace::emit_complete_on(
            trace::Domain::Sim,
            trace::named_track("stream " + std::to_string(stream.id())),
            "cuda",
            "kernel.exec",
            start,
            timing.seconds,
            {{"kernel", image.lowered_name},
             {"grid", grid.to_string()},
             {"block", block.to_string()}});
    }

    last_launch_.kernel_name = image.lowered_name;
    last_launch_.grid = grid;
    last_launch_.block = block;
    last_launch_.shared_mem = shared_mem;
    last_launch_.timing = timing;
    last_launch_.start_time = start;
    last_launch_.end_time = start + timing.seconds;
    launch_count_.fetch_add(1, std::memory_order_relaxed);
}

LaunchRecord Context::last_launch() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return last_launch_;
}

}  // namespace kl::sim
