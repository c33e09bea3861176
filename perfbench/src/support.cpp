#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <numeric>
#include <thread>

#include "bench.hpp"
#include "core/capture.hpp"
#include "tuner/session.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
    return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0;
    }
    return std::accumulate(values.begin(), values.end(), 0.0)
        / static_cast<double>(values.size());
}

double iqr(const std::vector<double>& values) {
    return quantile(values, 0.75) - quantile(values, 0.25);
}

namespace {

volatile uint64_t g_reference_sink = 0;

double reference_slice() {
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (int i = 0; i < 512; i++) {
            out.push_back("kernel-" + std::to_string(i * 7919));
        }
        return out;
    }();
    static const std::map<std::string, int> table = [] {
        std::map<std::string, int> out;
        for (size_t i = 0; i < keys.size(); i++) {
            out[keys[i]] = static_cast<int>(i);
        }
        return out;
    }();
    const int64_t start = now_ns();
    uint64_t acc = 0;
    for (int r = 0; r < 200; r++) {
        const std::string key = "kernel-" + std::to_string((r * 37 % 512) * 7919);
        acc += static_cast<uint64_t>(table.find(key)->second);
        std::vector<double> scratch(16, r);
        for (double x : scratch) {
            acc += static_cast<uint64_t>(x);
        }
        acc += std::hash<std::string> {}(key);
    }
    g_reference_sink = acc;
    return static_cast<double>(now_ns() - start);
}

}  // namespace

double reference_ns(int slices) {
    std::vector<double> ns;
    for (int i = 0; i < slices; i++) {
        ns.push_back(reference_slice());
    }
    return median(ns);
}

WindowedSamples::WindowedSamples(double seconds, int windows):
    start_(now_seconds()),
    window_(seconds / windows),
    windows_(windows) {}

bool WindowedSamples::tick() {
    const int due = static_cast<int>((now_seconds() - start_) / window_);
    while (closed_ < due && closed_ < windows_) {
        close();
    }
    return closed_ < windows_;
}

void WindowedSamples::close() {
    closed_++;
    if (current_.empty()) {
        return;  // a stall longer than a window: nothing to summarise
    }
    const double reference = reference_ns();
    const double factor = speed_factor(reference);
    const double window_median = quantile(current_, 0.5);
    const double window_p99 = quantile(current_, 0.99);
    references_.push_back(reference);
    raw_medians_.push_back(window_median);
    raw_p99s_.push_back(window_p99);
    medians_.push_back(window_median / factor);
    p99s_.push_back(window_p99 / factor);
    count_ += current_.size();
    current_.clear();
}

void Result::metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric {value, unit};
}

double Result::value(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0 : it->second.value;
}

void Result::fail(const std::string& what) {
    failed_++;
    if (failures_.size() < 16) {
        failures_.push_back(what);
    }
    std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Result::check(bool ok, const std::string& what) {
    attempted_++;
    checks_++;
    if (!ok) {
        fail(what);
    }
}

std::string Result::to_json() const {
    kl::json::Value root = kl::json::Value::object();
    root["attempted"] = attempted_;
    root["failed"] = failed_;
    root["checks"] = checks_;
    kl::json::Value failures = kl::json::Value::array();
    for (const std::string& f : failures_) {
        failures.push_back(f);
    }
    root["failures"] = std::move(failures);
    kl::json::Value metrics = kl::json::Value::object();
    for (const auto& [name, m] : metrics_) {
        kl::json::Value entry = kl::json::Value::object();
        entry["value"] = std::isfinite(m.value) ? m.value : 0.0;
        entry["unit"] = m.unit;
        metrics[name] = std::move(entry);
    }
    root["metrics"] = std::move(metrics);
    return root.dump();
}

const char* kernel_name(KernelKind kind) noexcept {
    return kind == KernelKind::AdvecU ? "advec_u" : "diff_uvw";
}

GridBuffers::GridBuffers(
    kl::sim::Context& context,
    const kl::microhh::Grid& grid,
    size_t element_size):
    cells(static_cast<size_t>(grid.ncells())),
    bytes(cells * element_size),
    context_(&context) {
    ut = context.malloc(bytes);
    vt = context.malloc(bytes);
    wt = context.malloc(bytes);
    u = context.malloc(bytes);
    v = context.malloc(bytes);
    w = context.malloc(bytes);
    st = context.malloc(bytes);
}

GridBuffers::~GridBuffers() {
    for (kl::sim::DevicePtr p : {ut, vt, wt, u, v, w, st}) {
        try {
            context_->free(p);
        } catch (...) {
            // Teardown of a benchmark fixture; the context goes next.
        }
    }
}

kl::core::KernelArg LaunchArgs::real(double value) const {
    if (precision == kl::microhh::Precision::Float64) {
        return kl::core::KernelArg::scalar(value);
    }
    return kl::core::KernelArg::scalar(static_cast<float>(value));
}

void LaunchArgs::set_coefficients(double factor) {
    const size_t first = coefficient_index();
    size_t i = first;
    if (kind == KernelKind::DiffUvw) {
        args[i++] = real(1e-2 * factor);  // visc
    }
    args[i++] = real(factor / grid.dx());
    args[i++] = real(factor / grid.dy());
    args[i++] = real(factor / grid.dz());
}

LaunchArgs make_args(
    KernelKind kind,
    kl::microhh::Precision precision,
    const kl::microhh::Grid& grid,
    const GridBuffers& buffers) {
    using kl::core::KernelArg;
    const kl::core::ScalarType real = precision == kl::microhh::Precision::Float64
        ? kl::core::ScalarType::F64
        : kl::core::ScalarType::F32;
    LaunchArgs out;
    out.kind = kind;
    out.precision = precision;
    out.grid = grid;
    auto buffer = [&](kl::sim::DevicePtr p) {
        return KernelArg::buffer(p, real, buffers.cells);
    };
    if (kind == KernelKind::AdvecU) {
        out.args = {buffer(buffers.st), buffer(buffers.u)};
        for (int i = 0; i < 3; i++) {
            out.args.push_back(out.real(0));
        }
    } else {
        out.args = {
            buffer(buffers.ut),
            buffer(buffers.vt),
            buffer(buffers.wt),
            buffer(buffers.u),
            buffer(buffers.v),
            buffer(buffers.w)};
        for (int i = 0; i < 4; i++) {
            out.args.push_back(out.real(0));
        }
    }
    for (int v : {grid.itot, grid.jtot, grid.ktot, grid.icells(), static_cast<int>(grid.kstride())}) {
        out.args.push_back(KernelArg::scalar(v));
    }
    out.set_coefficients(1.0);
    return out;
}

kl::core::KernelDef make_def(KernelKind kind, kl::microhh::Precision precision) {
    return kind == KernelKind::AdvecU ? kl::microhh::make_advec_u_builder(precision).build()
                                      : kl::microhh::make_diff_uvw_builder(precision).build();
}

kl::core::CapturedLaunch make_capture(
    const kl::core::KernelDef& def,
    const LaunchArgs& args,
    const kl::sim::Context& context) {
    kl::core::CapturedLaunch capture;
    capture.def = def;
    capture.problem_size = def.eval_problem_size(args.args);
    capture.device_name = context.device().name;
    capture.device_architecture = context.device().architecture;
    for (size_t i = 0; i < args.args.size(); i++) {
        const kl::core::KernelArg& arg = args.args[i];
        kl::core::CapturedArg captured;
        captured.is_buffer = arg.is_buffer();
        captured.is_output = arg.is_buffer() && def.is_output_arg(i);
        captured.type = arg.type();
        captured.count = arg.count();
        if (!arg.is_buffer()) {
            captured.scalar_value = *arg.to_value();
        }
        capture.args.push_back(std::move(captured));
    }
    return capture;
}

uint64_t tune_into(
    kl::sim::Context& context,
    const kl::core::KernelDef& def,
    const LaunchArgs& args,
    const std::string& strategy,
    uint64_t evals,
    uint64_t seed,
    const std::string& wisdom_dir) {
    kl::tuner::SessionOptions options;
    options.max_evals = evals;
    options.seed = seed;
    kl::tuner::TuningResult result = kl::tuner::tune_capture_to_wisdom(
        make_capture(def, args, context), context, strategy, wisdom_dir, options);
    return result.evaluations;
}

kl::core::Config expected_config(
    const kl::core::KernelDef& def,
    const std::string& wisdom_dir,
    const kl::core::ProblemSize& problem) {
    const kl::core::WisdomSettings settings = kl::core::WisdomSettings().wisdom_dir(wisdom_dir);
    const kl::core::WisdomFile wisdom =
        kl::core::WisdomFile::load(settings.wisdom_path(def.key()), def.key());
    const kl::sim::DeviceProperties& device = kl::sim::Context::current().device();
    kl::core::WisdomFile::Selection selection =
        wisdom.select(device.name, device.architecture, problem);
    return selection.record != nullptr ? selection.record->config
                                       : def.space.default_config();
}

bool same_image(const kl::sim::KernelImage& a, const kl::sim::KernelImage& b) {
    return a.name == b.name && a.lowered_name == b.lowered_name && a.arch == b.arch
        && a.constants.all() == b.constants.all() && a.ptx == b.ptx
        && a.registers_per_thread == b.registers_per_thread
        && a.squeezed_registers == b.squeezed_registers
        && a.spilled_registers == b.spilled_registers
        && a.static_shared_memory == b.static_shared_memory
        && a.element_size == b.element_size;
}

std::vector<kl::microhh::Grid> domain_grids(size_t count) {
    // Horizontal extents of a few LES domains, with a shallower vertical.
    static const int kPool[][3] = {
        {128, 128, 64},
        {192, 192, 96},
        {256, 192, 64},
        {96, 96, 48},
    };
    std::vector<kl::microhh::Grid> out;
    for (size_t i = 0; i < std::min<size_t>(count, 4); i++) {
        out.emplace_back(kPool[i][0], kPool[i][1], kPool[i][2]);
    }
    return out;
}

double peak_rss_mb() {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void remove_tree(const std::string& path) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
}

void fresh_dir(const std::string& path) {
    remove_tree(path);
    std::filesystem::create_directories(path);
}

double run_threads(int threads, const std::function<void(int)>& body) {
    const double start = now_seconds();
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(threads));
    for (int t = 0; t < threads; t++) {
        pool.emplace_back(body, t);
    }
    for (std::thread& thread : pool) {
        thread.join();
    }
    return now_seconds() - start;
}

}  // namespace perfbench
