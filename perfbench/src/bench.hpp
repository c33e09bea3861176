// Shared pieces of the launch-cost benchmark: run options, sample
// statistics and host-speed calibration, the result record printed as
// JSON, and MicroHH helpers (device fields, argument vectors, kernel
// definitions, tuning into wisdom).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_launcher.hpp"
#include "cudasim/context.hpp"
#include "microhh/definitions.hpp"
#include "microhh/grid.hpp"

namespace perfbench {

/// Command-line options of one benchmark run.
struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /// Scratch directory for wisdom files, compile caches and the trace
    /// file; wiped at start-up.
    std::string work_dir;
    /// Host threads for the multi-thread phases: half of nproc (at most 4).
    int threads = 1;
};

inline double now_seconds() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

inline int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values; 0 when
/// empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);
/// Upper minus lower quartile.
double iqr(const std::vector<double>& values);

/// Host-speed calibration. On a shared 4-vCPU virtual machine, host speed
/// shifted from run to run by 10-35% (co-tenants, vCPU placement) in a way
/// no run length averages out. A fixed reference workload that never touches the library (string
/// keyed map lookups, hashing, small allocations: the same kind of work as
/// a launch's bookkeeping) is timed in short slices beside the measured
/// work, and host-clock metrics are reported scaled by
/// kReferenceNominalNs / (measured reference time). The raw values are
/// reported beside them. A change to the library cannot move the
/// reference, so the scaling removes host speed, not library cost.
/// Multi-thread rates stay raw: reference slices timed on the workers
/// tracked their contention worse than no scaling at all.
inline constexpr double kReferenceNominalNs = 30000;

/// Windows of a multi-thread phase; its rate is their median.
inline constexpr int kWindowsMt = 9;

/// Nanoseconds of one reference slice (median of `slices`).
double reference_ns(int slices = 5);

/// Host speed relative to nominal for a measured reference time: scale a
/// duration by 1/factor and a rate by factor.
inline double speed_factor(double reference) {
    return reference > 0 ? reference / kReferenceNominalNs : 1.0;
}

/// Samples of one timed phase, split into consecutive time windows. The
/// host's speed also shifts in bursts within a run, so a run reports the
/// median over windows of each window's median and 99th percentile, each
/// scaled by reference slices timed as the window closes (raw values
/// too). A burst that covers a minority of the windows does not move it.
/// Memory stays bounded by one window's samples.
class WindowedSamples {
  public:
    /// `windows` windows of equal length over `seconds` from now.
    WindowedSamples(double seconds, int windows);

    void add(double value) {
        current_.push_back(value);
    }
    /// Closes the current window once its time is up; call between
    /// samples. Returns false once the last window closed.
    bool tick();

    double median_of_medians() const {
        return perfbench::median(medians_);
    }
    double median_of_p99s() const {
        return perfbench::median(p99s_);
    }
    double raw_median_of_medians() const {
        return perfbench::median(raw_medians_);
    }
    double raw_median_of_p99s() const {
        return perfbench::median(raw_p99s_);
    }
    /// Median reference slice over the windows, ns.
    double reference() const {
        return perfbench::median(references_);
    }
    uint64_t count() const {
        return count_;
    }

  private:
    void close();

    double start_;
    double window_;
    int windows_;
    int closed_ = 0;
    std::vector<double> current_;
    std::vector<double> medians_;
    std::vector<double> p99s_;
    std::vector<double> raw_medians_;
    std::vector<double> raw_p99s_;
    std::vector<double> references_;
    uint64_t count_ = 0;
};

/// Everything a run reports: metrics by name, operation counts, and the
/// output checks. A failed check counts as a failed operation.
class Result {
  public:
    void metric(const std::string& name, double value, const std::string& unit);
    /// The metric's value; 0 when it was not reported.
    double value(const std::string& name) const;

    /// Counts `n` attempted operations of the workload.
    void attempted(uint64_t n) {
        attempted_ += n;
    }
    /// Counts one failed operation, with a reason for the log.
    void fail(const std::string& what);
    /// An output check: one attempted operation, failed unless `ok`.
    void check(bool ok, const std::string& what);

    uint64_t failed_count() const {
        return failed_;
    }
    uint64_t attempted_count() const {
        return attempted_;
    }

    /// One-line JSON: {"attempted", "failed", "checks", "failures", "metrics"}.
    std::string to_json() const;

  private:
    struct Metric {
        double value = 0;
        std::string unit;
    };
    std::map<std::string, Metric> metrics_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    uint64_t checks_ = 0;
    std::vector<std::string> failures_;  ///< first few failure reasons
};

/// The simulated GPU of every workload: the paper's Fig. 5 device.
inline constexpr const char* kDevice = "NVIDIA A100-PCIE-40GB";

enum class KernelKind { AdvecU, DiffUvw };

const char* kernel_name(KernelKind kind) noexcept;

/// Device fields of one grid, freed on destruction: the velocities u, v, w,
/// the diffusion tendencies ut, vt, wt, and the advection tendency st (kept
/// apart from ut so that a timestep graph has no dead writes).
class GridBuffers {
  public:
    GridBuffers(kl::sim::Context& context, const kl::microhh::Grid& grid, size_t element_size);
    ~GridBuffers();
    GridBuffers(const GridBuffers&) = delete;
    GridBuffers& operator=(const GridBuffers&) = delete;

    kl::sim::DevicePtr ut, vt, wt, u, v, w, st;
    size_t cells = 0;
    size_t bytes = 0;

  private:
    kl::sim::Context* context_;
};

/// Launch arguments of one (kernel, precision, grid), with the scalar
/// coefficients that no geometry expression reads (dxi, dyi, dzi, visc)
/// replaceable per call.
struct LaunchArgs {
    KernelKind kind = KernelKind::AdvecU;
    kl::microhh::Precision precision = kl::microhh::Precision::Float32;
    kl::microhh::Grid grid;
    std::vector<kl::core::KernelArg> args;

    /// Index of the first real-valued coefficient in `args`.
    size_t coefficient_index() const noexcept {
        return kind == KernelKind::AdvecU ? 2 : 6;
    }
    /// Scales every coefficient by `factor` relative to the grid's
    /// nominal values.
    void set_coefficients(double factor);
    /// The kernel's real-valued scalar with the given nominal value.
    kl::core::KernelArg real(double value) const;
};

LaunchArgs make_args(
    KernelKind kind,
    kl::microhh::Precision precision,
    const kl::microhh::Grid& grid,
    const GridBuffers& buffers);

kl::core::KernelDef make_def(KernelKind kind, kl::microhh::Precision precision);

/// Capture of one launch (metadata only: the tuner runs TimingOnly).
kl::core::CapturedLaunch make_capture(
    const kl::core::KernelDef& def,
    const LaunchArgs& args,
    const kl::sim::Context& context);

/// Tunes `def` for `args`' problem size with `strategy` and appends the
/// best configuration to the wisdom file in `wisdom_dir`. Returns the
/// number of evaluations.
uint64_t tune_into(
    kl::sim::Context& context,
    const kl::core::KernelDef& def,
    const LaunchArgs& args,
    const std::string& strategy,
    uint64_t evals,
    uint64_t seed,
    const std::string& wisdom_dir);

/// The configuration the §4.5 heuristic picks for `problem` from the
/// wisdom file in `wisdom_dir` (the default configuration when none).
kl::core::Config expected_config(
    const kl::core::KernelDef& def,
    const std::string& wisdom_dir,
    const kl::core::ProblemSize& problem);

/// Field-by-field equality of two compiled images.
bool same_image(const kl::sim::KernelImage& a, const kl::sim::KernelImage& b);

/// The first `count` (at most 4) of a fixed set of MicroHH-like domain
/// sizes. The grids and the wisdom tuned for them are the application's
/// fixed state; the seed varies only what a workload does with them, so
/// that runs with different seeds measure the same work.
std::vector<kl::microhh::Grid> domain_grids(size_t count);

/// Peak resident set size of the process, MiB.
double peak_rss_mb();

void remove_tree(const std::string& path);
void fresh_dir(const std::string& path);

/// Runs `body` on `threads` threads at once and returns the wall time
/// from the common start until the last one finished.
double run_threads(int threads, const std::function<void(int)>& body);

}  // namespace perfbench
