#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "core/capture.hpp"
#include "core/config.hpp"
#include "cudasim/context.hpp"

namespace kl::tuner {

/// Outcome of benchmarking one configuration.
struct EvalOutcome {
    bool valid = false;
    double kernel_seconds = 0;    ///< best measured kernel time
    double average_seconds = 0;   ///< mean over benchmark iterations
    double overhead_seconds = 0;  ///< compile + benchmarking wall time spent
    std::string error;            ///< failure reason when !valid
};

/// Benchmarks configurations; the strategy/session layers are agnostic to
/// what is being tuned.
class Runner {
  public:
    virtual ~Runner() = default;
    virtual EvalOutcome evaluate(const core::Config& config) = 0;
};

/// Replays a captured kernel launch for arbitrary configurations
/// (paper §4.3): compiles the capture's kernel definition with the
/// configuration, executes the captured launch geometry on the simulated
/// device, and reports the measured kernel time.
class CaptureReplayRunner: public Runner {
  public:
    struct Options {
        /// Benchmark repetitions per configuration (Kernel Tuner defaults
        /// to several; the minimum over repetitions is reported).
        int iterations = 7;
        /// Additional warm-up launches not included in the measurement.
        int warmup = 1;
        /// When true (requires a Functional context and captured
        /// payloads), every configuration's buffer outputs are compared
        /// against the reference configuration's outputs.
        bool validate = false;
    };

    CaptureReplayRunner(const core::CapturedLaunch& capture, sim::Context& context):
        CaptureReplayRunner(capture, context, Options()) {}
    CaptureReplayRunner(
        const core::CapturedLaunch& capture,
        sim::Context& context,
        Options options);

    EvalOutcome evaluate(const core::Config& config) override;

    /// The capture's kernel definition (for the search space).
    const core::KernelDef& def() const noexcept {
        return capture_->def;
    }

  private:
    /// Compiles `config` for the capture, loads the module and evaluates
    /// the launch geometry and argument slots. Returns a launcher that
    /// submits the captured launch on the default stream. With
    /// `charge_compile` the modeled compile time is charged to the clock,
    /// as a tuning evaluation pays it; the reference run does not.
    std::function<void()> prepare(const core::Config& config, bool charge_compile);

    /// Computes (once) the reference outputs: the capture replayed with
    /// the default configuration.
    void ensure_reference();

    std::optional<std::string> compare_outputs();

    const core::CapturedLaunch* capture_;
    sim::Context* context_;
    Options options_;
    core::CapturedLaunch::Replay replay_;
    std::vector<std::vector<std::byte>> reference_outputs_;
    bool have_reference_ = false;
};

}  // namespace kl::tuner
