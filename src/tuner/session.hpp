#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/capture.hpp"
#include "core/wisdom.hpp"
#include "tuner/runner.hpp"
#include "tuner/strategy.hpp"

namespace kl::tuner {

/// Limits of one tuning session. The default matches the paper's tooling:
/// at most 15 simulated minutes per kernel (§4.3).
struct SessionOptions {
    double max_seconds = 15 * 60;  ///< simulated tuning wall-clock budget
    uint64_t max_evals = UINT64_MAX;
    uint64_t seed = 42;
    /// Fixed per-evaluation framework cost (the Python/driver overhead of
    /// a real Kernel Tuner session) added to the session wall clock on top
    /// of compilation and benchmarking.
    double per_eval_overhead_seconds = 0;
};

/// Full log of one tuning session: every evaluation with its wall-clock
/// timestamp. This is the data behind the paper's Figure 3 plots.
struct TuningTrace {
    struct Point {
        double wall_seconds = 0;    ///< simulated session time at completion
        double kernel_seconds = 0;  ///< measured kernel time (0 when invalid)
        bool valid = false;
        bool improved = false;  ///< new best at this point
        core::Config config;
    };

    std::vector<Point> points;

    /// Best kernel time among evaluations completed by time `t` (+inf when
    /// none).
    double best_at(double t) const;

    /// First wall-clock time at which the session was within `fraction`
    /// (e.g. 1.10 = 10%) of `target_seconds`; negative when never reached.
    double time_to_within(double target_seconds, double fraction) const;
};

/// Result of a tuning session.
struct TuningResult {
    core::Config best_config;
    double best_seconds = 0;
    bool success = false;  ///< at least one valid evaluation
    uint64_t evaluations = 0;
    uint64_t invalid_evaluations = 0;
    double wall_seconds = 0;
    std::string strategy;
    TuningTrace trace;
};

/// Drives a strategy against a runner under a time/evaluation budget,
/// deduplicating proposals and recording the trace.
class TuningSession {
  public:
    TuningSession(
        Runner& runner,
        const core::ConfigSpace& space,
        std::unique_ptr<Strategy> strategy,
        SessionOptions options = {});

    TuningResult run();

  private:
    Runner* runner_;
    const core::ConfigSpace* space_;
    std::unique_ptr<Strategy> strategy_;
    SessionOptions options_;
};

/// One-call porcelain mirroring the paper's command-line tuning script
/// (§4.3): replays a capture on the current simulated device with the
/// given strategy, and appends the best configuration to the kernel's
/// wisdom file in `wisdom_dir`.
TuningResult tune_capture_to_wisdom(
    const core::CapturedLaunch& capture,
    sim::Context& context,
    const std::string& strategy_name,
    const std::string& wisdom_dir,
    SessionOptions options = {},
    CaptureReplayRunner::Options runner_options = {});

}  // namespace kl::tuner
