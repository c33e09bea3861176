#include "tuner/session.hpp"

#include <limits>
#include <map>

#include "netwisdom/client.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace kl::tuner {

double TuningTrace::best_at(double t) const {
    double best = std::numeric_limits<double>::infinity();
    for (const Point& point : points) {
        if (point.wall_seconds > t) {
            break;
        }
        if (point.valid && point.kernel_seconds < best) {
            best = point.kernel_seconds;
        }
    }
    return best;
}

double TuningTrace::time_to_within(double target_seconds, double fraction) const {
    for (const Point& point : points) {
        if (point.valid && point.kernel_seconds <= target_seconds * fraction) {
            return point.wall_seconds;
        }
    }
    return -1;
}

TuningSession::TuningSession(
    Runner& runner,
    const core::ConfigSpace& space,
    std::unique_ptr<Strategy> strategy,
    SessionOptions options):
    runner_(&runner),
    space_(&space),
    strategy_(std::move(strategy)),
    options_(options) {
    if (!strategy_) {
        throw Error("TuningSession requires a strategy");
    }
}

TuningResult TuningSession::run() {
    trace::count("tuner.sessions");
    trace::HostSpan session_span("tuner", "tuner.session", {{"strategy", strategy_->name()}});

    strategy_->init(*space_, options_.seed);

    TuningResult result;
    result.strategy = strategy_->name();
    result.best_seconds = std::numeric_limits<double>::infinity();

    double wall = 0;
    int stall = 0;
    std::map<uint64_t, EvalRecord> cache;

    while (wall < options_.max_seconds && result.evaluations < options_.max_evals
           && stall < options_.max_stall) {
        std::optional<core::Config> proposal = strategy_->propose();
        if (!proposal.has_value()) {
            break;  // strategy exhausted
        }

        const uint64_t digest = proposal->digest();
        if (auto it = cache.find(digest); it != cache.end()) {
            // Duplicate proposal: feed the cached result back without
            // spending wall-clock budget.
            strategy_->report(it->second);
            stall++;
            continue;
        }

        EvalOutcome outcome = runner_->evaluate(*proposal);
        wall += outcome.overhead_seconds + options_.per_eval_overhead_seconds;
        result.evaluations++;
        trace::count("tuner.evals");

        EvalRecord record;
        record.config = *proposal;
        record.valid = outcome.valid;
        record.kernel_seconds = outcome.kernel_seconds;
        record.wall_seconds = wall;
        cache.emplace(digest, record);
        strategy_->report(record);

        TuningTrace::Point point;
        point.wall_seconds = wall;
        point.kernel_seconds = outcome.kernel_seconds;
        point.valid = outcome.valid;
        point.config = *proposal;

        if (outcome.valid) {
            stall = 0;
            if (outcome.kernel_seconds < result.best_seconds) {
                result.best_seconds = outcome.kernel_seconds;
                result.best_config = *proposal;
                result.success = true;
                point.improved = true;
            }
        } else {
            result.invalid_evaluations++;
            stall++;
        }
        result.trace.points.push_back(std::move(point));
    }

    result.wall_seconds = wall;
    return result;
}

TuningResult tune_capture_to_wisdom(
    const core::CapturedLaunch& capture,
    sim::Context& context,
    const std::string& strategy_name,
    const std::string& wisdom_dir,
    SessionOptions options,
    CaptureReplayRunner::Options runner_options) {
    CaptureReplayRunner runner(capture, context, runner_options);
    TuningSession session(
        runner, capture.def.space, make_strategy(strategy_name), options);
    TuningResult result = session.run();

    if (result.success) {
        core::WisdomRecord record;
        record.problem_size = capture.problem_size;
        record.device_name = context.device().name;
        record.device_architecture = context.device().architecture;
        record.config = result.best_config;
        record.time_seconds = result.best_seconds;
        record.provenance = core::make_provenance(strategy_name);

        create_directories(wisdom_dir);
        const std::string path =
            path_join(wisdom_dir, capture.def.key() + ".wisdom.json");
        core::WisdomFile wisdom = core::WisdomFile::load(path, capture.def.key());
        wisdom.add(record);
        wisdom.save(path);

        // Share the result with the fleet: when a wisdom server is
        // configured, push the record so other nodes select this config
        // without re-tuning (docs/DISTRIBUTED.md). Best-effort and
        // fail-open, like every network interaction.
        if (auto net = netwisdom::client_for(netwisdom::Settings::from_env())) {
            if (net->wisdom_put(capture.def.key(), record.to_json())) {
                trace::count("kl.net.wisdom.push");
            }
        }
    }
    return result;
}

}  // namespace kl::tuner
