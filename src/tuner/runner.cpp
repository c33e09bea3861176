#include "tuner/runner.hpp"

#include <cmath>
#include <cstring>

#include "cudasim/module.hpp"
#include "util/errors.hpp"

namespace kl::tuner {

CaptureReplayRunner::CaptureReplayRunner(
    const core::CapturedLaunch& capture,
    sim::Context& context,
    Options options):
    capture_(&capture),
    context_(&context),
    options_(options),
    replay_(capture, context) {}

void CaptureReplayRunner::ensure_reference() {
    if (have_reference_ || !options_.validate) {
        return;
    }
    core::Config def_config = capture_->def.space.default_config();
    replay_.reset();
    core::KernelCompiler::Output compiled = core::KernelCompiler::compile(
        capture_->def, def_config, context_->device(), &capture_->problem_size);
    auto module = sim::Module::load(*context_, std::move(compiled.image));
    core::KernelDef::Geometry geom =
        capture_->def.eval_geometry(def_config, replay_.args());
    std::vector<void*> slots = core::arg_slots(replay_.args());
    context_->launch(
        module->get_function(capture_->def.name),
        geom.grid,
        geom.block,
        geom.shared_mem_bytes,
        context_->default_stream(),
        slots.data(),
        slots.size());
    for (size_t i = 0; i < replay_.args().size(); i++) {
        if (replay_.args()[i].is_buffer()) {
            reference_outputs_.push_back(replay_.download(i));
        } else {
            reference_outputs_.emplace_back();
        }
    }
    have_reference_ = true;
}

namespace {

template<typename T>
std::optional<std::string> compare_typed(
    const std::vector<std::byte>& expected,
    const std::vector<std::byte>& actual,
    double tolerance,
    size_t arg_index) {
    const size_t count = expected.size() / sizeof(T);
    const T* e = reinterpret_cast<const T*>(expected.data());
    const T* a = reinterpret_cast<const T*>(actual.data());
    for (size_t i = 0; i < count; i++) {
        double ev = static_cast<double>(e[i]);
        double av = static_cast<double>(a[i]);
        double diff = std::abs(ev - av);
        double scale = std::max({std::abs(ev), std::abs(av), 1.0});
        if (!(diff <= tolerance * scale)) {
            return "output mismatch in argument " + std::to_string(arg_index)
                + " at element " + std::to_string(i) + ": expected "
                + std::to_string(ev) + ", got " + std::to_string(av);
        }
    }
    return std::nullopt;
}

}  // namespace

std::optional<std::string> CaptureReplayRunner::compare_outputs() {
    for (size_t i = 0; i < replay_.args().size(); i++) {
        const core::KernelArg& arg = replay_.args()[i];
        if (!arg.is_buffer()) {
            continue;
        }
        std::vector<std::byte> actual = replay_.download(i);
        const std::vector<std::byte>& expected = reference_outputs_[i];
        if (expected.size() != actual.size()) {
            return "output size mismatch in argument " + std::to_string(i);
        }
        std::optional<std::string> mismatch;
        switch (arg.type()) {
            case core::ScalarType::F32:
                mismatch = compare_typed<float>(expected, actual, options_.tolerance, i);
                break;
            case core::ScalarType::F64:
                mismatch = compare_typed<double>(expected, actual, options_.tolerance, i);
                break;
            default:
                if (std::memcmp(expected.data(), actual.data(), expected.size()) != 0) {
                    mismatch = "output mismatch in integer argument " + std::to_string(i);
                }
        }
        if (mismatch.has_value()) {
            return mismatch;
        }
    }
    return std::nullopt;
}

EvalOutcome CaptureReplayRunner::evaluate(const core::Config& config) {
    EvalOutcome outcome;
    const double start = context_->clock().now();
    try {
        ensure_reference();

        core::KernelCompiler::Output compiled = core::KernelCompiler::compile(
            capture_->def, config, context_->device(), &capture_->problem_size);
        context_->clock().advance(compiled.compile_seconds);
        auto module = sim::Module::load(*context_, std::move(compiled.image));

        core::KernelDef::Geometry geom =
            capture_->def.eval_geometry(config, replay_.args());
        std::vector<void*> slots = core::arg_slots(replay_.args());
        const sim::KernelImage& function = module->get_function(capture_->def.name);

        if (options_.validate) {
            replay_.reset();
        }

        double best = 0;
        double sum = 0;
        const int total_runs = options_.warmup + options_.iterations;
        for (int run = 0; run < total_runs; run++) {
            context_->launch(
                function,
                geom.grid,
                geom.block,
                geom.shared_mem_bytes,
                context_->default_stream(),
                slots.data(),
                slots.size());
            context_->synchronize();
            if (run < options_.warmup) {
                continue;
            }
            double t = context_->last_launch().timing.seconds;
            best = best == 0 ? t : std::min(best, t);
            sum += t;
        }

        if (options_.validate) {
            if (std::optional<std::string> mismatch = compare_outputs()) {
                outcome.valid = false;
                outcome.error = *mismatch;
                outcome.overhead_seconds = context_->clock().now() - start;
                return outcome;
            }
        }

        outcome.valid = true;
        outcome.kernel_seconds = best;
        outcome.average_seconds = sum / options_.iterations;
    } catch (const Error& e) {
        outcome.valid = false;
        outcome.error = e.what();
    }
    outcome.overhead_seconds = context_->clock().now() - start;
    return outcome;
}

}  // namespace kl::tuner
