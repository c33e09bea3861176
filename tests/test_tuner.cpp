// Unit tests for the auto-tuner: search strategies against a synthetic
// objective, session budgeting/deduplication, and wisdom output.

#include <gtest/gtest.h>

#include <cmath>

#include "tuner/session.hpp"
#include "tuner/strategy.hpp"
#include "util/fs.hpp"

namespace kl::tuner {
namespace {

using core::Config;
using core::ConfigSpace;
using core::Expr;
using core::Value;

/// A smooth synthetic objective over a 4-parameter space with a unique
/// optimum, plus one "invalid" corner. The simulated benchmark cost per
/// evaluation is a fixed 0.1 s.
class SyntheticRunner: public Runner {
  public:
    explicit SyntheticRunner(const ConfigSpace& space): space_(&space) {}

    static ConfigSpace make_space() {
        ConfigSpace space;
        space.tune("a", {1, 2, 4, 8, 16, 32}, Value(1));
        space.tune("b", {1, 2, 4, 8, 16, 32}, Value(1));
        space.tune("c", {0, 1, 2, 3}, Value(0));
        space.tune("flag", {Value(true), Value(false)}, Value(false));
        return space;
    }

    static double objective(const Config& config) {
        double a = static_cast<double>(config.at("a").as_int());
        double b = static_cast<double>(config.at("b").as_int());
        double c = static_cast<double>(config.at("c").as_int());
        bool flag = config.at("flag").as_bool();
        // Optimum at a=8, b=4, c=2, flag=true.
        double time = 1.0 + std::pow(std::log2(a) - 3.0, 2) + std::pow(std::log2(b) - 2.0, 2)
            + 0.5 * std::pow(c - 2.0, 2) + (flag ? 0.0 : 0.75);
        return time * 1e-3;
    }

    EvalOutcome evaluate(const Config& config) override {
        evaluations++;
        EvalOutcome outcome;
        outcome.overhead_seconds = 0.1;
        // One corner is unlaunchable.
        if (config.at("a").as_int() == 32 && config.at("b").as_int() == 32) {
            outcome.valid = false;
            outcome.error = "launch out of resources";
            return outcome;
        }
        outcome.valid = true;
        outcome.kernel_seconds = objective(config);
        outcome.average_seconds = outcome.kernel_seconds;
        return outcome;
    }

    const ConfigSpace* space_;
    int evaluations = 0;
};

Config optimum() {
    Config config;
    config.set("a", Value(8));
    config.set("b", Value(4));
    config.set("c", Value(2));
    config.set("flag", Value(true));
    return config;
}

TEST(Session, ExhaustiveFindsGlobalOptimumAndTerminates) {
    ConfigSpace space = SyntheticRunner::make_space();
    SyntheticRunner runner(space);
    SessionOptions options;
    options.max_seconds = 1e9;
    TuningSession session(runner, space, make_strategy("exhaustive"), options);
    TuningResult result = session.run();
    EXPECT_TRUE(result.success);
    EXPECT_EQ(result.best_config, optimum());
    EXPECT_EQ(result.evaluations, space.cardinality());  // no restrictions
    EXPECT_EQ(result.invalid_evaluations, 8u);  // the 32x32 corner x |c| x |flag|
    EXPECT_EQ(result.strategy, "exhaustive");
}

TEST(Session, BudgetLimitsWallClock) {
    ConfigSpace space = SyntheticRunner::make_space();
    SyntheticRunner runner(space);
    SessionOptions options;
    options.max_seconds = 2.0;  // 0.1 s per eval -> 20 evaluations
    TuningSession session(runner, space, make_strategy("random"), options);
    TuningResult result = session.run();
    EXPECT_EQ(result.evaluations, 20u);
    EXPECT_NEAR(result.wall_seconds, 2.0, 0.11);
    for (size_t i = 1; i < result.trace.points.size(); i++) {
        EXPECT_GT(result.trace.points[i].wall_seconds,
                  result.trace.points[i - 1].wall_seconds);
    }
}

TEST(Session, MaxEvalsLimit) {
    ConfigSpace space = SyntheticRunner::make_space();
    SyntheticRunner runner(space);
    SessionOptions options;
    options.max_evals = 7;
    TuningSession session(runner, space, make_strategy("random"), options);
    EXPECT_EQ(session.run().evaluations, 7u);
}

TEST(Session, PerEvalOverheadCountsTowardBudget) {
    ConfigSpace space = SyntheticRunner::make_space();
    SyntheticRunner runner(space);
    SessionOptions options;
    options.max_seconds = 2.0;
    options.per_eval_overhead_seconds = 0.9;  // 1.0 s per eval total
    TuningSession session(runner, space, make_strategy("random"), options);
    EXPECT_EQ(session.run().evaluations, 2u);
}

TEST(Session, RandomNeverRepeatsConfigs) {
    ConfigSpace space = SyntheticRunner::make_space();
    SyntheticRunner runner(space);
    SessionOptions options;
    options.max_seconds = 1e9;
    TuningSession session(runner, space, make_strategy("random"), options);
    TuningResult result = session.run();
    // Random exhausts the whole space without re-evaluating anything.
    EXPECT_EQ(result.evaluations, space.cardinality());
    EXPECT_EQ(static_cast<uint64_t>(runner.evaluations), space.cardinality());
    EXPECT_EQ(result.best_config, optimum());
}

class StrategyComparison: public ::testing::TestWithParam<const char*> {};

TEST_P(StrategyComparison, FindsNearOptimumWithinBudget) {
    ConfigSpace space = SyntheticRunner::make_space();
    SyntheticRunner runner(space);
    SessionOptions options;
    options.max_evals = 96;
    options.seed = 99;
    TuningSession session(runner, space, make_strategy(GetParam()), options);
    TuningResult result = session.run();
    ASSERT_TRUE(result.success);
    // Within 50% of the optimum (1.0 ms) in 96 evals of a 288-point space.
    EXPECT_LT(result.best_seconds, 1.5e-3) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies,
    StrategyComparison,
    ::testing::Values("random", "anneal", "genetic", "bayes", "exhaustive"));

TEST(Strategies, ModelBasedBeatRandomOnAverage) {
    // Property: with a small budget, annealing/bayes find better optima
    // than random sampling on a smooth landscape, averaged over seeds.
    ConfigSpace space = SyntheticRunner::make_space();
    auto average_best = [&](const char* name) {
        double total = 0;
        for (uint64_t seed = 0; seed < 8; seed++) {
            SyntheticRunner runner(space);
            SessionOptions options;
            options.max_evals = 40;
            options.seed = 1000 + seed;
            TuningSession session(runner, space, make_strategy(name), options);
            total += session.run().best_seconds;
        }
        return total / 8;
    };
    double random = average_best("random");
    EXPECT_LT(average_best("bayes"), random * 1.02);
    EXPECT_LT(average_best("anneal"), random * 1.10);
}

TEST(Strategies, MakeStrategyNames) {
    EXPECT_NO_THROW(make_strategy("exhaustive"));
    EXPECT_NO_THROW(make_strategy("random"));
    EXPECT_NO_THROW(make_strategy("anneal"));
    EXPECT_NO_THROW(make_strategy("annealing"));
    EXPECT_NO_THROW(make_strategy("genetic"));
    EXPECT_NO_THROW(make_strategy("bayes"));
    EXPECT_NO_THROW(make_strategy("bayesian"));
    EXPECT_THROW(make_strategy("gradient-descent"), Error);
}

TEST(ParamIndexer, RoundTripAndNormalization) {
    ConfigSpace space = SyntheticRunner::make_space();
    ParamIndexer indexer(space);
    EXPECT_EQ(indexer.dims(), 4u);
    Config config = optimum();
    std::vector<size_t> indices = indexer.to_indices(config);
    EXPECT_EQ(indexer.to_config(indices), config);
    std::vector<double> x = indexer.normalize(indices);
    for (double v : x) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    Config foreign;
    foreign.set("a", Value(3));  // not an allowed value
    foreign.set("b", Value(1));
    foreign.set("c", Value(0));
    foreign.set("flag", Value(true));
    EXPECT_THROW(indexer.to_indices(foreign), Error);
}

TEST(Trace, BestAtAndTimeToWithin) {
    TuningTrace trace;
    auto add = [&](double t, double kernel, bool valid) {
        TuningTrace::Point p;
        p.wall_seconds = t;
        p.kernel_seconds = kernel;
        p.valid = valid;
        trace.points.push_back(p);
    };
    add(1.0, 5e-3, true);
    add(2.0, 0.0, false);
    add(3.0, 2e-3, true);
    add(4.0, 1e-3, true);

    EXPECT_EQ(trace.best_at(0.5), std::numeric_limits<double>::infinity());
    EXPECT_DOUBLE_EQ(trace.best_at(1.5), 5e-3);
    EXPECT_DOUBLE_EQ(trace.best_at(3.5), 2e-3);
    EXPECT_DOUBLE_EQ(trace.best_at(10.0), 1e-3);

    EXPECT_DOUBLE_EQ(trace.time_to_within(1e-3, 1.10), 4.0);
    EXPECT_DOUBLE_EQ(trace.time_to_within(1.9e-3, 1.10), 3.0);
    EXPECT_LT(trace.time_to_within(0.5e-3, 1.05), 0);  // never reached
}

TEST(Session, StallsOutWhenStrategyRepeats) {
    // A strategy that proposes the same configuration forever must not
    // hang the session: it stalls out after 512 duplicate proposals.
    class StuckStrategy: public Strategy {
      public:
        std::string name() const override {
            return "stuck";
        }
        void init(const ConfigSpace& space, uint64_t) override {
            config_ = space.default_config();
        }
        std::optional<Config> propose() override {
            return config_;
        }

      private:
        Config config_;
    };

    ConfigSpace space = SyntheticRunner::make_space();
    SyntheticRunner runner(space);
    SessionOptions options;
    options.max_seconds = 1e9;
    TuningSession session(runner, space, std::make_unique<StuckStrategy>(), options);
    TuningResult result = session.run();
    EXPECT_EQ(result.evaluations, 1u);
    EXPECT_TRUE(result.success);
}

}  // namespace
}  // namespace kl::tuner
