#pragma once

#include <optional>
#include <set>
#include <vector>

#include "tuner/strategy.hpp"

namespace kl::tuner {

/// Bayesian optimization (the paper's default strategy, §4.3): a Gaussian
/// process surrogate with an RBF kernel over normalized parameter indices,
/// log-transformed runtimes, and expected improvement as the acquisition
/// function maximized over a random candidate pool enriched with
/// neighborhood mutations of the incumbent.
class BayesStrategy: public Strategy {
  public:
    std::string name() const override {
        return "bayes";
    }
    void init(const core::ConfigSpace& space, uint64_t seed) override;
    std::optional<core::Config> propose() override;
    void report(const EvalRecord& record) override;

  private:
    std::optional<core::Config> random_unseen();
    std::optional<core::Config> acquire();

    const core::ConfigSpace* space_ = nullptr;
    size_t initial_design_ = 0;  ///< random proposals before the GP: 2*dims + 4
    std::optional<ParamIndexer> indexer_;
    Rng rng_ {0};
    std::set<uint64_t> seen_;
    std::vector<std::vector<double>> train_x_;
    std::vector<double> train_y_;  ///< log kernel times
    std::vector<size_t> best_indices_;
    double best_y_ = 0;
    bool has_best_ = false;
};

/// Dense symmetric positive-definite solver used by the GP: in-place
/// Cholesky factorization plus triangular solves. Exposed for unit tests.
class CholeskySolver {
  public:
    /// Factorizes `matrix` (row-major n*n). Adds diagonal jitter and
    /// retries when the matrix is not numerically SPD. Throws kl::Error
    /// when factorization fails even with jitter.
    CholeskySolver(std::vector<double> matrix, size_t n);

    /// Solves A x = b.
    std::vector<double> solve(const std::vector<double>& b) const;

    /// Solves L z = b (forward substitution on the Cholesky factor).
    std::vector<double> solve_lower(const std::vector<double>& b) const;

    size_t size() const {
        return n_;
    }

  private:
    std::vector<double> l_;  ///< lower-triangular factor, row-major
    size_t n_;
};

}  // namespace kl::tuner
