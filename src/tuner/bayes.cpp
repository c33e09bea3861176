#include "tuner/bayes.hpp"

#include <algorithm>
#include <cmath>

#include "util/errors.hpp"

namespace kl::tuner {

CholeskySolver::CholeskySolver(std::vector<double> matrix, size_t n): l_(std::move(matrix)), n_(n) {
    if (l_.size() != n * n) {
        throw Error("CholeskySolver: matrix size mismatch");
    }
    double jitter = 0.0;
    for (int attempt = 0; attempt < 6; attempt++) {
        std::vector<double> work = l_;
        if (jitter > 0) {
            for (size_t i = 0; i < n; i++) {
                work[i * n + i] += jitter;
            }
        }
        bool ok = true;
        for (size_t i = 0; i < n && ok; i++) {
            for (size_t j = 0; j <= i; j++) {
                double sum = work[i * n + j];
                for (size_t k = 0; k < j; k++) {
                    sum -= work[i * n + k] * work[j * n + k];
                }
                if (i == j) {
                    if (sum <= 0) {
                        ok = false;
                        break;
                    }
                    work[i * n + i] = std::sqrt(sum);
                } else {
                    work[i * n + j] = sum / work[j * n + j];
                }
            }
        }
        if (ok) {
            l_ = std::move(work);
            return;
        }
        jitter = jitter == 0 ? 1e-8 : jitter * 100;
    }
    throw Error("CholeskySolver: matrix is not positive definite");
}

std::vector<double> CholeskySolver::solve_lower(const std::vector<double>& b) const {
    std::vector<double> z(n_);
    for (size_t i = 0; i < n_; i++) {
        double sum = b[i];
        for (size_t k = 0; k < i; k++) {
            sum -= l_[i * n_ + k] * z[k];
        }
        z[i] = sum / l_[i * n_ + i];
    }
    return z;
}

std::vector<double> CholeskySolver::solve(const std::vector<double>& b) const {
    std::vector<double> z = solve_lower(b);
    std::vector<double> x(n_);
    for (size_t ii = n_; ii > 0; ii--) {
        size_t i = ii - 1;
        double sum = z[i];
        for (size_t k = i + 1; k < n_; k++) {
            sum -= l_[k * n_ + i] * x[k];
        }
        x[i] = sum / l_[i * n_ + i];
    }
    return x;
}

namespace {

constexpr size_t kCandidatePool = 256;  ///< random candidates per step
constexpr size_t kNeighborCandidates = 64;
constexpr size_t kMaxTrainingPoints = 144;  ///< caps O(n^3) GP cost
constexpr double kLengthscale = 0.25;
constexpr double kNoise = 1e-3;
constexpr double kXi = 0.01;  ///< EI exploration margin

double rbf(const std::vector<double>& a, const std::vector<double>& b) {
    double d2 = 0;
    for (size_t i = 0; i < a.size(); i++) {
        double d = a[i] - b[i];
        d2 += d * d;
    }
    return std::exp(-0.5 * d2 / (kLengthscale * kLengthscale));
}

double normal_pdf(double x) {
    return std::exp(-0.5 * x * x) / std::sqrt(2.0 * M_PI);
}

double normal_cdf(double x) {
    return 0.5 * std::erfc(-x / std::sqrt(2.0));
}

}  // namespace

void BayesStrategy::init(const core::ConfigSpace& space, uint64_t seed) {
    space_ = &space;
    indexer_.emplace(space);
    rng_ = Rng(seed);
    seen_.clear();
    train_x_.clear();
    train_y_.clear();
    has_best_ = false;
    initial_design_ = 2 * indexer_->dims() + 4;
}

std::optional<core::Config> BayesStrategy::random_unseen() {
    for (int attempt = 0; attempt < 2048; attempt++) {
        std::optional<core::Config> config = space_->random_config(rng_);
        if (!config.has_value()) {
            return std::nullopt;
        }
        if (seen_.count(config->digest()) == 0) {
            return config;
        }
    }
    return std::nullopt;
}

std::optional<core::Config> BayesStrategy::acquire() {
    // Assemble the candidate pool: random unseen configs + mutations of
    // the incumbent.
    std::vector<core::Config> candidates;
    candidates.reserve(kCandidatePool + kNeighborCandidates);
    for (size_t i = 0; i < kCandidatePool; i++) {
        std::optional<core::Config> c = space_->random_config(rng_);
        if (c.has_value() && seen_.count(c->digest()) == 0) {
            candidates.push_back(std::move(*c));
        }
    }
    if (has_best_) {
        for (size_t i = 0; i < kNeighborCandidates; i++) {
            std::vector<size_t> genes = best_indices_;
            // Mutate 1-2 dimensions.
            size_t mutations = 1 + rng_.next_below(2);
            for (size_t m = 0; m < mutations; m++) {
                size_t dim = static_cast<size_t>(rng_.next_below(genes.size()));
                genes[dim] = static_cast<size_t>(rng_.next_below(indexer_->radix(dim)));
            }
            core::Config c = indexer_->to_config(genes);
            if (space_->satisfies_restrictions(c) && seen_.count(c.digest()) == 0) {
                candidates.push_back(std::move(c));
            }
        }
    }
    if (candidates.empty()) {
        return random_unseen();
    }

    // Fit the GP on (at most max_training_points of) the observations.
    size_t n = train_x_.size();
    std::vector<size_t> subset(n);
    for (size_t i = 0; i < n; i++) {
        subset[i] = i;
    }
    if (n > kMaxTrainingPoints) {
        // Keep the best half and the most recent half of the budget.
        std::vector<size_t> by_value = subset;
        std::sort(by_value.begin(), by_value.end(), [&](size_t a, size_t b) {
            return train_y_[a] < train_y_[b];
        });
        size_t half = kMaxTrainingPoints / 2;
        std::set<size_t> chosen(by_value.begin(), by_value.begin() + half);
        for (size_t i = n - half; i < n; i++) {
            chosen.insert(i);
        }
        subset.assign(chosen.begin(), chosen.end());
        n = subset.size();
    }

    // Standardize targets.
    double mean = 0;
    for (size_t i : subset) {
        mean += train_y_[i];
    }
    mean /= static_cast<double>(n);
    double var = 0;
    for (size_t i : subset) {
        var += (train_y_[i] - mean) * (train_y_[i] - mean);
    }
    double stddev = std::sqrt(var / static_cast<double>(n));
    if (stddev < 1e-12) {
        stddev = 1.0;
    }

    std::vector<double> kmat(n * n);
    for (size_t i = 0; i < n; i++) {
        for (size_t j = 0; j <= i; j++) {
            double k = rbf(train_x_[subset[i]], train_x_[subset[j]]);
            kmat[i * n + j] = k;
            kmat[j * n + i] = k;
        }
        kmat[i * n + i] += kNoise;
    }
    CholeskySolver chol(std::move(kmat), n);

    std::vector<double> y(n);
    for (size_t i = 0; i < n; i++) {
        y[i] = (train_y_[subset[i]] - mean) / stddev;
    }
    std::vector<double> alpha = chol.solve(y);

    double best_standardized = (best_y_ - mean) / stddev;

    // Expected improvement over the candidate pool.
    double best_ei = -1;
    size_t best_candidate = 0;
    for (size_t c = 0; c < candidates.size(); c++) {
        std::vector<double> x = indexer_->normalize(indexer_->to_indices(candidates[c]));
        std::vector<double> k_star(n);
        for (size_t i = 0; i < n; i++) {
            k_star[i] = rbf(x, train_x_[subset[i]]);
        }
        double mu = 0;
        for (size_t i = 0; i < n; i++) {
            mu += k_star[i] * alpha[i];
        }
        std::vector<double> v = chol.solve_lower(k_star);
        double k_self = 1.0 + kNoise;
        double var_star = k_self;
        for (size_t i = 0; i < n; i++) {
            var_star -= v[i] * v[i];
        }
        double sigma = std::sqrt(std::max(var_star, 1e-12));

        double gamma = (best_standardized - mu - kXi) / sigma;
        double ei = sigma * (gamma * normal_cdf(gamma) + normal_pdf(gamma));
        if (ei > best_ei) {
            best_ei = ei;
            best_candidate = c;
        }
    }
    return candidates[best_candidate];
}

std::optional<core::Config> BayesStrategy::propose() {
    std::optional<core::Config> choice;
    if (train_x_.size() < initial_design_) {
        choice = random_unseen();
    } else {
        choice = acquire();
    }
    if (choice.has_value()) {
        seen_.insert(choice->digest());
    }
    return choice;
}

void BayesStrategy::report(const EvalRecord& record) {
    seen_.insert(record.config.digest());
    if (!record.valid) {
        return;
    }
    std::vector<size_t> indices = indexer_->to_indices(record.config);
    train_x_.push_back(indexer_->normalize(indices));
    train_y_.push_back(std::log(std::max(record.kernel_seconds, 1e-12)));
    if (!has_best_ || train_y_.back() < best_y_) {
        best_y_ = train_y_.back();
        best_indices_ = std::move(indices);
        has_best_ = true;
    }
}

}  // namespace kl::tuner
