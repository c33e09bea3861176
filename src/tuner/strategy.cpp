#include "tuner/strategy.hpp"

#include <algorithm>
#include <cmath>

#include "tuner/bayes.hpp"
#include "util/errors.hpp"

namespace kl::tuner {

std::vector<size_t> ParamIndexer::to_indices(const core::Config& config) const {
    std::vector<size_t> out;
    out.reserve(dims());
    for (const core::TunableParam& param : space_->params()) {
        const core::Value& v = config.at(param.name);
        auto it = std::find(param.values.begin(), param.values.end(), v);
        if (it == param.values.end()) {
            throw Error(
                "value " + v.to_string() + " of parameter '" + param.name
                + "' is not in the search space");
        }
        out.push_back(static_cast<size_t>(it - param.values.begin()));
    }
    return out;
}

core::Config ParamIndexer::to_config(const std::vector<size_t>& indices) const {
    if (indices.size() != dims()) {
        throw Error("index vector has wrong dimensionality");
    }
    core::Config config;
    for (size_t d = 0; d < dims(); d++) {
        const core::TunableParam& param = space_->params()[d];
        config.set(param.name, param.values.at(indices[d]));
    }
    return config;
}

std::vector<double> ParamIndexer::normalize(const std::vector<size_t>& indices) const {
    std::vector<double> out(indices.size());
    for (size_t d = 0; d < indices.size(); d++) {
        size_t r = radix(d);
        out[d] = r <= 1 ? 0.5
                        : static_cast<double>(indices[d]) / static_cast<double>(r - 1);
    }
    return out;
}

// --- Exhaustive -------------------------------------------------------------

void ExhaustiveStrategy::init(const core::ConfigSpace& space, uint64_t /*seed*/) {
    space_ = &space;
    next_ = 0;
}

std::optional<core::Config> ExhaustiveStrategy::propose() {
    const uint64_t total = space_->cardinality();
    while (next_ < total) {
        core::Config config = space_->config_at(next_++);
        if (space_->satisfies_restrictions(config)) {
            return config;
        }
    }
    return std::nullopt;
}

// --- Random ----------------------------------------------------------------

void RandomStrategy::init(const core::ConfigSpace& space, uint64_t seed) {
    space_ = &space;
    rng_ = Rng(seed);
    seen_.clear();
}

std::optional<core::Config> RandomStrategy::propose() {
    // Rejection sampling without replacement; give up once the space looks
    // exhausted.
    for (int attempt = 0; attempt < 4096; attempt++) {
        std::optional<core::Config> config = space_->random_config(rng_);
        if (!config.has_value()) {
            return std::nullopt;
        }
        if (seen_.insert(config->digest()).second) {
            return config;
        }
    }
    return std::nullopt;
}

// --- Simulated annealing -----------------------------------------------------

namespace {

constexpr double kInitialTemperature = 0.4;  ///< relative-time units
constexpr double kCooling = 0.995;
constexpr int kMaxNeighborAttempts = 64;

}  // namespace

void AnnealingStrategy::init(const core::ConfigSpace& space, uint64_t seed) {
    space_ = &space;
    indexer_.emplace(space);
    rng_ = Rng(seed);
    has_current_ = false;
    temperature_ = kInitialTemperature;
    pending_.reset();
}

std::optional<std::vector<size_t>> AnnealingStrategy::random_neighbor(
    const std::vector<size_t>& from) {
    for (int attempt = 0; attempt < kMaxNeighborAttempts; attempt++) {
        std::vector<size_t> candidate = from;
        size_t dim = static_cast<size_t>(rng_.next_below(candidate.size()));
        size_t r = indexer_->radix(dim);
        if (r <= 1) {
            continue;
        }
        // Nudge to an adjacent value index when possible, else resample.
        if (rng_.next_bool(0.7)) {
            bool up = rng_.next_bool() ? candidate[dim] + 1 < r : false;
            if (up) {
                candidate[dim]++;
            } else if (candidate[dim] > 0) {
                candidate[dim]--;
            } else {
                candidate[dim]++;
            }
        } else {
            candidate[dim] = static_cast<size_t>(rng_.next_below(r));
        }
        if (candidate == from) {
            continue;
        }
        if (space_->satisfies_restrictions(indexer_->to_config(candidate))) {
            return candidate;
        }
    }
    return std::nullopt;
}

std::optional<core::Config> AnnealingStrategy::propose() {
    if (!has_current_) {
        std::optional<core::Config> start = space_->random_config(rng_);
        if (!start.has_value()) {
            return std::nullopt;
        }
        pending_ = start;
        return start;
    }
    std::optional<std::vector<size_t>> neighbor = random_neighbor(current_);
    if (!neighbor.has_value()) {
        // Stuck: restart from a random point.
        std::optional<core::Config> restart = space_->random_config(rng_);
        if (!restart.has_value()) {
            return std::nullopt;
        }
        pending_ = restart;
        return restart;
    }
    pending_ = indexer_->to_config(*neighbor);
    return pending_;
}

void AnnealingStrategy::report(const EvalRecord& record) {
    temperature_ *= kCooling;
    if (!record.valid) {
        return;
    }
    if (!has_current_) {
        current_ = indexer_->to_indices(record.config);
        current_time_ = record.kernel_seconds;
        has_current_ = true;
        return;
    }
    // Metropolis acceptance on relative slowdown.
    double relative = (record.kernel_seconds - current_time_) / current_time_;
    if (relative <= 0
        || rng_.next_double() < std::exp(-relative / std::max(temperature_, 1e-6))) {
        current_ = indexer_->to_indices(record.config);
        current_time_ = record.kernel_seconds;
    }
}

// --- Genetic ----------------------------------------------------------------

namespace {

constexpr size_t kPopulation = 32;
constexpr double kMutationRate = 0.15;
constexpr int kTournament = 3;
constexpr int kMaxAttempts = 64;

}  // namespace

void GeneticStrategy::init(const core::ConfigSpace& space, uint64_t seed) {
    space_ = &space;
    indexer_.emplace(space);
    rng_ = Rng(seed);
    population_.clear();
    pending_valid_ = false;
}

const GeneticStrategy::Member& GeneticStrategy::tournament_pick() {
    const Member* best = nullptr;
    for (int i = 0; i < kTournament; i++) {
        const Member& candidate =
            population_[static_cast<size_t>(rng_.next_below(population_.size()))];
        if (best == nullptr || candidate.time < best->time) {
            best = &candidate;
        }
    }
    return *best;
}

std::optional<core::Config> GeneticStrategy::make_offspring() {
    for (int attempt = 0; attempt < kMaxAttempts; attempt++) {
        const Member& a = tournament_pick();
        const Member& b = tournament_pick();
        std::vector<size_t> genes(a.genes.size());
        for (size_t d = 0; d < genes.size(); d++) {
            genes[d] = rng_.next_bool() ? a.genes[d] : b.genes[d];
            if (rng_.next_double() < kMutationRate) {
                genes[d] = static_cast<size_t>(rng_.next_below(indexer_->radix(d)));
            }
        }
        core::Config config = indexer_->to_config(genes);
        if (space_->satisfies_restrictions(config)) {
            pending_genes_ = std::move(genes);
            pending_valid_ = true;
            return config;
        }
    }
    return std::nullopt;
}

std::optional<core::Config> GeneticStrategy::propose() {
    if (population_.size() < kPopulation) {
        std::optional<core::Config> seed = space_->random_config(rng_);
        if (!seed.has_value()) {
            return std::nullopt;
        }
        pending_genes_ = indexer_->to_indices(*seed);
        pending_valid_ = true;
        return seed;
    }
    std::optional<core::Config> offspring = make_offspring();
    if (offspring.has_value()) {
        return offspring;
    }
    // Crossover kept failing restrictions; inject fresh randomness.
    std::optional<core::Config> fallback = space_->random_config(rng_);
    if (fallback.has_value()) {
        pending_genes_ = indexer_->to_indices(*fallback);
        pending_valid_ = true;
    }
    return fallback;
}

void GeneticStrategy::report(const EvalRecord& record) {
    if (!pending_valid_) {
        return;
    }
    pending_valid_ = false;
    if (!record.valid) {
        return;
    }
    Member member;
    member.genes = pending_genes_;
    member.time = record.kernel_seconds;
    member.valid = true;
    if (population_.size() < kPopulation) {
        population_.push_back(std::move(member));
        return;
    }
    // Steady-state replacement of the worst member when improved upon.
    auto worst = std::max_element(
        population_.begin(), population_.end(), [](const Member& a, const Member& b) {
            return a.time < b.time;
        });
    if (member.time < worst->time) {
        *worst = std::move(member);
    }
}

std::unique_ptr<Strategy> make_strategy(const std::string& name) {
    if (name == "exhaustive") {
        return std::make_unique<ExhaustiveStrategy>();
    }
    if (name == "random") {
        return std::make_unique<RandomStrategy>();
    }
    if (name == "anneal" || name == "annealing") {
        return std::make_unique<AnnealingStrategy>();
    }
    if (name == "genetic") {
        return std::make_unique<GeneticStrategy>();
    }
    if (name == "bayes" || name == "bayesian") {
        return std::make_unique<BayesStrategy>();
    }
    throw Error("unknown tuning strategy: '" + name + "'");
}

}  // namespace kl::tuner
