#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "util/rng.hpp"

namespace kl::tuner {

/// Feedback for one evaluated configuration.
struct EvalRecord {
    core::Config config;
    bool valid = false;
    double kernel_seconds = 0;
    double wall_seconds = 0;  ///< tuning-session wall clock at completion
};

/// Maps configurations to/from per-parameter value indices, the common
/// coordinate system of the mutation- and model-based strategies.
class ParamIndexer {
  public:
    explicit ParamIndexer(const core::ConfigSpace& space): space_(&space) {}

    size_t dims() const {
        return space_->params().size();
    }

    size_t radix(size_t dim) const {
        return space_->params()[dim].values.size();
    }

    std::vector<size_t> to_indices(const core::Config& config) const;
    core::Config to_config(const std::vector<size_t>& indices) const;

    /// Indices scaled to [0,1] per dimension (degenerate dims -> 0.5).
    std::vector<double> normalize(const std::vector<size_t>& indices) const;

    const core::ConfigSpace& space() const {
        return *space_;
    }

  private:
    const core::ConfigSpace* space_;
};

/// A search strategy: proposes configurations and receives evaluation
/// feedback. Strategies may re-propose configurations; the session layer
/// deduplicates and feeds back cached results.
class Strategy {
  public:
    virtual ~Strategy() = default;

    virtual std::string name() const = 0;

    /// Called once before the first proposal.
    virtual void init(const core::ConfigSpace& space, uint64_t seed) = 0;

    /// Next configuration to evaluate; nullopt when the strategy is
    /// exhausted.
    virtual std::optional<core::Config> propose() = 0;

    /// Result feedback (also for cached duplicates).
    virtual void report(const EvalRecord& /*record*/) {}
};

/// Enumerates the full cartesian space in index order, skipping
/// restriction-violating configurations.
class ExhaustiveStrategy: public Strategy {
  public:
    std::string name() const override {
        return "exhaustive";
    }
    void init(const core::ConfigSpace& space, uint64_t seed) override;
    std::optional<core::Config> propose() override;

  private:
    const core::ConfigSpace* space_ = nullptr;
    uint64_t next_ = 0;
};

/// Uniform random sampling without replacement (the paper's "random"
/// baseline, giving an unbiased view of the performance distribution).
class RandomStrategy: public Strategy {
  public:
    std::string name() const override {
        return "random";
    }
    void init(const core::ConfigSpace& space, uint64_t seed) override;
    std::optional<core::Config> propose() override;

  private:
    const core::ConfigSpace* space_ = nullptr;
    Rng rng_ {0};
    std::set<uint64_t> seen_;
};

/// Simulated annealing over the index lattice: proposes a neighbor of the
/// current configuration (one parameter nudged), accepting uphill moves
/// with Boltzmann probability under a geometric cooling schedule.
class AnnealingStrategy: public Strategy {
  public:
    std::string name() const override {
        return "anneal";
    }
    void init(const core::ConfigSpace& space, uint64_t seed) override;
    std::optional<core::Config> propose() override;
    void report(const EvalRecord& record) override;

  private:
    std::optional<std::vector<size_t>> random_neighbor(const std::vector<size_t>& from);

    const core::ConfigSpace* space_ = nullptr;
    std::optional<ParamIndexer> indexer_;
    Rng rng_ {0};
    std::vector<size_t> current_;
    double current_time_ = 0;
    bool has_current_ = false;
    double temperature_ = 0;
    std::optional<core::Config> pending_;
};

/// Steady-state genetic algorithm: tournament selection, uniform
/// crossover, per-gene mutation.
class GeneticStrategy: public Strategy {
  public:
    std::string name() const override {
        return "genetic";
    }
    void init(const core::ConfigSpace& space, uint64_t seed) override;
    std::optional<core::Config> propose() override;
    void report(const EvalRecord& record) override;

  private:
    struct Member {
        std::vector<size_t> genes;
        double time = 0;
        bool valid = false;
    };

    std::optional<core::Config> make_offspring();
    const Member& tournament_pick();

    const core::ConfigSpace* space_ = nullptr;
    std::optional<ParamIndexer> indexer_;
    Rng rng_ {0};
    std::vector<Member> population_;
    std::vector<size_t> pending_genes_;
    bool pending_valid_ = false;
};

/// Creates a strategy by name: "exhaustive", "random", "anneal",
/// "genetic", or "bayes". Throws kl::Error for unknown names.
std::unique_ptr<Strategy> make_strategy(const std::string& name);

}  // namespace kl::tuner
