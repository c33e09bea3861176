#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

namespace kl {

/// Deterministic 64-bit PRNG (xoshiro256**). Every stochastic component in
/// this project (search strategies, synthetic workloads, modeled timing
/// jitter) draws from an explicitly-seeded Rng so that experiments are
/// bit-reproducible across runs and platforms. `std::mt19937` plus the
/// standard distributions is avoided on purpose: libstdc++/libc++ produce
/// different streams for the same seed.
class Rng {
  public:
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull) noexcept;

    /// Uniform 64-bit value.
    uint64_t next() noexcept;

    /// Uniform integer in [0, bound), bias-free. `bound` must be > 0.
    uint64_t next_below(uint64_t bound) noexcept;

    /// Uniform integer in [lo, hi] inclusive.
    int64_t next_between(int64_t lo, int64_t hi) noexcept;

    /// Uniform double in [0, 1).
    double next_double() noexcept;

    /// Uniform double in [lo, hi).
    double next_double(double lo, double hi) noexcept;

    /// Standard normal variate (Box–Muller, no cached spare for simplicity).
    double next_gaussian() noexcept;

    /// Bernoulli draw.
    bool next_bool(double p_true = 0.5) noexcept;

    /// Fisher–Yates shuffle.
    template<typename T>
    void shuffle(std::vector<T>& items) noexcept {
        for (size_t i = items.size(); i > 1; i--) {
            size_t j = static_cast<size_t>(next_below(i));
            using std::swap;
            swap(items[i - 1], items[j]);
        }
    }

  private:
    uint64_t state_[4];
};

/// FNV-1a hash of a byte string; used to derive deterministic sub-seeds from
/// names ("advec_u" + device + config digest, ...).
uint64_t fnv1a(std::string_view bytes) noexcept;

/// Order-dependent hash combiner.
uint64_t hash_combine(uint64_t seed, uint64_t value) noexcept;

}  // namespace kl
