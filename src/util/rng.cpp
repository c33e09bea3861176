#include "util/rng.hpp"

#include <cmath>

namespace kl {

namespace {

uint64_t splitmix64(uint64_t& x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(uint64_t seed) noexcept {
    // Seed expansion via splitmix64, per the xoshiro authors' guidance, so
    // that nearby seeds still yield uncorrelated streams.
    uint64_t s = seed;
    for (uint64_t& word : state_) {
        word = splitmix64(s);
    }
}

uint64_t Rng::next() noexcept {
    uint64_t result = rotl(state_[1] * 5, 7) * 9;
    uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

uint64_t Rng::next_below(uint64_t bound) noexcept {
    // Lemire's rejection method: unbiased and needs one multiply per draw in
    // the common case.
    uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    uint64_t low = static_cast<uint64_t>(m);
    if (low < bound) {
        uint64_t threshold = -bound % bound;
        while (low < threshold) {
            x = next();
            m = static_cast<__uint128_t>(x) * bound;
            low = static_cast<uint64_t>(m);
        }
    }
    return static_cast<uint64_t>(m >> 64);
}

int64_t Rng::next_between(int64_t lo, int64_t hi) noexcept {
    uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(next_below(range));
}

double Rng::next_double() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
}

double Rng::next_gaussian() noexcept {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 <= 0.0) {
        u1 = 0x1.0p-53;
    }
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

bool Rng::next_bool(double p_true) noexcept {
    return next_double() < p_true;
}

uint64_t fnv1a(std::string_view bytes) noexcept {
    uint64_t hash = 0xCBF29CE484222325ull;
    for (char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ull;
    }
    return hash;
}

uint64_t hash_combine(uint64_t seed, uint64_t value) noexcept {
    return seed ^ (value + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2));
}

}  // namespace kl
