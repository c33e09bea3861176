#pragma once

#include <cstdint>
#include <string>

namespace kl::sim {

/// CUDA-style 3-component extent. Components default to 1 as in CUDA's dim3.
struct Dim3 {
    uint32_t x = 1;
    uint32_t y = 1;
    uint32_t z = 1;

    constexpr Dim3() = default;
    constexpr Dim3(uint32_t x_, uint32_t y_ = 1, uint32_t z_ = 1): x(x_), y(y_), z(z_) {}

    constexpr uint64_t volume() const noexcept {
        return static_cast<uint64_t>(x) * y * z;
    }

    constexpr bool operator==(const Dim3& other) const noexcept {
        return x == other.x && y == other.y && z == other.z;
    }

    std::string to_string() const {
        // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
        // the equivalent chain of std::string operator+.
        std::string out = "(";
        out += std::to_string(x);
        out += ", ";
        out += std::to_string(y);
        out += ", ";
        out += std::to_string(z);
        out += ')';
        return out;
    }
};

/// Ceiling division; the standard grid-size computation.
constexpr uint32_t div_ceil(uint32_t a, uint32_t b) noexcept {
    return (a + b - 1) / b;
}

constexpr uint64_t div_ceil64(uint64_t a, uint64_t b) noexcept {
    return (a + b - 1) / b;
}

}  // namespace kl::sim
