#include "cudasim/kernel_image.hpp"

#include <charconv>

#include "cudasim/context.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace kl::sim {

int64_t ConstantMap::get_int(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
        throw Error("undefined compile-time constant: '" + name + "'");
    }
    const std::string& text = it->second;
    int64_t value = 0;
    auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size()) {
        throw Error("constant '" + name + "' is not an integer: '" + text + "'");
    }
    return value;
}

int64_t ConstantMap::get_int_or(const std::string& name, int64_t fallback) const {
    return values_.count(name) != 0 ? get_int(name) : fallback;
}

bool ConstantMap::get_bool_or(const std::string& name, bool fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
        return fallback;
    }
    const std::string& text = it->second;
    if (text == "1" || iequals(text, "true")) {
        return true;
    }
    if (text == "0" || iequals(text, "false")) {
        return false;
    }
    throw Error("constant '" + name + "' is not a boolean: '" + text + "'");
}

std::string ConstantMap::get_string_or(const std::string& name, std::string fallback) const {
    auto it = values_.find(name);
    return it != values_.end() ? it->second : std::move(fallback);
}

uint64_t ConstantMap::digest() const {
    // std::map iteration is key-sorted, so the digest is order-independent
    // with respect to insertion.
    uint64_t hash = 0xA076'1D64'78BD'642Full;
    for (const auto& [key, value] : values_) {
        hash = hash_combine(hash, fnv1a(key));
        hash = hash_combine(hash, fnv1a(value));
    }
    return hash;
}

const void* LaunchParams::arg_slot(size_t index) const {
    if (index >= num_args) {
        throw CudaError(
            "kernel argument index " + std::to_string(index) + " out of range ("
            + std::to_string(num_args) + " arguments)");
    }
    return args[index];
}

void* LaunchParams::resolve_buffer(size_t index, size_t byte_size) const {
    DevicePtr ptr = *static_cast<const DevicePtr*>(arg_slot(index));
    return context->memory().resolve(ptr, byte_size);
}

}  // namespace kl::sim
