#include "core/kernel_arg.hpp"

#include "util/errors.hpp"

namespace kl::core {

size_t scalar_size(ScalarType type) noexcept {
    switch (type) {
        case ScalarType::I8:
            return 1;
        case ScalarType::I32:
        case ScalarType::U32:
        case ScalarType::F32:
            return 4;
        case ScalarType::I64:
        case ScalarType::U64:
        case ScalarType::F64:
            return 8;
    }
    return 0;
}

const char* scalar_name(ScalarType type) noexcept {
    switch (type) {
        case ScalarType::I8:
            return "i8";
        case ScalarType::I32:
            return "i32";
        case ScalarType::I64:
            return "i64";
        case ScalarType::U32:
            return "u32";
        case ScalarType::U64:
            return "u64";
        case ScalarType::F32:
            return "f32";
        case ScalarType::F64:
            return "f64";
    }
    return "?";
}

std::optional<ScalarType> scalar_from_name(const std::string& name) noexcept {
    static constexpr std::pair<const char*, ScalarType> table[] = {
        {"i8", ScalarType::I8},   {"i32", ScalarType::I32}, {"i64", ScalarType::I64},
        {"u32", ScalarType::U32}, {"u64", ScalarType::U64}, {"f32", ScalarType::F32},
        {"f64", ScalarType::F64},
    };
    for (const auto& [text, type] : table) {
        if (name == text) {
            return type;
        }
    }
    return std::nullopt;
}

std::optional<ScalarType> scalar_from_cuda_type(const std::string& cuda_type) noexcept {
    static constexpr std::pair<const char*, ScalarType> table[] = {
        {"float", ScalarType::F32},
        {"double", ScalarType::F64},
        {"char", ScalarType::I8},
        {"signed char", ScalarType::I8},
        {"int8_t", ScalarType::I8},
        {"int", ScalarType::I32},
        {"signed int", ScalarType::I32},
        {"int32_t", ScalarType::I32},
        {"long", ScalarType::I64},
        {"long long", ScalarType::I64},
        {"long int", ScalarType::I64},
        {"int64_t", ScalarType::I64},
        {"ptrdiff_t", ScalarType::I64},
        {"unsigned", ScalarType::U32},
        {"unsigned int", ScalarType::U32},
        {"uint32_t", ScalarType::U32},
        {"unsigned long", ScalarType::U64},
        {"unsigned long long", ScalarType::U64},
        {"uint64_t", ScalarType::U64},
        {"size_t", ScalarType::U64},
    };
    for (const auto& [text, type] : table) {
        if (cuda_type == text) {
            return type;
        }
    }
    return std::nullopt;
}

bool scalar_matches_cuda_type(ScalarType actual, const std::string& cuda_type) noexcept {
    std::optional<ScalarType> expected = scalar_from_cuda_type(cuda_type);
    if (!expected.has_value()) {
        return true;  // template/dependent/unmodeled type: cannot judge
    }
    if (*expected == actual) {
        return true;
    }
    // Same-width same-kind integer conversions are benign in practice
    // (the launcher copies the bytes); flag only width or kind mismatches.
    auto is_integer = [](ScalarType t) {
        return t == ScalarType::I8 || t == ScalarType::I32 || t == ScalarType::I64
            || t == ScalarType::U32 || t == ScalarType::U64;
    };
    return is_integer(*expected) && is_integer(actual)
        && scalar_size(*expected) == scalar_size(actual);
}

const char* arg_role_name(ArgRole role) noexcept {
    switch (role) {
        case ArgRole::Auto:
            return "auto";
        case ArgRole::Read:
            return "read";
        case ArgRole::Write:
            return "write";
        case ArgRole::ReadWrite:
            return "readwrite";
    }
    return "?";
}

KernelArg KernelArg::with_role(ArgRole role) const {
    if (!is_buffer_) {
        throw Error("kernel argument is not a buffer: cannot declare an access role");
    }
    KernelArg arg = *this;
    arg.role_ = role;
    return arg;
}

sim::DevicePtr KernelArg::device_ptr() const {
    if (!is_buffer_) {
        throw Error("kernel argument is not a buffer");
    }
    sim::DevicePtr ptr;
    std::memcpy(&ptr, storage_, sizeof(ptr));
    return ptr;
}

// GCC 12 falsely flags the string member of Value's variant as
// maybe-uninitialized when the temporary Value is moved into the optional
// under -fsanitize builds; every path constructs the Value fully.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
std::optional<Value> KernelArg::to_value() const {
    if (is_buffer_) {
        return std::nullopt;
    }
    switch (type_) {
        case ScalarType::I8:
            return Value(static_cast<int64_t>(scalar_value<int8_t>()));
        case ScalarType::I32:
            return Value(static_cast<int64_t>(scalar_value<int32_t>()));
        case ScalarType::I64:
            return Value(scalar_value<int64_t>());
        case ScalarType::U32:
            return Value(static_cast<int64_t>(scalar_value<uint32_t>()));
        case ScalarType::U64:
            return Value(scalar_value<uint64_t>());
        case ScalarType::F32:
            return Value(static_cast<double>(scalar_value<float>()));
        case ScalarType::F64:
            return Value(scalar_value<double>());
    }
    return std::nullopt;
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

json::Value KernelArg::describe() const {
    json::Value out = json::Value::object();
    out["type"] = scalar_name(type_);
    if (is_buffer_) {
        out["kind"] = "buffer";
        out["count"] = static_cast<int64_t>(count_);
        // Only declared roles are recorded; Auto is the implicit default,
        // which keeps pre-existing capture files byte-identical.
        if (role_ != ArgRole::Auto) {
            out["role"] = arg_role_name(role_);
        }
    } else {
        out["kind"] = "scalar";
        std::optional<Value> v = to_value();
        out["value"] = v.has_value() ? v->to_json() : json::Value();
    }
    return out;
}

std::vector<void*> arg_slots(const std::vector<KernelArg>& args) {
    std::vector<void*> slots;
    slots.reserve(args.size());
    for (const KernelArg& arg : args) {
        slots.push_back(const_cast<void*>(arg.slot()));
    }
    return slots;
}

}  // namespace kl::core
