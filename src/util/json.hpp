#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/errors.hpp"

namespace kl::json {

class Value;

using Array = std::vector<Value>;
// std::map keeps object keys sorted, which makes serialized output
// deterministic — important for byte-stable wisdom files and capture hashes.
using Object = std::map<std::string, Value>;

enum class Type { Null, Bool, Int, Double, String, Array, Object };

/// A dynamically-typed JSON value. Integers are kept distinct from doubles
/// so that 64-bit problem sizes and configuration values round-trip exactly.
class Value {
  public:
    Value() noexcept: data_(nullptr) {}
    Value(std::nullptr_t) noexcept: data_(nullptr) {}
    Value(bool v) noexcept: data_(v) {}
    Value(int v) noexcept: data_(static_cast<int64_t>(v)) {}
    Value(unsigned v) noexcept: data_(static_cast<int64_t>(v)) {}
    Value(int64_t v) noexcept: data_(v) {}
    Value(uint64_t v): data_(static_cast<int64_t>(v)) {
        if (v > static_cast<uint64_t>(INT64_MAX)) {
            throw JsonError("uint64 value does not fit in JSON integer");
        }
    }
    Value(double v) noexcept: data_(v) {}
    Value(const char* v): data_(std::string(v)) {}
    Value(std::string v) noexcept: data_(std::move(v)) {}
    Value(std::string_view v): data_(std::string(v)) {}
    Value(Array v) noexcept: data_(std::move(v)) {}
    Value(Object v) noexcept: data_(std::move(v)) {}

    static Value array() {
        return Value(Array {});
    }
    static Value object() {
        return Value(Object {});
    }

    Type type() const noexcept {
        return static_cast<Type>(data_.index());
    }

    bool is_null() const noexcept {
        return type() == Type::Null;
    }
    bool is_bool() const noexcept {
        return type() == Type::Bool;
    }
    bool is_int() const noexcept {
        return type() == Type::Int;
    }
    bool is_double() const noexcept {
        return type() == Type::Double;
    }
    bool is_number() const noexcept {
        return is_int() || is_double();
    }
    bool is_string() const noexcept {
        return type() == Type::String;
    }
    bool is_array() const noexcept {
        return type() == Type::Array;
    }
    bool is_object() const noexcept {
        return type() == Type::Object;
    }

    bool as_bool() const;
    int64_t as_int() const;
    /// Accepts both Int and Double.
    double as_double() const;
    const std::string& as_string() const;
    const Array& as_array() const;
    Array& as_array();
    const Object& as_object() const;
    Object& as_object();

    /// Object access. The const overload throws `JsonError` when the key is
    /// missing; `contains`/`find` are the non-throwing probes.
    Value& operator[](const std::string& key);
    const Value& operator[](const std::string& key) const;
    bool contains(const std::string& key) const;
    const Value* find(const std::string& key) const noexcept;

    /// Array access with bounds checking.
    const Value& at(size_t index) const;
    size_t size() const;
    bool empty() const {
        return size() == 0;
    }

    void push_back(Value v);

    /// Typed lookups with defaults, for tolerant readers of on-disk formats.
    int64_t get_int_or(const std::string& key, int64_t fallback) const;
    double get_double_or(const std::string& key, double fallback) const;
    std::string get_string_or(const std::string& key, std::string fallback) const;
    bool get_bool_or(const std::string& key, bool fallback) const;

    /// Compact single-line serialization.
    std::string dump() const;
    /// Pretty-printed serialization with the given indentation width.
    std::string dump_pretty(int indent = 2) const;

  private:
    std::variant<std::nullptr_t, bool, int64_t, double, std::string, Array, Object> data_;

    void write(std::string& out, int indent, int depth) const;
};

/// Parses JSON text. Throws `JsonError` with line/column context on failure,
/// also when the document holds more than `max_values` values (an array,
/// an object and a scalar each count one). A parsed value takes about 60
/// bytes, so the limit bounds what untrusted text can cost.
Value parse(std::string_view text, size_t max_values = SIZE_MAX);

/// Reads and parses a JSON file. Throws `IoError` or `JsonError`.
Value parse_file(const std::string& path);

/// Writes a value to a file (pretty-printed) with `write_file_atomic`.
/// Throws `IoError`.
void write_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace kl::json
