#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace kl::json {

namespace {

const char* type_name(Type t) {
    switch (t) {
        case Type::Null:
            return "null";
        case Type::Bool:
            return "bool";
        case Type::Int:
            return "int";
        case Type::Double:
            return "double";
        case Type::String:
            return "string";
        case Type::Array:
            return "array";
        case Type::Object:
            return "object";
    }
    return "?";
}

[[noreturn]] void type_error(Type actual, const char* expected) {
    throw JsonError(
        std::string("JSON type mismatch: expected ") + expected + ", found "
        + type_name(actual));
}

}  // namespace

bool Value::as_bool() const {
    if (auto* v = std::get_if<bool>(&data_)) {
        return *v;
    }
    type_error(type(), "bool");
}

int64_t Value::as_int() const {
    if (auto* v = std::get_if<int64_t>(&data_)) {
        return *v;
    }
    type_error(type(), "int");
}

double Value::as_double() const {
    if (auto* v = std::get_if<double>(&data_)) {
        return *v;
    }
    if (auto* v = std::get_if<int64_t>(&data_)) {
        return static_cast<double>(*v);
    }
    type_error(type(), "number");
}

const std::string& Value::as_string() const {
    if (auto* v = std::get_if<std::string>(&data_)) {
        return *v;
    }
    type_error(type(), "string");
}

const Array& Value::as_array() const {
    if (auto* v = std::get_if<Array>(&data_)) {
        return *v;
    }
    type_error(type(), "array");
}

Array& Value::as_array() {
    if (auto* v = std::get_if<Array>(&data_)) {
        return *v;
    }
    type_error(type(), "array");
}

const Object& Value::as_object() const {
    if (auto* v = std::get_if<Object>(&data_)) {
        return *v;
    }
    type_error(type(), "object");
}

Object& Value::as_object() {
    if (auto* v = std::get_if<Object>(&data_)) {
        return *v;
    }
    type_error(type(), "object");
}

Value& Value::operator[](const std::string& key) {
    if (is_null()) {
        data_ = Object {};
    }
    return as_object()[key];
}

const Value& Value::operator[](const std::string& key) const {
    const Object& obj = as_object();
    auto it = obj.find(key);
    if (it == obj.end()) {
        throw JsonError("JSON object has no key '" + key + "'");
    }
    return it->second;
}

bool Value::contains(const std::string& key) const {
    return is_object() && as_object().count(key) != 0;
}

const Value* Value::find(const std::string& key) const noexcept {
    if (!is_object()) {
        return nullptr;
    }
    const Object& obj = *std::get_if<Object>(&data_);
    auto it = obj.find(key);
    return it != obj.end() ? &it->second : nullptr;
}

Value& Value::at(size_t index) {
    Array& arr = as_array();
    if (index >= arr.size()) {
        throw JsonError("JSON array index out of range");
    }
    return arr[index];
}

const Value& Value::at(size_t index) const {
    const Array& arr = as_array();
    if (index >= arr.size()) {
        throw JsonError("JSON array index out of range");
    }
    return arr[index];
}

size_t Value::size() const {
    if (is_array()) {
        return as_array().size();
    }
    if (is_object()) {
        return as_object().size();
    }
    type_error(type(), "array or object");
}

void Value::push_back(Value v) {
    if (is_null()) {
        data_ = Array {};
    }
    as_array().push_back(std::move(v));
}

int64_t Value::get_int_or(const std::string& key, int64_t fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->is_int() ? v->as_int() : fallback;
}

double Value::get_double_or(const std::string& key, double fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

std::string Value::get_string_or(const std::string& key, std::string fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

bool Value::get_bool_or(const std::string& key, bool fallback) const {
    const Value* v = find(key);
    return v != nullptr && v->is_bool() ? v->as_bool() : fallback;
}

bool Value::operator==(const Value& other) const {
    // Int/double compare numerically so that a value that went through a
    // tool emitting `1.0` still matches `1`.
    if (is_number() && other.is_number() && type() != other.type()) {
        return as_double() == other.as_double();
    }
    return data_ == other.data_;
}

namespace {

void write_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            case '\b':
                out += "\\b";
                break;
            case '\f':
                out += "\\f";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void write_double(std::string& out, double v) {
    if (std::isnan(v) || std::isinf(v)) {
        // JSON has no NaN/Inf; null is the conventional lossy stand-in.
        out += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    std::string_view repr(buf);
    out += repr;
    // Keep a marker so the value parses back as a double, not an int.
    if (repr.find_first_of(".eE") == std::string_view::npos) {
        out += ".0";
    }
}

void newline_indent(std::string& out, int indent, int depth) {
    if (indent > 0) {
        out += '\n';
        out.append(static_cast<size_t>(indent) * depth, ' ');
    }
}

}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
    switch (type()) {
        case Type::Null:
            out += "null";
            return;
        case Type::Bool:
            out += *std::get_if<bool>(&data_) ? "true" : "false";
            return;
        case Type::Int:
            out += std::to_string(*std::get_if<int64_t>(&data_));
            return;
        case Type::Double:
            write_double(out, *std::get_if<double>(&data_));
            return;
        case Type::String:
            write_escaped(out, *std::get_if<std::string>(&data_));
            return;
        case Type::Array: {
            const Array& arr = *std::get_if<Array>(&data_);
            if (arr.empty()) {
                out += "[]";
                return;
            }
            out += '[';
            bool first = true;
            for (const Value& v : arr) {
                if (!first) {
                    out += indent > 0 ? "," : ", ";
                }
                first = false;
                newline_indent(out, indent, depth + 1);
                v.write(out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out += ']';
            return;
        }
        case Type::Object: {
            const Object& obj = *std::get_if<Object>(&data_);
            if (obj.empty()) {
                out += "{}";
                return;
            }
            out += '{';
            bool first = true;
            for (const auto& [key, v] : obj) {
                if (!first) {
                    out += indent > 0 ? "," : ", ";
                }
                first = false;
                newline_indent(out, indent, depth + 1);
                write_escaped(out, key);
                out += ": ";
                v.write(out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out += '}';
            return;
        }
    }
}

std::string Value::dump() const {
    std::string out;
    write(out, 0, 0);
    return out;
}

std::string Value::dump_pretty(int indent) const {
    std::string out;
    write(out, indent, 0);
    out += '\n';
    return out;
}

namespace {

/// Deepest array/object nesting the parser accepts. Every document this
/// library reads nests a handful of levels; the limit turns hostile input
/// (say, a frame of 8 MiB of '[') into a JsonError instead of a stack
/// overflow in the recursive descent.
constexpr size_t kMaxDepth = 256;

class Parser {
  public:
    explicit Parser(std::string_view text): text_(text) {}

    Value parse_document() {
        Value v = parse_value(0);
        skip_whitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
        }
        return v;
    }

  private:
    std::string_view text_;
    size_t pos_ = 0;

    [[noreturn]] void fail(const std::string& what) const {
        size_t line = 1, col = 1;
        for (size_t i = 0; i < pos_ && i < text_.size(); i++) {
            if (text_[i] == '\n') {
                line++;
                col = 1;
            } else {
                col++;
            }
        }
        throw JsonError(
            "JSON parse error at line " + std::to_string(line) + ", column "
            + std::to_string(col) + ": " + what);
    }

    void skip_whitespace() {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
                pos_++;
            } else {
                break;
            }
        }
    }

    char peek() {
        skip_whitespace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
        }
        pos_++;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) == lit) {
            pos_ += lit.size();
            return true;
        }
        return false;
    }

    /// `depth` counts the arrays and objects enclosing the value.
    Value parse_value(size_t depth) {
        switch (peek()) {
            case '{':
                return parse_object(depth + 1);
            case '[':
                return parse_array(depth + 1);
            case '"':
                return Value(parse_string());
            case 't':
                if (consume_literal("true")) {
                    return Value(true);
                }
                fail("invalid literal");
            case 'f':
                if (consume_literal("false")) {
                    return Value(false);
                }
                fail("invalid literal");
            case 'n':
                if (consume_literal("null")) {
                    return Value(nullptr);
                }
                fail("invalid literal");
            default:
                return parse_number();
        }
    }

    void check_depth(size_t depth) const {
        if (depth > kMaxDepth) {
            fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        }
    }

    Value parse_object(size_t depth) {
        check_depth(depth);
        expect('{');
        Object obj;
        if (peek() == '}') {
            pos_++;
            return Value(std::move(obj));
        }
        while (true) {
            if (peek() != '"') {
                fail("expected object key");
            }
            std::string key = parse_string();
            expect(':');
            obj.emplace(std::move(key), parse_value(depth));
            char c = peek();
            if (c == ',') {
                pos_++;
            } else if (c == '}') {
                pos_++;
                return Value(std::move(obj));
            } else {
                fail("expected ',' or '}'");
            }
        }
    }

    Value parse_array(size_t depth) {
        check_depth(depth);
        expect('[');
        Array arr;
        if (peek() == ']') {
            pos_++;
            return Value(std::move(arr));
        }
        while (true) {
            arr.push_back(parse_value(depth));
            char c = peek();
            if (c == ',') {
                pos_++;
            } else if (c == ']') {
                pos_++;
                return Value(std::move(arr));
            } else {
                fail("expected ',' or ']'");
            }
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
            }
            char c = text_[pos_++];
            if (c == '"') {
                return out;
            }
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    fail("unterminated escape");
                }
                char esc = text_[pos_++];
                switch (esc) {
                    case '"':
                        out += '"';
                        break;
                    case '\\':
                        out += '\\';
                        break;
                    case '/':
                        out += '/';
                        break;
                    case 'n':
                        out += '\n';
                        break;
                    case 'r':
                        out += '\r';
                        break;
                    case 't':
                        out += '\t';
                        break;
                    case 'b':
                        out += '\b';
                        break;
                    case 'f':
                        out += '\f';
                        break;
                    case 'u': {
                        if (pos_ + 4 > text_.size()) {
                            fail("truncated \\u escape");
                        }
                        unsigned code = 0;
                        for (int i = 0; i < 4; i++) {
                            char h = text_[pos_++];
                            code <<= 4;
                            if (h >= '0' && h <= '9') {
                                code |= static_cast<unsigned>(h - '0');
                            } else if (h >= 'a' && h <= 'f') {
                                code |= static_cast<unsigned>(h - 'a' + 10);
                            } else if (h >= 'A' && h <= 'F') {
                                code |= static_cast<unsigned>(h - 'A' + 10);
                            } else {
                                fail("invalid \\u escape");
                            }
                        }
                        // Encode the code point as UTF-8 (BMP only; surrogate
                        // pairs are not needed by any of our writers).
                        if (code < 0x80) {
                            out += static_cast<char>(code);
                        } else if (code < 0x800) {
                            out += static_cast<char>(0xC0 | (code >> 6));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        } else {
                            out += static_cast<char>(0xE0 | (code >> 12));
                            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                            out += static_cast<char>(0x80 | (code & 0x3F));
                        }
                        break;
                    }
                    default:
                        fail("invalid escape character");
                }
            } else {
                out += c;
            }
        }
    }

    Value parse_number() {
        size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            pos_++;
        }
        bool is_double = false;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                pos_++;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                is_double = true;
                pos_++;
            } else {
                break;
            }
        }
        std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") {
            fail("invalid number");
        }
        if (!is_double) {
            int64_t v = 0;
            auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
            if (ec == std::errc() && ptr == token.data() + token.size()) {
                return Value(v);
            }
            // Falls through for out-of-range integers, parsed as double.
        }
        double d = 0;
        auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
        if (ec != std::errc() || ptr != token.data() + token.size()) {
            fail("invalid number");
        }
        return Value(d);
    }
};

}  // namespace

Value parse(std::string_view text) {
    return Parser(text).parse_document();
}

Value parse_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw IoError("cannot open file for reading: " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parse(buffer.str());
}

void write_file(const std::string& path, const Value& value, int indent) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw IoError("cannot open file for writing: " + path);
    }
    out << value.dump_pretty(indent);
    if (!out) {
        throw IoError("error while writing file: " + path);
    }
}

}  // namespace kl::json
