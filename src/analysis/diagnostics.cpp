#include "analysis/diagnostics.hpp"

#include <algorithm>

namespace kl::analysis {

const char* severity_name(Severity severity) noexcept {
    switch (severity) {
        case Severity::Note:
            return "note";
        case Severity::Warning:
            return "warning";
        case Severity::Error:
            return "error";
    }
    return "?";
}

std::string Diagnostic::render() const {
    std::string out;
    if (!location.file.empty()) {
        out += location.file;
        if (location.line > 0) {
            out += ':';
            out += std::to_string(location.line);
        }
        out += ": ";
    }
    out += severity_name(severity);
    out += ": ";
    if (!code.empty()) {
        out += code + ": ";
    }
    out += message;
    if (!kernel.empty()) {
        out += " [kernel '" + kernel + "']";
    }
    return out;
}

json::Value Diagnostic::to_json() const {
    json::Value out = json::Value::object();
    out["code"] = code;
    out["severity"] = severity_name(severity);
    out["kernel"] = kernel;
    out["file"] = location.file;
    out["line"] = static_cast<int64_t>(location.line);
    out["message"] = message;
    return out;
}

bool diagnostic_order(const Diagnostic& a, const Diagnostic& b) noexcept {
    if (a.code != b.code) {
        return a.code < b.code;
    }
    return a.kernel < b.kernel;
}

void sort_diagnostics(std::vector<Diagnostic>& diagnostics) {
    std::stable_sort(diagnostics.begin(), diagnostics.end(), diagnostic_order);
}

bool has_errors(const std::vector<Diagnostic>& diagnostics) noexcept {
    for (const Diagnostic& d : diagnostics) {
        if (d.severity == Severity::Error) {
            return true;
        }
    }
    return false;
}

size_t count_severity(
    const std::vector<Diagnostic>& diagnostics,
    Severity severity) noexcept {
    size_t n = 0;
    for (const Diagnostic& d : diagnostics) {
        if (d.severity == severity) {
            n++;
        }
    }
    return n;
}

std::string render_all(const std::vector<Diagnostic>& diagnostics) {
    std::string out;
    for (const Diagnostic& d : diagnostics) {
        out += d.render();
        out += '\n';
    }
    return out;
}

}  // namespace kl::analysis
