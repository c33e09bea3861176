#include "core/wisdom.hpp"

#include <unistd.h>

#include <ctime>
#include <limits>

#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

namespace kl::core {

json::Value WisdomRecord::to_json() const {
    json::Value out = json::Value::object();
    out["problem_size"] = problem_size.to_json();
    json::Value device = json::Value::object();
    device["name"] = device_name;
    device["architecture"] = device_architecture;
    out["device"] = std::move(device);
    out["config"] = config.to_json();
    out["time_ms"] = time_seconds * 1e3;
    out["provenance"] = provenance;
    return out;
}

WisdomRecord WisdomRecord::from_json(const json::Value& v) {
    WisdomRecord record;
    record.problem_size = ProblemSize::from_json(v["problem_size"]);
    record.device_name = v["device"]["name"].as_string();
    record.device_architecture = v["device"].get_string_or("architecture", "");
    record.config = Config::from_json(v["config"]);
    record.time_seconds = v["time_ms"].as_double() * 1e-3;
    if (const json::Value* prov = v.find("provenance")) {
        record.provenance = *prov;
    }
    return record;
}

const char* wisdom_match_name(WisdomMatch match) noexcept {
    switch (match) {
        case WisdomMatch::Exact:
            return "exact";
        case WisdomMatch::DeviceNearest:
            return "device-nearest";
        case WisdomMatch::ArchNearest:
            return "arch-nearest";
        case WisdomMatch::AnyNearest:
            return "any-nearest";
        case WisdomMatch::None:
            return "none";
    }
    return "?";
}

WisdomMatch wisdom_match_from_name(const std::string& name) noexcept {
    for (WisdomMatch match :
         {WisdomMatch::Exact,
          WisdomMatch::DeviceNearest,
          WisdomMatch::ArchNearest,
          WisdomMatch::AnyNearest}) {
        if (name == wisdom_match_name(match)) {
            return match;
        }
    }
    return WisdomMatch::None;
}

void WisdomFile::add(WisdomRecord record, bool force) {
    for (WisdomRecord& existing : records_) {
        if (existing.device_name == record.device_name
            && existing.problem_size == record.problem_size) {
            if (force || record.time_seconds <= existing.time_seconds) {
                existing = std::move(record);
            }
            return;
        }
    }
    records_.push_back(std::move(record));
}

WisdomFile::Selection WisdomFile::select(
    const std::string& device_name,
    const std::string& device_architecture,
    const ProblemSize& problem) const {
    Selection best;
    best.match = WisdomMatch::None;
    double best_distance = std::numeric_limits<double>::infinity();

    auto pick_nearest = [&](auto&& predicate, WisdomMatch match) -> bool {
        const WisdomRecord* nearest = nullptr;
        double nearest_distance = std::numeric_limits<double>::infinity();
        for (const WisdomRecord& record : records_) {
            if (!predicate(record)) {
                continue;
            }
            double d = ProblemSize::distance(record.problem_size, problem);
            if (d < nearest_distance) {
                nearest_distance = d;
                nearest = &record;
            }
        }
        if (nearest != nullptr) {
            best.record = nearest;
            best.match = match;
            best.distance = nearest_distance;
            best_distance = nearest_distance;
            return true;
        }
        return false;
    };

    // 1. Same GPU and exact problem size.
    for (const WisdomRecord& record : records_) {
        if (record.device_name == device_name && record.problem_size == problem) {
            best.record = &record;
            best.match = WisdomMatch::Exact;
            best.distance = 0;
            return best;
        }
    }
    // 2. Same GPU, nearest problem size.
    if (pick_nearest(
            [&](const WisdomRecord& r) { return r.device_name == device_name; },
            WisdomMatch::DeviceNearest)) {
        return best;
    }
    // 3. Same architecture, nearest problem size.
    if (!device_architecture.empty()
        && pick_nearest(
            [&](const WisdomRecord& r) {
                return r.device_architecture == device_architecture;
            },
            WisdomMatch::ArchNearest)) {
        return best;
    }
    // 4. Any record, nearest problem size.
    if (pick_nearest([](const WisdomRecord&) { return true; }, WisdomMatch::AnyNearest)) {
        return best;
    }
    // 5. Nothing: caller falls back to the default configuration.
    (void) best_distance;
    return best;
}

json::Value WisdomFile::to_json() const {
    json::Value out = json::Value::object();
    out["kernel"] = kernel_name_;
    out["version"] = "1.0";
    json::Value records = json::Value::array();
    for (const WisdomRecord& record : records_) {
        records.push_back(record.to_json());
    }
    out["records"] = std::move(records);
    return out;
}

WisdomFile WisdomFile::from_json(const json::Value& v) {
    WisdomFile file(v["kernel"].as_string());
    for (const json::Value& record : v["records"].as_array()) {
        file.records_.push_back(WisdomRecord::from_json(record));
    }
    return file;
}

WisdomFile WisdomFile::load(const std::string& path, const std::string& kernel_name) {
    trace::count("wisdom.loads");
    if (!file_exists(path)) {
        return WisdomFile(kernel_name);
    }
    WisdomFile file = from_json(json::parse_file(path));
    if (file.kernel_name() != kernel_name) {
        throw Error(
            "wisdom file '" + path + "' belongs to kernel '" + file.kernel_name()
            + "', expected '" + kernel_name + "'");
    }
    return file;
}

void WisdomFile::save(const std::string& path) const {
    json::write_file(path, to_json());
}

LintMode parse_lint_mode(const std::string& text) {
    std::string value = to_lower(trim(text));
    if (value == "off" || value == "0" || value == "false" || value == "no"
        || value == "none") {
        return LintMode::Off;
    }
    if (value == "warn" || value == "warning" || value == "on" || value.empty()) {
        return LintMode::Warn;
    }
    if (value == "error" || value == "strict") {
        return LintMode::Error;
    }
    throw Error(
        "invalid KERNEL_LAUNCHER_LINT value '" + text
        + "' (expected off, warn or error)");
}

WisdomSettings WisdomSettings::from_env() {
    WisdomSettings settings;
    if (auto dir = get_env("KERNEL_LAUNCHER_WISDOM")) {
        settings.wisdom_dir_ = *dir;
    }
    if (auto dir = get_env("KERNEL_LAUNCHER_CAPTURE_DIR")) {
        settings.capture_dir_ = *dir;
    }
    if (auto patterns = get_env("KERNEL_LAUNCHER_CAPTURE")) {
        settings.capture_patterns_ = split_trimmed(*patterns, ',');
    }
    if (auto lint = get_env("KERNEL_LAUNCHER_LINT")) {
        settings.lint_mode_ = parse_lint_mode(*lint);
    }
    settings.cache_ = rtccache::Settings::from_env();
    settings.net_ = netwisdom::Settings::from_env();
    return settings;
}

std::string WisdomSettings::wisdom_path(const std::string& kernel_name) const {
    return path_join(wisdom_dir_, kernel_name + ".wisdom.json");
}

bool WisdomSettings::should_capture(const std::string& kernel_name) const {
    for (const std::string& pattern : capture_patterns_) {
        if (glob_match(pattern, kernel_name)) {
            return true;
        }
    }
    return false;
}

json::Value make_provenance(const std::string& strategy) {
    json::Value out = json::Value::object();
    std::time_t now = std::time(nullptr);
    char date[64];
    std::strftime(date, sizeof date, "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
    out["date"] = std::string(date);
    char hostname[256] = "unknown";
    gethostname(hostname, sizeof hostname - 1);
    out["hostname"] = std::string(hostname);
    out["strategy"] = strategy;
    out["tuner"] = "kl-tuner 1.0 (simulated Kernel Tuner)";
    out["library"] = "kernel-launcher-repro 1.0";
    return out;
}

}  // namespace kl::core
