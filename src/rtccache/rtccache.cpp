#include "rtccache/rtccache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <filesystem>

#include "nvrtcsim/registry.hpp"
#include "rtccache/lock.hpp"
#include "trace/trace.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace kl::rtccache {

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t fnv1a(uint64_t h, const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; i++) {
        h ^= bytes[i];
        h *= kFnvPrime;
    }
    return h;
}

/// Length-framed field hashing: "ab","c" and "a","bc" must not collide.
uint64_t fnv1a_field(uint64_t h, const std::string& field) {
    uint64_t size = field.size();
    h = fnv1a(h, &size, sizeof size);
    return fnv1a(h, field.data(), field.size());
}

std::string hex64(uint64_t value) {
    char buffer[17];
    std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(value));
    return std::string(buffer);
}

bool is_entry_file(const std::string& path) {
    const std::string name = path_filename(path);
    return starts_with(name, "klc-") && ends_with(name, ".json");
}

std::atomic<uint64_t> g_unique_counter {0};

/// Validates and unwraps one entry file. Throws kl::Error (with a
/// human-readable reason) on any corruption; the caller decides whether
/// to quarantine or just report.
json::Value checked_payload(const std::string& text) {
    json::Value root = json::parse(text);
    if (!root.is_object() || !root.contains("checksum") || !root.contains("payload")) {
        throw Error("not a cache entry (missing checksum/payload)");
    }
    const json::Value& payload = root["payload"];
    const std::string expected = root["checksum"].as_string();
    const std::string actual = hex64(fnv1a_field(kFnvOffset, payload.dump()));
    if (expected != actual) {
        throw Error("checksum mismatch (expected " + expected + ", computed " + actual + ")");
    }
    if (payload.get_int_or("format", -1) != kFormatVersion) {
        throw Error(
            "format version "
            + std::to_string(payload.get_int_or("format", -1)) + " (this build reads "
            + std::to_string(kFormatVersion) + ")");
    }
    return payload;
}

}  // namespace

Mode parse_mode(const std::string& text) {
    std::string value = to_lower(trim(text));
    if (value == "off" || value == "0" || value == "false" || value == "no"
        || value == "none") {
        return Mode::Off;
    }
    if (value == "read" || value == "ro" || value == "readonly") {
        return Mode::Read;
    }
    if (value == "readwrite" || value == "rw" || value == "write" || value == "on"
        || value == "1" || value == "true" || value == "yes") {
        return Mode::ReadWrite;
    }
    throw Error(
        "invalid KERNEL_LAUNCHER_CACHE value '" + text
        + "' (expected off, read or readwrite)");
}

uint64_t parse_byte_limit(const std::string& text) {
    const std::string invalid = "invalid byte limit '" + text + "'";
    const std::string overflow = invalid + " (more than 2^64-1 bytes)";
    std::string value = to_lower(trim(text));
    size_t pos = 0;
    while (pos < value.size() && std::isdigit(static_cast<unsigned char>(value[pos]))) {
        pos++;
    }
    if (pos == 0) {
        throw Error(invalid);
    }
    uint64_t number = 0;
    if (std::from_chars(value.data(), value.data() + pos, number).ec != std::errc()) {
        throw Error(overflow);
    }
    std::string suffix(trim(value.substr(pos)));
    uint64_t factor = 1;
    if (!suffix.empty()) {
        switch (suffix[0]) {
            case 'k':
                factor = 1ull << 10;
                break;
            case 'm':
                factor = 1ull << 20;
                break;
            case 'g':
                factor = 1ull << 30;
                break;
            default:
                throw Error(invalid);
        }
        std::string rest = suffix.substr(1);
        if (rest != "" && rest != "b" && rest != "ib") {
            throw Error(invalid);
        }
    }
    if (number > UINT64_MAX / factor) {
        throw Error(overflow);
    }
    return number * factor;
}

Settings Settings::from_env() {
    Settings settings;
    if (auto mode = get_env("KERNEL_LAUNCHER_CACHE")) {
        settings.mode = parse_mode(*mode);
    }
    if (auto dir = get_env("KERNEL_LAUNCHER_CACHE_DIR")) {
        settings.dir = *dir;
    }
    if (auto limit = get_env("KERNEL_LAUNCHER_CACHE_LIMIT")) {
        try {
            settings.limit_bytes = parse_byte_limit(*limit);
        } catch (const Error& e) {
            throw Error("KERNEL_LAUNCHER_CACHE_LIMIT: " + std::string(e.what()));
        }
    }
    return settings;
}

std::string Settings::default_dir() {
    if (auto xdg = get_env("XDG_CACHE_HOME")) {
        return path_join(*xdg, "kernel_launcher");
    }
    if (auto home = get_env("HOME")) {
        return path_join(path_join(*home, ".cache"), "kernel_launcher");
    }
    return path_join(std::filesystem::temp_directory_path().string(), "kernel_launcher_cache");
}

std::string Settings::resolved_dir() const {
    return dir.empty() ? default_dir() : dir;
}

uint64_t CacheKey::hash() const {
    uint64_t h = kFnvOffset;
    int64_t format = kFormatVersion;
    h = fnv1a(h, &format, sizeof format);
    h = fnv1a_field(h, kernel_name);
    h = fnv1a_field(h, device_arch);
    h = fnv1a_field(h, source);
    uint64_t count = options.size();
    h = fnv1a(h, &count, sizeof count);
    for (const std::string& option : options) {
        h = fnv1a_field(h, option);
    }
    h = fnv1a_field(h, name_expression);
    return h;
}

std::string CacheKey::id() const {
    return "klc-" + hex64(hash());
}

double disk_read_seconds(uint64_t bytes) {
    return 1.2e-3 + static_cast<double>(bytes) / 800e6;
}

DiskCache::DiskCache(Settings settings): settings_(std::move(settings)) {}

std::string DiskCache::entry_path(const CacheKey& key) const {
    return path_join(settings_.resolved_dir(), key.id() + ".json");
}

EntryDecode decode_entry(
    const std::string& text,
    const CacheKey& key,
    CachedResult& out,
    std::string* error) {
    json::Value payload;
    try {
        payload = checked_payload(text);
        if (payload["key"].get_string_or("id", "") != key.id()) {
            throw Error("entry id does not match the requested key");
        }
    } catch (const Error& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return EntryDecode::Corrupt;
    }

    // Reconstruct the kernel image. The host implementation and the cost
    // profile are process state owned by the kernel registry; only the
    // compile *outcome* lives in the entry.
    std::shared_ptr<const rtc::KernelEntry> entry =
        rtc::KernelRegistry::global().find(key.kernel_name);
    if (entry == nullptr) {
        return EntryDecode::Unregistered;
    }
    try {
        const json::Value& result = payload["result"];
        out.image = sim::KernelImage();
        out.image.name = key.kernel_name;
        out.image.lowered_name = result["lowered_name"].as_string();
        out.image.arch = result["arch"].as_string();
        for (const auto& [name, value] : result["constants"].as_object()) {
            out.image.constants.set(name, value.as_string());
        }
        out.image.profile = entry->profile;
        out.image.registers_per_thread =
            static_cast<int>(result["registers_per_thread"].as_int());
        out.image.squeezed_registers =
            static_cast<int>(result["squeezed_registers"].as_int());
        out.image.spilled_registers =
            static_cast<int>(result["spilled_registers"].as_int());
        out.image.static_shared_memory =
            static_cast<uint64_t>(result["static_shared_memory"].as_int());
        out.image.element_size = static_cast<size_t>(result["element_size"].as_int());
        out.image.ptx = result["ptx"].as_string();
        if (entry->make_impl) {
            out.image.impl = entry->make_impl(out.image.constants);
        }
        out.log = result.get_string_or("log", "");
        out.modeled_compile_seconds = result["compile_seconds"].as_double();
        out.entry_bytes = text.size();
        return EntryDecode::Ok;
    } catch (const Error& e) {
        if (error != nullptr) {
            *error = e.what();
        }
        return EntryDecode::Corrupt;
    }
}

EntryCheck validate_entry_text(const std::string& text) {
    EntryCheck check;
    try {
        json::Value payload = checked_payload(text);
        const json::Value& key = payload["key"];
        check.id = key.get_string_or("id", "");
        check.kernel = key.get_string_or("kernel", "");
        if (check.id.empty() || !starts_with(check.id, "klc-")) {
            throw Error("entry has no usable id");
        }
        check.valid = true;
    } catch (const Error& e) {
        check.valid = false;
        check.error = e.what();
    }
    return check;
}

std::optional<CachedResult> DiskCache::load(const CacheKey& key) const {
    if (!readable()) {
        return std::nullopt;
    }
    const std::string path = entry_path(key);
    if (!file_exists(path)) {
        return std::nullopt;
    }
    trace::HostSpan span("cache", "cache.disk.load", {{"entry", key.id()}});

    std::string text;
    try {
        text = read_text_file(path);
    } catch (const Error&) {
        return std::nullopt;  // raced with eviction/clear: a plain miss
    }

    CachedResult out;
    switch (decode_entry(text, key, out)) {
        case EntryDecode::Ok:
            // LRU "use" mark; best-effort (a read-only cache dir is fine).
            try {
                touch_file(path);
            } catch (const Error&) {
            }
            return out;
        case EntryDecode::Unregistered:
            return std::nullopt;  // family not registered in this process
        case EntryDecode::Corrupt:
            // Damaged or foreign bytes: move the file aside so it cannot
            // fail again, and let the caller recompile. Never an error.
            quarantine(settings_.resolved_dir(), path);
            return std::nullopt;
    }
    return std::nullopt;
}

namespace {

/// Light listing for eviction: no parsing, just size + mtime.
struct LightEntry {
    std::string path;
    uint64_t bytes = 0;
    double mtime = 0;
};

std::vector<LightEntry> list_entries(const std::string& dir) {
    std::vector<LightEntry> entries;
    for (const std::string& path : list_directory(dir)) {
        if (!is_entry_file(path)) {
            continue;
        }
        try {
            entries.push_back({path, file_size(path), file_mtime_seconds(path)});
        } catch (const Error&) {
            // raced with concurrent eviction
        }
    }
    return entries;
}

/// Caller holds the directory lock.
size_t evict_over_limit(const std::string& dir, uint64_t limit_bytes) {
    std::vector<LightEntry> entries = list_entries(dir);
    uint64_t total = 0;
    for (const LightEntry& entry : entries) {
        total += entry.bytes;
    }
    if (total <= limit_bytes) {
        return 0;
    }
    std::sort(entries.begin(), entries.end(), [](const LightEntry& a, const LightEntry& b) {
        return a.mtime < b.mtime;
    });
    size_t evicted = 0;
    for (const LightEntry& entry : entries) {
        if (total <= limit_bytes) {
            break;
        }
        try {
            remove_file(entry.path);
            total -= entry.bytes;
            evicted++;
        } catch (const Error&) {
        }
    }
    trace::count("kl.cache.disk.evicted", evicted);
    return evicted;
}

}  // namespace

std::string encode_entry(
    const CacheKey& key,
    const sim::KernelImage& image,
    const std::string& log,
    double compile_seconds) {
    json::Value key_json = json::Value::object();
    key_json["id"] = key.id();
    key_json["kernel"] = key.kernel_name;
    key_json["device_arch"] = key.device_arch;
    key_json["source_bytes"] = static_cast<uint64_t>(key.source.size());
    json::Value options = json::Value::array();
    for (const std::string& option : key.options) {
        options.push_back(option);
    }
    key_json["options"] = std::move(options);
    key_json["name_expression"] = key.name_expression;

    json::Value result = json::Value::object();
    result["lowered_name"] = image.lowered_name;
    result["arch"] = image.arch;
    json::Value constants = json::Value::object();
    for (const auto& [name, value] : image.constants.all()) {
        constants[name] = value;
    }
    result["constants"] = std::move(constants);
    result["registers_per_thread"] = image.registers_per_thread;
    result["squeezed_registers"] = image.squeezed_registers;
    result["spilled_registers"] = image.spilled_registers;
    result["static_shared_memory"] = image.static_shared_memory;
    result["element_size"] = static_cast<uint64_t>(image.element_size);
    result["log"] = log;
    result["compile_seconds"] = compile_seconds;
    result["ptx"] = image.ptx;

    json::Value payload = json::Value::object();
    payload["format"] = kFormatVersion;
    payload["key"] = std::move(key_json);
    payload["result"] = std::move(result);

    json::Value root = json::Value::object();
    root["checksum"] = hex64(fnv1a_field(kFnvOffset, payload.dump()));
    root["payload"] = std::move(payload);
    return root.dump_pretty(2) + "\n";
}

namespace {

/// Atomic entry write + LRU enforcement; caller already validated `text`.
void write_entry_locked(
    const std::string& dir,
    const std::string& entry_file,
    const std::string& text,
    uint64_t limit_bytes) {
    create_directories(dir);
    FileLock lock(path_join(dir, ".lock"), FileLock::Type::Exclusive);
    write_file_atomic(entry_file, text);
    trace::count("kl.cache.disk.write");
    evict_over_limit(dir, limit_bytes);
}

}  // namespace

void DiskCache::store(
    const CacheKey& key,
    const sim::KernelImage& image,
    const std::string& log,
    double compile_seconds) const {
    if (!writable()) {
        return;
    }
    trace::HostSpan span("cache", "cache.disk.store", {{"entry", key.id()}});
    try {
        const std::string text = encode_entry(key, image, log, compile_seconds);
        write_entry_locked(settings_.resolved_dir(), entry_path(key), text, settings_.limit_bytes);
    } catch (const Error&) {
        // Best-effort: an unwritable cache never fails a compilation.
        trace::count("kl.cache.disk.write_errors");
    }
}

bool DiskCache::store_text(const CacheKey& key, const std::string& text) const {
    if (!writable()) {
        return false;
    }
    const EntryCheck check = validate_entry_text(text);
    if (!check.valid || check.id != key.id()) {
        return false;  // never persist bytes that would be quarantined on read
    }
    trace::HostSpan span("cache", "cache.disk.store", {{"entry", key.id()}});
    try {
        write_entry_locked(settings_.resolved_dir(), entry_path(key), text, settings_.limit_bytes);
        return true;
    } catch (const Error&) {
        trace::count("kl.cache.disk.write_errors");
        return false;
    }
}

std::vector<DiskCache::EntryInfo> DiskCache::scan(const std::string& dir) {
    std::vector<EntryInfo> infos;
    for (const std::string& path : list_directory(dir)) {
        if (!is_entry_file(path)) {
            continue;
        }
        EntryInfo info;
        info.path = path;
        info.id = path_filename(path).substr(0, path_filename(path).size() - 5);
        try {
            info.bytes = file_size(path);
            info.mtime = file_mtime_seconds(path);
            json::Value payload = checked_payload(read_text_file(path));
            const json::Value& key = payload["key"];
            info.kernel = key.get_string_or("kernel", "?");
            info.device_arch = key.get_string_or("device_arch", "?");
            const json::Value& result = payload["result"];
            info.lowered_name = result.get_string_or("lowered_name", "?");
            info.arch = result.get_string_or("arch", "?");
            if (key.get_string_or("id", "") != info.id) {
                throw Error("entry id does not match its file name");
            }
            info.valid = true;
        } catch (const Error& e) {
            info.valid = false;
            info.error = e.what();
        }
        infos.push_back(std::move(info));
    }
    std::sort(infos.begin(), infos.end(), [](const EntryInfo& a, const EntryInfo& b) {
        return a.mtime < b.mtime;
    });
    return infos;
}

DiskCache::DirStats DiskCache::stats(const std::string& dir) {
    DirStats out;
    for (const EntryInfo& info : scan(dir)) {
        out.bytes += info.bytes;
        if (info.valid) {
            out.entries++;
        } else {
            out.corrupt++;
        }
    }
    out.quarantined = list_directory(path_join(dir, "quarantine")).size();
    return out;
}

size_t DiskCache::prune(const std::string& dir, uint64_t limit_bytes) {
    FileLock lock(path_join(dir, ".lock"), FileLock::Type::Exclusive);
    return evict_over_limit(dir, limit_bytes);
}

size_t DiskCache::clear(const std::string& dir) {
    FileLock lock(path_join(dir, ".lock"), FileLock::Type::Exclusive);
    size_t removed = 0;
    auto remove_all = [&](const std::string& sub, bool entries_only) {
        for (const std::string& path : list_directory(sub)) {
            const std::string name = path_filename(path);
            if (entries_only && !is_entry_file(path) && !starts_with(name, ".tmp-")) {
                continue;
            }
            if (name == ".lock") {
                continue;
            }
            try {
                remove_file(path);
                removed++;
            } catch (const Error&) {
            }
        }
    };
    remove_all(dir, /*entries_only=*/true);
    remove_all(path_join(dir, "quarantine"), /*entries_only=*/false);
    return removed;
}

void DiskCache::quarantine(const std::string& dir, const std::string& entry_file) {
    try {
        const std::string qdir = path_join(dir, "quarantine");
        create_directories(qdir);
        const std::string target = path_join(
            qdir,
            path_filename(entry_file) + "." + std::to_string(::getpid()) + "-"
                + std::to_string(g_unique_counter.fetch_add(1)));
        rename_file(entry_file, target);
        trace::count("kl.cache.disk.quarantined");
        if (trace::spans_enabled()) {
            trace::emit_instant(
                trace::Domain::Host,
                "cache",
                "cache.disk.quarantine",
                trace::host_now_seconds(),
                {{"entry", path_filename(entry_file)}});
        }
    } catch (const Error&) {
        // The damaged file could not be moved (already gone, read-only
        // dir); the caller still treats the probe as a miss.
    }
}

}  // namespace kl::rtccache
