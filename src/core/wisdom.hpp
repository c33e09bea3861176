#pragma once

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/problem_size.hpp"
#include "netwisdom/client.hpp"
#include "rtccache/rtccache.hpp"
#include "util/json.hpp"

namespace kl::core {

/// One tuning result: the best-performing configuration found for one
/// (GPU, problem size) pair, plus provenance of the tuning session
/// (paper §4.4).
struct WisdomRecord {
    ProblemSize problem_size;
    std::string device_name;
    std::string device_architecture;
    Config config;
    double time_seconds = 0;      ///< measured kernel time of `config`
    json::Value provenance;       ///< date, hostname, strategy, versions, ...

    json::Value to_json() const;
    static WisdomRecord from_json(const json::Value& v);
};

/// How a wisdom lookup matched (paper §4.5, in decreasing quality).
enum class WisdomMatch {
    Exact,          ///< same GPU, same problem size
    DeviceNearest,  ///< same GPU, nearest problem size
    ArchNearest,    ///< same architecture, nearest problem size
    AnyNearest,     ///< any record, nearest problem size
    None,           ///< empty/missing wisdom: use the default configuration
};

const char* wisdom_match_name(WisdomMatch match) noexcept;

/// Inverse of wisdom_match_name; unknown text maps to None. Used to rank
/// match quality reported by a wisdom server against the local selection.
WisdomMatch wisdom_match_from_name(const std::string& name) noexcept;

/// The wisdom file of one kernel: an append-friendly sequence of tuning
/// records in a human-readable JSON format. Re-tuning the same scenario
/// replaces its record only when the new result is at least as good.
class WisdomFile {
  public:
    WisdomFile() = default;
    explicit WisdomFile(std::string kernel_name): kernel_name_(std::move(kernel_name)) {}

    const std::string& kernel_name() const noexcept {
        return kernel_name_;
    }

    const std::vector<WisdomRecord>& records() const noexcept {
        return records_;
    }

    bool empty() const noexcept {
        return records_.empty();
    }

    /// Adds a tuning result. An existing record for the same device and
    /// problem size is replaced when the new time is better (or `force`).
    void add(WisdomRecord record, bool force = false);

    /// Selection result: the chosen record (nullptr for None) and how it
    /// matched.
    struct Selection {
        const WisdomRecord* record = nullptr;
        WisdomMatch match = WisdomMatch::None;
        double distance = 0;
    };

    /// Implements the selection heuristic of §4.5.
    Selection select(
        const std::string& device_name,
        const std::string& device_architecture,
        const ProblemSize& problem) const;

    json::Value to_json() const;
    static WisdomFile from_json(const json::Value& v);

    /// Loads a wisdom file; a missing file yields an empty WisdomFile (the
    /// heuristic then falls back to the default configuration).
    static WisdomFile load(const std::string& path, const std::string& kernel_name);
    void save(const std::string& path) const;

  private:
    std::string kernel_name_;
    std::vector<WisdomRecord> records_;
};

/// How static analysis (kl-lint) reacts to findings. Ordered from most
/// lenient to most strict, so combining two modes is std::max.
enum class LintMode {
    Off,   ///< skip analysis entirely (pre-lint behavior)
    Warn,  ///< render diagnostics to stderr, continue
    Error, ///< error-severity diagnostics abort registration
};

/// Parses "off"/"warn"/"error" (case-insensitive; "0"/"false" mean off).
/// Throws kl::Error on anything else.
LintMode parse_lint_mode(const std::string& text);

/// Process-level settings: where wisdom files and captures live, which
/// kernels to capture, how strict registration-time linting is, and
/// whether the persistent compile cache is consulted. Read from the
/// environment (KERNEL_LAUNCHER_WISDOM, KERNEL_LAUNCHER_CAPTURE,
/// KERNEL_LAUNCHER_CAPTURE_DIR, KERNEL_LAUNCHER_LINT,
/// KERNEL_LAUNCHER_CACHE[_DIR|_LIMIT]) or constructed explicitly by tests
/// and experiments.
class WisdomSettings {
  public:
    /// Defaults: wisdom dir ".", capture dir ".", no capture patterns.
    WisdomSettings() = default;

    static WisdomSettings from_env();

    WisdomSettings& wisdom_dir(std::string dir) {
        wisdom_dir_ = std::move(dir);
        return *this;
    }
    WisdomSettings& capture_dir(std::string dir) {
        capture_dir_ = std::move(dir);
        return *this;
    }
    WisdomSettings& capture_pattern(std::string pattern) {
        capture_patterns_.push_back(std::move(pattern));
        return *this;
    }
    /// How strict registration-time linting is (KERNEL_LAUNCHER_LINT;
    /// default warn: diagnostics are rendered to stderr but never fatal).
    WisdomSettings& lint_mode(LintMode mode) {
        lint_mode_ = mode;
        return *this;
    }
    /// Persistent compile-cache policy (KERNEL_LAUNCHER_CACHE; default
    /// off). Read lets launches reuse previously compiled instances;
    /// ReadWrite additionally stores fresh compiles.
    WisdomSettings& cache_mode(rtccache::Mode mode) {
        cache_.mode = mode;
        return *this;
    }
    /// Cache directory (KERNEL_LAUNCHER_CACHE_DIR); empty selects the
    /// per-user default, see rtccache::Settings::default_dir().
    WisdomSettings& cache_dir(std::string dir) {
        cache_.dir = std::move(dir);
        return *this;
    }
    /// Total on-disk size bound in bytes (KERNEL_LAUNCHER_CACHE_LIMIT).
    WisdomSettings& cache_limit(uint64_t bytes) {
        cache_.limit_bytes = bytes;
        return *this;
    }
    /// Wisdom/artifact server, "host:port" (KERNEL_LAUNCHER_WISDOM_SERVER;
    /// empty = no network tier). Entirely optional and fail-open: an
    /// unreachable server degrades to the local disk/compile path.
    WisdomSettings& net_server(std::string server) {
        net_.server = std::move(server);
        return *this;
    }
    /// Per-request network I/O budget (KERNEL_LAUNCHER_NET_TIMEOUT_MS).
    WisdomSettings& net_timeout_ms(int ms) {
        net_.io_timeout_ms = ms;
        net_.connect_timeout_ms = std::min(net_.connect_timeout_ms, ms);
        return *this;
    }
    /// Circuit-breaker cool-down after a network failure
    /// (KERNEL_LAUNCHER_NET_RETRY_MS).
    WisdomSettings& net_retry_ms(int ms) {
        net_.retry_after_ms = ms;
        return *this;
    }

    const std::string& wisdom_dir() const noexcept {
        return wisdom_dir_;
    }
    const std::string& capture_dir() const noexcept {
        return capture_dir_;
    }
    const std::vector<std::string>& capture_patterns() const noexcept {
        return capture_patterns_;
    }
    LintMode lint_mode() const noexcept {
        return lint_mode_;
    }
    const rtccache::Settings& cache_settings() const noexcept {
        return cache_;
    }
    const netwisdom::Settings& net_settings() const noexcept {
        return net_;
    }

    /// Path of the wisdom file for a kernel: <wisdom_dir>/<kernel>.wisdom.json
    std::string wisdom_path(const std::string& kernel_name) const;

    /// True when the kernel name matches any capture pattern (glob).
    bool should_capture(const std::string& kernel_name) const;

  private:
    std::string wisdom_dir_ = ".";
    std::string capture_dir_ = ".";
    std::vector<std::string> capture_patterns_;
    LintMode lint_mode_ = LintMode::Warn;
    rtccache::Settings cache_;
    netwisdom::Settings net_;
};

/// Builds the provenance object recorded with each wisdom record.
json::Value make_provenance(const std::string& strategy);

}  // namespace kl::core
