#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cudasim/kernel_image.hpp"

namespace kl::rtccache {

/// Version of the on-disk entry layout. It participates in the key hash,
/// so a layout change makes every old entry *miss* (and eventually get
/// evicted) instead of being misread.
inline constexpr int kFormatVersion = 1;

/// Default size bound of a cache directory (KERNEL_LAUNCHER_CACHE_LIMIT).
inline constexpr uint64_t kDefaultLimitBytes = 256ull << 20;

/// What the process is allowed to do with the cache directory
/// (KERNEL_LAUNCHER_CACHE). Off is the default: the disk cache is opt-in.
enum class Mode {
    Off,        ///< never touch the cache directory
    Read,       ///< consume hits, never write (shared read-only caches, CI)
    ReadWrite,  ///< consume hits and persist every successful compile
};

/// Parses "off"/"read"/"readwrite" (case-insensitive; "0"/"false" mean
/// off, "rw"/"on"/"1" mean readwrite, "ro" means read). Throws kl::Error
/// on anything else.
Mode parse_mode(const std::string& text);
const char* mode_name(Mode mode) noexcept;

/// Parses a byte count with an optional K/M/G suffix ("256M", "1g",
/// "1048576"). Throws kl::Error, naming the value (and nothing about where
/// it came from), on malformed input and on counts that do not fit in 64
/// bits.
uint64_t parse_byte_limit(const std::string& text);

/// Cache configuration, read from the environment once
/// (KERNEL_LAUNCHER_CACHE, KERNEL_LAUNCHER_CACHE_DIR,
/// KERNEL_LAUNCHER_CACHE_LIMIT) or constructed explicitly by tests.
struct Settings {
    Mode mode = Mode::Off;
    /// Cache directory; resolved to default_dir() when empty.
    std::string dir;
    uint64_t limit_bytes = kDefaultLimitBytes;

    static Settings from_env();

    /// $XDG_CACHE_HOME/kernel_launcher, else $HOME/.cache/kernel_launcher,
    /// else <system temp>/kernel_launcher_cache.
    static std::string default_dir();

    std::string resolved_dir() const;
};

/// Everything that determines the bytes a compilation produces, §4.5-style:
/// same source + same lowered options + same instantiation + same device
/// architecture → same compiled instance. The stable content hash of these
/// fields (plus kFormatVersion) names the on-disk entry.
struct CacheKey {
    std::string kernel_name;      ///< base __global__ name, e.g. "advec_u"
    std::string device_arch;      ///< device architecture, e.g. "Ampere"
    std::string source;           ///< full CUDA source text
    std::vector<std::string> options;      ///< lowered compile options, in order
    std::string name_expression;  ///< "advec_u<double>" (empty: base name alone)

    /// Stable FNV-1a 64-bit hash over a length-framed serialization of
    /// every field plus the format version. Not cryptographic — good
    /// enough to address a local cache, cheap enough for the launch path.
    uint64_t hash() const;

    /// Entry basename: "klc-" + 16 lowercase hex digits of hash().
    std::string id() const;
};

/// A deserialized cache entry, ready to stage as a module. The host
/// implementation and cost profile are re-resolved from the kernel
/// registry (they are process state, not bytes), so a hit requires the
/// kernel family to be registered — exactly like a compile does.
struct CachedResult {
    sim::KernelImage image;
    std::string log;                     ///< compile log of the original build
    double modeled_compile_seconds = 0;  ///< what the miss path would have paid
    uint64_t entry_bytes = 0;            ///< file size, drives the modeled read cost
};

/// Persistent cross-process cache of compiled kernel instances.
///
/// Layout: one `<dir>/klc-<hash>.json` file per instance — JSON with an
/// embedded checksum — plus a `.lock` sentinel for flock-based writer
/// exclusion and a `quarantine/` subdirectory for damaged entries. Writes
/// are atomic (temp file + rename), so readers never observe a torn
/// entry and need no locks. Reads tolerate arbitrary corruption: a
/// damaged entry is quarantined and reported as a miss, and the caller
/// recompiles — the cache can never turn a compilable kernel into an
/// error. Total size is bounded by LRU eviction on entry mtime (hits
/// re-touch their entry).
///
/// All methods are thread-safe and cheap to construct per use; durable
/// state lives only on disk, observability in the process-wide
/// `kl.cache.disk.*` trace counters.
class DiskCache {
  public:
    explicit DiskCache(Settings settings);

    const Settings& settings() const noexcept {
        return settings_;
    }
    bool readable() const noexcept {
        return settings_.mode != Mode::Off;
    }
    bool writable() const noexcept {
        return settings_.mode == Mode::ReadWrite;
    }

    /// Full path of the entry `key` would occupy.
    std::string entry_path(const CacheKey& key) const;

    /// Probes the cache. Returns the reconstructed result on a hit;
    /// nullopt on a miss, on any corruption (the entry is quarantined
    /// first), or when the kernel family is not registered. Never throws.
    std::optional<CachedResult> load(const CacheKey& key) const;

    /// Persists one successful compile. Atomic and best-effort: I/O
    /// failures are swallowed (counted as kl.cache.disk.write_errors),
    /// and the LRU limit is enforced afterwards. No-op unless writable.
    void store(
        const CacheKey& key,
        const sim::KernelImage& image,
        const std::string& log,
        double compile_seconds) const;

    /// Persists pre-encoded entry text (a network artifact, validated
    /// against `key` first) under the same atomic-write/LRU discipline as
    /// store(). Returns whether the entry landed. No-op unless writable.
    bool store_text(const CacheKey& key, const std::string& text) const;

    // ---- directory-level operations (kl-cache CLI, tests) ----

    struct EntryInfo {
        std::string path;
        std::string id;            ///< "klc-<hex>" basename (without .json)
        std::string kernel;        ///< base kernel name
        std::string lowered_name;  ///< mangled instance name
        std::string arch;          ///< compile arch, e.g. "compute_86"
        std::string device_arch;   ///< device architecture, e.g. "Ampere"
        uint64_t bytes = 0;
        double mtime = 0;
        bool valid = false;
        std::string error;  ///< set when !valid
    };

    /// Parses and checksums every entry in `dir` (read-only; corrupt
    /// entries are reported, not quarantined). Sorted oldest-first.
    static std::vector<EntryInfo> scan(const std::string& dir);

    struct DirStats {
        size_t entries = 0;      ///< valid entries
        uint64_t bytes = 0;      ///< total size of all entries (incl. corrupt)
        size_t corrupt = 0;      ///< entries failing parse/checksum
        size_t quarantined = 0;  ///< files sitting in quarantine/
    };
    static DirStats stats(const std::string& dir);

    /// Evicts least-recently-used entries until the directory holds at
    /// most `limit_bytes`. Returns the number of entries removed.
    static size_t prune(const std::string& dir, uint64_t limit_bytes);

    /// Removes every entry, stale temp file and quarantined file.
    /// Returns the number of files removed.
    static size_t clear(const std::string& dir);

    /// Moves a damaged entry aside into `<dir>/quarantine/` so it cannot
    /// fail again (and `kl-cache` can inspect it). Never throws.
    static void quarantine(const std::string& dir, const std::string& entry_file);

  private:
    Settings settings_;
};

// ---- entry text codec ----
//
// The byte format of one cache entry (checksum-wrapped JSON) is also the
// unit the distributed tier moves around: kl-wisdomd stores and serves
// verbatim entry texts, and a network artifact hit is decoded by exactly
// the code below (docs/DISTRIBUTED.md). Keeping encode/decode/validate as
// free functions guarantees local and remote entries can never drift.

/// Serializes one compiled instance as entry text — precisely the bytes
/// DiskCache::store writes to disk.
std::string encode_entry(
    const CacheKey& key,
    const sim::KernelImage& image,
    const std::string& log,
    double compile_seconds);

/// Outcome of decoding entry text.
enum class EntryDecode {
    Ok,
    Corrupt,       ///< parse/checksum/format/id failure — quarantine-worthy
    Unregistered,  ///< entry is fine but the kernel family is not registered
};

/// Decodes entry text into a CachedResult for `key`. On Corrupt, `error`
/// (when given) receives the human-readable reason.
EntryDecode decode_entry(
    const std::string& text,
    const CacheKey& key,
    CachedResult& out,
    std::string* error = nullptr);

/// Shallow validation of entry text: parse + checksum + format version +
/// id-matches-key fields. Does not require the kernel family to be
/// registered, so the daemon can vet uploads for kernels it never runs.
struct EntryCheck {
    bool valid = false;
    std::string id;      ///< embedded entry id ("" when unreadable)
    std::string kernel;  ///< base kernel name ("" when unreadable)
    std::string error;   ///< reason when !valid
};
EntryCheck validate_entry_text(const std::string& text);

/// Modeled warm-start cost of reading + validating a cache entry of
/// `bytes`: one filesystem round-trip plus parse at memory-ish bandwidth.
/// Replaces the ~230 ms modeled NVRTC latency on the hit path.
double disk_read_seconds(uint64_t bytes);

}  // namespace kl::rtccache
