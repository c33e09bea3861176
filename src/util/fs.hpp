#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace kl {

/// Thin, exception-mapped wrappers over <filesystem> plus binary-blob IO.
/// All paths are plain std::string; errors surface as kl::IoError.

bool file_exists(const std::string& path);
void create_directories(const std::string& path);
void remove_file(const std::string& path);
uint64_t file_size(const std::string& path);

/// Atomically replaces `to` with `from` (same filesystem).
void rename_file(const std::string& from, const std::string& to);

/// Last-modification time as seconds since an arbitrary (but stable within
/// the process) epoch; orders files for LRU eviction.
double file_mtime_seconds(const std::string& path);

/// Bumps the file's modification time to now (an LRU "use" mark).
void touch_file(const std::string& path);

/// Lists regular files in a directory (non-recursive), sorted by name.
/// Returns an empty list when the directory does not exist.
std::vector<std::string> list_directory(const std::string& dir);

std::string read_text_file(const std::string& path);
void write_text_file(const std::string& path, const std::string& content);

/// Writes `.tmp-<pid>-<counter>` next to `path`, then renames it over
/// `path`: a reader sees the old file or the new one, never a torn one.
/// The temp name matches no loader's pattern (`*.wisdom.json`, `klc-*.json`).
void write_file_atomic(const std::string& path, const std::string& content);

std::vector<std::byte> read_binary_file(const std::string& path);

/// `getenv` as optional; empty-string values count as unset.
std::optional<std::string> get_env(const std::string& name);

/// Joins two path fragments with exactly one separator.
std::string path_join(const std::string& a, const std::string& b);

/// Final path component ("dir/kernel.json" -> "kernel.json").
std::string path_filename(const std::string& path);

/// Creates a fresh unique directory under the system temp dir; the given
/// prefix aids debugging. The caller owns cleanup.
std::string make_temp_dir(const std::string& prefix);

}  // namespace kl
