#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace kl {

/// Splits on a single-character separator; empty fields are preserved
/// ("a,,b" -> {"a","","b"}). An empty input yields one empty field.
std::vector<std::string> split(std::string_view text, char sep);

/// Splits and trims each field, dropping fields that become empty. This is
/// the parse used for comma-separated environment variables such as
/// KERNEL_LAUNCHER_CAPTURE.
std::vector<std::string> split_trimmed(std::string_view text, char sep);

std::string_view trim(std::string_view text);

std::string join(const std::vector<std::string>& parts, std::string_view sep);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Case-insensitive ASCII comparison.
bool iequals(std::string_view a, std::string_view b);

std::string to_lower(std::string_view text);

/// Glob match supporting `*` (any run) and `?` (any one char); used for the
/// capture filter so `KERNEL_LAUNCHER_CAPTURE=advec_*` captures all advection
/// kernels.
bool glob_match(std::string_view pattern, std::string_view text);

/// "1.5 GB"-style human formatting of byte counts, for reports.
std::string format_bytes(uint64_t bytes);

}  // namespace kl
