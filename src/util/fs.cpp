#include "util/fs.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/errors.hpp"

namespace kl {

namespace stdfs = std::filesystem;

bool file_exists(const std::string& path) {
    std::error_code ec;
    return stdfs::exists(path, ec);
}

void create_directories(const std::string& path) {
    std::error_code ec;
    stdfs::create_directories(path, ec);
    if (ec) {
        throw IoError("cannot create directory '" + path + "': " + ec.message());
    }
}

void remove_file(const std::string& path) {
    std::error_code ec;
    stdfs::remove(path, ec);
    if (ec) {
        throw IoError("cannot remove '" + path + "': " + ec.message());
    }
}

uint64_t file_size(const std::string& path) {
    std::error_code ec;
    uint64_t size = stdfs::file_size(path, ec);
    if (ec) {
        throw IoError("cannot stat '" + path + "': " + ec.message());
    }
    return size;
}

void rename_file(const std::string& from, const std::string& to) {
    std::error_code ec;
    stdfs::rename(from, to, ec);
    if (ec) {
        throw IoError("cannot rename '" + from + "' to '" + to + "': " + ec.message());
    }
}

double file_mtime_seconds(const std::string& path) {
    std::error_code ec;
    stdfs::file_time_type t = stdfs::last_write_time(path, ec);
    if (ec) {
        throw IoError("cannot stat '" + path + "': " + ec.message());
    }
    using namespace std::chrono;
    return duration<double>(t.time_since_epoch()).count();
}

void touch_file(const std::string& path) {
    std::error_code ec;
    stdfs::last_write_time(path, stdfs::file_time_type::clock::now(), ec);
    if (ec) {
        throw IoError("cannot touch '" + path + "': " + ec.message());
    }
}

std::vector<std::string> list_directory(const std::string& dir) {
    std::vector<std::string> out;
    std::error_code ec;
    stdfs::directory_iterator it(dir, ec);
    if (ec) {
        return out;
    }
    for (const auto& entry : it) {
        if (entry.is_regular_file()) {
            out.push_back(entry.path().string());
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

std::string read_text_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw IoError("cannot open file for reading: " + path);
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void write_text_file(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        throw IoError("cannot open file for writing: " + path);
    }
    out << content;
    if (!out) {
        throw IoError("error while writing file: " + path);
    }
}

void write_file_atomic(const std::string& path, const std::string& content) {
    static std::atomic<uint64_t> counter {0};
    const std::string tmp = (stdfs::path(path).parent_path() / ".tmp-").string()
        + std::to_string(::getpid()) + "-" + std::to_string(counter.fetch_add(1));
    try {
        write_text_file(tmp, content);
        rename_file(tmp, path);
    } catch (const Error&) {
        std::error_code ec;
        stdfs::remove(tmp, ec);
        throw;
    }
}

std::vector<std::byte> read_binary_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) {
        throw IoError("cannot open file for reading: " + path);
    }
    std::streamsize size = in.tellg();
    in.seekg(0);
    std::vector<std::byte> data(static_cast<size_t>(size));
    if (size > 0 && !in.read(reinterpret_cast<char*>(data.data()), size)) {
        throw IoError("error while reading file: " + path);
    }
    return data;
}

std::optional<std::string> get_env(const std::string& name) {
    const char* value = std::getenv(name.c_str());
    if (value == nullptr || *value == '\0') {
        return std::nullopt;
    }
    return std::string(value);
}

std::string path_join(const std::string& a, const std::string& b) {
    return (stdfs::path(a) / b).string();
}

std::string path_filename(const std::string& path) {
    return stdfs::path(path).filename().string();
}

std::string make_temp_dir(const std::string& prefix) {
    static std::atomic<uint64_t> counter {0};
    stdfs::path base = stdfs::temp_directory_path();
    for (int attempt = 0; attempt < 100; attempt++) {
        stdfs::path candidate = base
            / (prefix + "-" + std::to_string(::getpid()) + "-"
               + std::to_string(counter.fetch_add(1)));
        std::error_code ec;
        if (stdfs::create_directory(candidate, ec)) {
            return candidate.string();
        }
    }
    throw IoError("cannot create temporary directory with prefix " + prefix);
}

}  // namespace kl
