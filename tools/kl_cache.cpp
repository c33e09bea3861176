// kl-cache: operator console of the persistent compile cache
// (src/rtccache/, docs/CACHING.md). Inspects and maintains the directory
// that KERNEL_LAUNCHER_CACHE=read|readwrite points launches at.
//
// Usage:
//   kl-cache [--dir DIR] [--remote HOST:PORT] <command>
//
// Commands:
//   stats           entry/byte/corruption totals of the directory (default);
//                   with --remote, the kl-wisdomd server's counters instead
//   ls              one line per entry, oldest first
//   verify          re-checksum every entry; exit 1 when any is damaged
//   prune [BYTES]   evict LRU entries down to BYTES (default: the
//                   configured KERNEL_LAUNCHER_CACHE_LIMIT)
//   clear           remove every entry, temp file and quarantined file
//   push            upload every valid local entry to --remote (seed or
//                   top up a kl-wisdomd artifact store, docs/DISTRIBUTED.md)
//   pull            download every artifact --remote holds into the local
//                   directory (pre-warm a node without launching anything)
//
// --dir defaults to KERNEL_LAUNCHER_CACHE_DIR, falling back to the same
// per-user default directory the library uses. push/pull default their
// remote to KERNEL_LAUNCHER_WISDOM_SERVER when --remote is absent; `stats`
// stays local unless --remote is passed explicitly.
//
// Exit status: 0 on success, 1 when verify finds damage or an operation
// fails (including an unreachable remote), 2 on usage errors.

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "netwisdom/client.hpp"
#include "rtccache/rtccache.hpp"
#include "util/errors.hpp"
#include "util/fs.hpp"

namespace {

using kl::rtccache::DiskCache;

void usage(std::FILE* out) {
    std::fprintf(
        out,
        "usage: kl-cache [--dir DIR] [--remote HOST:PORT]\n"
        "                [stats | ls | verify | prune [BYTES] | clear | push | pull]\n");
}

std::string human_bytes(uint64_t bytes) {
    char buffer[32];
    if (bytes >= (1ull << 20)) {
        std::snprintf(buffer, sizeof buffer, "%.1f MiB", double(bytes) / double(1ull << 20));
    } else if (bytes >= (1ull << 10)) {
        std::snprintf(buffer, sizeof buffer, "%.1f KiB", double(bytes) / double(1ull << 10));
    } else {
        std::snprintf(buffer, sizeof buffer, "%" PRIu64 " B", bytes);
    }
    return buffer;
}

int cmd_stats(const std::string& dir) {
    DiskCache::DirStats stats = DiskCache::stats(dir);
    std::printf("directory:   %s\n", dir.c_str());
    std::printf("entries:     %zu\n", stats.entries);
    std::printf("bytes:       %" PRIu64 " (%s)\n", stats.bytes, human_bytes(stats.bytes).c_str());
    std::printf("corrupt:     %zu\n", stats.corrupt);
    std::printf("quarantined: %zu\n", stats.quarantined);
    return 0;
}

int cmd_ls(const std::string& dir) {
    for (const DiskCache::EntryInfo& entry : DiskCache::scan(dir)) {
        if (entry.valid) {
            std::printf(
                "%s  %8" PRIu64 "  %-12s %-12s %s\n",
                entry.id.c_str(),
                entry.bytes,
                entry.device_arch.c_str(),
                entry.kernel.c_str(),
                entry.lowered_name.c_str());
        } else {
            std::printf("%s  %8" PRIu64 "  CORRUPT: %s\n",
                entry.id.c_str(), entry.bytes, entry.error.c_str());
        }
    }
    return 0;
}

int cmd_verify(const std::string& dir) {
    size_t checked = 0;
    size_t damaged = 0;
    for (const DiskCache::EntryInfo& entry : DiskCache::scan(dir)) {
        checked++;
        if (!entry.valid) {
            damaged++;
            std::printf("DAMAGED  %s: %s\n", entry.path.c_str(), entry.error.c_str());
        }
    }
    std::printf("%zu entries checked, %zu damaged\n", checked, damaged);
    return damaged == 0 ? 0 : 1;
}

int cmd_prune(const std::string& dir, uint64_t limit) {
    size_t removed = DiskCache::prune(dir, limit);
    std::printf(
        "evicted %zu entr%s (limit %s)\n",
        removed,
        removed == 1 ? "y" : "ies",
        human_bytes(limit).c_str());
    return 0;
}

int cmd_clear(const std::string& dir) {
    size_t removed = DiskCache::clear(dir);
    std::printf("removed %zu file%s\n", removed, removed == 1 ? "" : "s");
    return 0;
}

/// One CLI-wide client: generous timeouts (operator console, not launch
/// path) and no breaker cool-down surprise across commands.
kl::netwisdom::Client make_remote(const std::string& remote) {
    kl::netwisdom::Settings settings;
    settings.server = remote;
    settings.connect_timeout_ms = 2000;
    settings.io_timeout_ms = 10000;
    kl::netwisdom::parse_host_port(remote);  // usage errors should be loud
    return kl::netwisdom::Client(std::move(settings));
}

int cmd_remote_stats(const std::string& remote) {
    kl::netwisdom::Client client = make_remote(remote);
    const auto stats = client.server_stats();
    if (!stats) {
        std::fprintf(stderr, "kl-cache: cannot reach %s\n", remote.c_str());
        return 1;
    }
    std::printf("server:      %s\n", remote.c_str());
    std::printf("%s\n", stats->dump_pretty(2).c_str());
    return 0;
}

int cmd_push(const std::string& dir, const std::string& remote) {
    kl::netwisdom::Client client = make_remote(remote);
    size_t pushed = 0;
    size_t skipped = 0;
    size_t failed = 0;
    for (const DiskCache::EntryInfo& entry : DiskCache::scan(dir)) {
        if (!entry.valid) {
            skipped++;
            continue;
        }
        std::string text;
        try {
            text = kl::read_text_file(entry.path);
        } catch (const kl::Error&) {
            skipped++;
            continue;
        }
        if (client.artifact_put(entry.id, text)) {
            pushed++;
        } else {
            failed++;
            std::fprintf(stderr, "kl-cache: push of %s rejected or failed\n", entry.id.c_str());
        }
    }
    std::printf(
        "pushed %zu entr%s to %s (%zu skipped, %zu failed)\n",
        pushed, pushed == 1 ? "y" : "ies", remote.c_str(), skipped, failed);
    return failed == 0 ? 0 : 1;
}

int cmd_pull(const std::string& dir, const std::string& remote) {
    kl::netwisdom::Client client = make_remote(remote);
    const auto ids = client.artifact_list();
    if (!ids) {
        std::fprintf(stderr, "kl-cache: cannot reach %s\n", remote.c_str());
        return 1;
    }
    kl::create_directories(dir);
    size_t pulled = 0;
    size_t failed = 0;
    for (const std::string& id : *ids) {
        const auto entry = client.artifact_get(id);
        if (!entry) {
            failed++;
            continue;
        }
        const kl::rtccache::EntryCheck check = kl::rtccache::validate_entry_text(*entry);
        if (!check.valid || check.id != id) {
            failed++;
            std::fprintf(stderr, "kl-cache: served entry %s failed validation\n", id.c_str());
            continue;
        }
        try {
            const std::string tmp = kl::path_join(dir, ".tmp-pull-" + id);
            kl::write_text_file(tmp, *entry);
            kl::rename_file(tmp, kl::path_join(dir, id + ".json"));
            pulled++;
        } catch (const kl::Error& e) {
            failed++;
            std::fprintf(stderr, "kl-cache: cannot write %s: %s\n", id.c_str(), e.what());
        }
    }
    std::printf(
        "pulled %zu of %zu entr%s from %s into %s\n",
        pulled, ids->size(), ids->size() == 1 ? "y" : "ies", remote.c_str(), dir.c_str());
    return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    std::string dir;
    std::string remote = kl::get_env("KERNEL_LAUNCHER_WISDOM_SERVER").value_or("");
    bool remote_flag = false;  // `stats` goes remote only on an explicit --remote
    std::vector<std::string> words;
    for (int i = 1; i < argc; i++) {
        const std::string arg = argv[i];
        if (arg == "--dir") {
            if (i + 1 >= argc) {
                usage(stderr);
                return 2;
            }
            dir = argv[++i];
        } else if (arg == "--remote") {
            if (i + 1 >= argc) {
                usage(stderr);
                return 2;
            }
            remote = argv[++i];
            remote_flag = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(stdout);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "kl-cache: unknown option '%s'\n", arg.c_str());
            usage(stderr);
            return 2;
        } else {
            words.push_back(arg);
        }
    }

    // Same resolution order as the library: explicit flag, then the
    // environment, then the per-user default directory.
    kl::rtccache::Settings settings;
    try {
        settings = kl::rtccache::Settings::from_env();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "kl-cache: %s\n", e.what());
        return 1;
    }
    if (!dir.empty()) {
        settings.dir = dir;
    }
    const std::string resolved = settings.resolved_dir();

    const std::string command = words.empty() ? "stats" : words[0];
    const bool needs_remote = command == "push" || command == "pull";
    if (needs_remote && remote.empty()) {
        std::fprintf(
            stderr,
            "kl-cache: %s needs --remote HOST:PORT (or KERNEL_LAUNCHER_WISDOM_SERVER)\n",
            command.c_str());
        return 2;
    }
    try {
        if (command == "stats" && words.size() <= 1) {
            return remote_flag ? cmd_remote_stats(remote) : cmd_stats(resolved);
        }
        if (command == "push" && words.size() <= 1) {
            return cmd_push(resolved, remote);
        }
        if (command == "pull" && words.size() <= 1) {
            return cmd_pull(resolved, remote);
        }
        if (command == "ls" && words.size() <= 1) {
            return cmd_ls(resolved);
        }
        if (command == "verify" && words.size() <= 1) {
            return cmd_verify(resolved);
        }
        if (command == "prune" && words.size() <= 2) {
            uint64_t limit = settings.limit_bytes;
            if (words.size() == 2) {
                limit = kl::rtccache::parse_byte_limit(words[1]);
            }
            return cmd_prune(resolved, limit);
        }
        if (command == "clear" && words.size() <= 1) {
            return cmd_clear(resolved);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "kl-cache: %s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "kl-cache: unknown command '%s'\n", command.c_str());
    usage(stderr);
    return 2;
}
