#include "cudasim/shadow.hpp"

#include <algorithm>

namespace kl::sim {

ShadowMemory::ShadowMemory(std::function<bool(size_t, size_t)> ordered):
    ordered_(std::move(ordered)) {}

void ShadowMemory::on_read(size_t node, uint64_t begin, uint64_t size) {
    if (size > 0) {
        access(node, begin, begin + size, /*is_write=*/false);
    }
}

void ShadowMemory::on_write(size_t node, uint64_t begin, uint64_t size) {
    if (size > 0) {
        access(node, begin, begin + size, /*is_write=*/true);
    }
}

std::vector<ShadowConflict> ShadowMemory::conflicts() const {
    std::vector<ShadowConflict> out;
    out.reserve(found_.size());
    for (const auto& [pair, conflict] : found_) {
        out.push_back(conflict);
    }
    return out;  // map order is already (first, second)
}

void ShadowMemory::split_at(uint64_t pos) {
    auto it = cells_.upper_bound(pos);
    if (it == cells_.begin()) {
        return;
    }
    --it;
    if (it->first >= pos || it->second.end <= pos) {
        return;  // pos is already a boundary or falls in a gap
    }
    Cell tail = it->second;  // copies accessor sets
    it->second.end = pos;
    cells_.emplace(pos, std::move(tail));
}

void ShadowMemory::report(
    size_t prior,
    size_t node,
    bool write_write,
    uint64_t begin,
    uint64_t end) {
    auto key = std::make_pair(prior, node);
    auto it = found_.find(key);
    if (it != found_.end()) {
        // Keep the first overlap range, but upgrade the kind: a pair that
        // conflicts both read-write and write-write reports as write-write.
        it->second.write_write = it->second.write_write || write_write;
        return;
    }
    ShadowConflict c;
    c.first = prior;
    c.second = node;
    c.write_write = write_write;
    c.begin = begin;
    c.end = end;
    found_.emplace(key, c);
}

void ShadowMemory::access(size_t node, uint64_t begin, uint64_t end, bool is_write) {
    split_at(begin);
    split_at(end);

    // Walk existing cells inside [begin, end), checking conflicts and
    // tagging; create fresh cells for the gaps in between.
    uint64_t cursor = begin;
    auto it = cells_.lower_bound(begin);
    while (cursor < end) {
        if (it == cells_.end() || it->first >= end) {
            // Trailing gap: everything from cursor to end is untouched.
            Cell cell;
            cell.end = end;
            (is_write ? cell.writers : cell.readers).push_back(node);
            cells_.emplace(cursor, std::move(cell));
            break;
        }
        if (it->first > cursor) {
            // Gap before the next cell.
            Cell cell;
            cell.end = it->first;
            (is_write ? cell.writers : cell.readers).push_back(node);
            it = cells_.emplace(cursor, std::move(cell)).first;
            ++it;
            cursor = it->first;
            continue;
        }
        Cell& cell = it->second;
        if (is_write) {
            for (size_t w : cell.writers) {
                if (w != node && !ordered_(w, node)) {
                    report(w, node, /*write_write=*/true, it->first, cell.end);
                }
            }
            for (size_t r : cell.readers) {
                if (r != node && !ordered_(r, node)) {
                    report(r, node, /*write_write=*/false, it->first, cell.end);
                }
            }
            if (std::find(cell.writers.begin(), cell.writers.end(), node)
                == cell.writers.end()) {
                cell.writers.push_back(node);
            }
        } else {
            for (size_t w : cell.writers) {
                if (w != node && !ordered_(w, node)) {
                    report(w, node, /*write_write=*/false, it->first, cell.end);
                }
            }
            if (std::find(cell.readers.begin(), cell.readers.end(), node)
                == cell.readers.end()) {
                cell.readers.push_back(node);
            }
        }
        cursor = cell.end;
        ++it;
    }
}

}  // namespace kl::sim
