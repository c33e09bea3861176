#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

namespace {

constexpr int kLayers = static_cast<int>(Layer::Count);
/// In-memory record caps (about 13 MB in all, and per span name and
/// thread, so that every kind of span reaches the file); aggregates keep
/// counting past them.
constexpr uint64_t kRecordCap = 200'000;
constexpr uint64_t kRecordCapPerName = 10'000;

int64_t clock_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Record {
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
    const char* name;
    Layer layer;
};

struct Open {
    uint64_t id;
    uint64_t request;
    int64_t start_ns;
    int64_t child_ns;
    const char* name;
    Layer layer;
};

struct ThreadState {
    uint32_t tid = 0;
    std::vector<Open> stack;
    std::vector<Record> records;
    int64_t self_ns[kLayers] = {};
    uint64_t spans[kLayers] = {};
    /// Spans closed per (layer, literal pointer), for the per-name cap.
    std::map<std::pair<int, const char*>, uint64_t> names;
};

std::atomic<bool> g_enabled {false};
std::atomic<uint64_t> g_next_id {1};
std::atomic<uint64_t> g_recorded {0};
std::atomic<uint64_t> g_dropped {0};

std::mutex g_states_mutex;
std::vector<std::unique_ptr<ThreadState>>& states() {
    static std::vector<std::unique_ptr<ThreadState>> all;
    return all;
}

ThreadState& this_thread() {
    thread_local ThreadState* state = [] {
        std::lock_guard<std::mutex> lock(g_states_mutex);
        auto owned = std::make_unique<ThreadState>();
        owned->tid = static_cast<uint32_t>(states().size() + 1);
        ThreadState* raw = owned.get();
        states().push_back(std::move(owned));
        return raw;
    }();
    return *state;
}

std::string escape(const char* text) {
    std::string out;
    for (const char* p = text; *p != '\0'; p++) {
        if (*p == '"' || *p == '\\') {
            out.push_back('\\');
        }
        out.push_back(*p);
    }
    return out;
}

}  // namespace

const char* layer_name(Layer layer) noexcept {
    static const char* const kNames[kLayers] = {
        "bench",
        "core",
        "analysis",
        "cudasim",
        "nvrtcsim",
        "rtccache",
        "netwisdom",
        "graph",
        "trace",
        "tuner",
        "microhh",
    };
    const int index = static_cast<int>(layer);
    return index >= 0 && index < kLayers ? kNames[index] : "unknown";
}

Span::Span(Layer layer, const char* name, uint64_t request):
    active_(g_enabled.load(std::memory_order_relaxed)) {
    if (!active_) {
        return;
    }
    ThreadState& state = this_thread();
    if (request == 0 && !state.stack.empty()) {
        request = state.stack.back().request;
    }
    state.stack.push_back(Open {
        g_next_id.fetch_add(1, std::memory_order_relaxed), request, clock_ns(), 0, name, layer});
}

Span::~Span() {
    if (!active_) {
        return;
    }
    const int64_t end = clock_ns();
    ThreadState& state = this_thread();
    const Open open = state.stack.back();
    state.stack.pop_back();
    const int64_t duration = end - open.start_ns;
    const int layer = static_cast<int>(open.layer);
    state.self_ns[layer] += duration - open.child_ns;
    state.spans[layer]++;
    const uint64_t closed = ++state.names[{layer, open.name}];
    uint64_t parent = 0;
    if (!state.stack.empty()) {
        state.stack.back().child_ns += duration;
        parent = state.stack.back().id;
    }
    if (closed <= kRecordCapPerName
        && g_recorded.fetch_add(1, std::memory_order_relaxed) < kRecordCap) {
        state.records.push_back(
            Record {open.id, parent, open.request, open.start_ns, end, open.name, open.layer});
    } else {
        if (closed <= kRecordCapPerName) {
            g_recorded.fetch_sub(1, std::memory_order_relaxed);
        }
        g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
}

namespace spans {

void set_enabled(bool on) noexcept {
    g_enabled.store(on, std::memory_order_relaxed);
}

LayerTotals layer_totals() {
    LayerTotals out;
    std::lock_guard<std::mutex> lock(g_states_mutex);
    for (const auto& state : states()) {
        for (int i = 0; i < kLayers; i++) {
            out.self_ns[i] += state->self_ns[i];
            out.spans[i] += state->spans[i];
        }
    }
    return out;
}

uint64_t recorded() {
    return g_recorded.load(std::memory_order_relaxed);
}

uint64_t dropped() {
    return g_dropped.load(std::memory_order_relaxed);
}

void write_chrome_trace(const std::string& path) {
    std::lock_guard<std::mutex> lock(g_states_mutex);
    int64_t origin = INT64_MAX;
    for (const auto& state : states()) {
        for (const Record& r : state->records) {
            origin = std::min(origin, r.start_ns);
        }
    }
    std::ofstream out(path);
    out << "{\"traceEvents\":[\n";
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,"
           "\"args\":{\"name\":\"host (wall clock)\"}}";
    for (const auto& state : states()) {
        out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":" << state->tid
            << ",\"args\":{\"name\":\"bench-" << state->tid << "\"}}";
    }
    char buffer[512];
    for (const auto& state : states()) {
        for (const Record& r : state->records) {
            std::snprintf(
                buffer,
                sizeof(buffer),
                ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":2,\"tid\":%u,\"args\":{\"id\":\"%llu\",\"parent\":\"%llu\","
                "\"request\":\"%llu\"}}",
                escape(r.name).c_str(),
                layer_name(r.layer),
                static_cast<double>(r.start_ns - origin) / 1e3,
                static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                state->tid,
                static_cast<unsigned long long>(r.id),
                static_cast<unsigned long long>(r.parent),
                static_cast<unsigned long long>(r.request));
            out << buffer;
        }
    }
    out << "\n]}\n";
}

}  // namespace spans

}  // namespace perfbench
