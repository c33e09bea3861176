#include "trace/trace.hpp"

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "util/errors.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"

namespace kl::trace {

namespace {

/// Hard cap on the in-memory event buffer; a runaway Full-mode run degrades
/// to counting dropped events instead of exhausting memory.
constexpr size_t kMaxEvents = 1u << 20;

using SteadyClock = std::chrono::steady_clock;

/// The process-wide recorder. Constructed on first use (mode(), counter(),
/// any emit); destroyed at static teardown, at which point it writes
/// KERNEL_LAUNCHER_TRACE_FILE if requested. Everything that can record
/// from a background worker forces construction *before* first touching
/// util::compile_pool() (see ensure_initialized), so the pool — whose
/// destructor drains in-flight jobs — dies first.
class Recorder {
  public:
    static Recorder& global() {
        static Recorder recorder;
        return recorder;
    }

    Recorder(): epoch_(SteadyClock::now()) {
        if (auto env = get_env("KERNEL_LAUNCHER_TRACE")) {
            try {
                detail::g_mode.store(
                    static_cast<int>(parse_mode(*env)), std::memory_order_relaxed);
            } catch (const Error& e) {
                std::fprintf(stderr, "kernel-launcher: %s; tracing disabled\n", e.what());
                detail::g_mode.store(
                    static_cast<int>(Mode::Off), std::memory_order_relaxed);
            }
        } else {
            detail::g_mode.store(static_cast<int>(Mode::Off), std::memory_order_relaxed);
        }
        if (auto file = get_env("KERNEL_LAUNCHER_TRACE_FILE")) {
            exit_file_ = *file;
        }
        dropped_counter_ = &counter_ref("trace.dropped_events");
    }

    ~Recorder() {
        if (!exit_file_.empty() && mode() != Mode::Off) {
            try {
                write_trace_file(exit_file_);
            } catch (const std::exception& e) {
                std::fprintf(
                    stderr, "kernel-launcher: failed to write trace file: %s\n", e.what());
            }
        }
    }

    double now_seconds() const {
        return std::chrono::duration<double>(SteadyClock::now() - epoch_).count();
    }

    void record(TraceEvent event) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (events_.size() >= kMaxEvents) {
            dropped_counter_->add(1);
            return;
        }
        events_.push_back(std::move(event));
    }

    Counter& counter_ref(const std::string& name) {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unique_ptr<Counter>& slot = counters_[name];
        if (slot == nullptr) {
            slot = std::make_unique<Counter>();
        }
        return *slot;
    }

    uint32_t assign_thread_track() {
        std::lock_guard<std::mutex> lock(mutex_);
        uint32_t id = static_cast<uint32_t>(track_names_.size());
        track_names_.push_back("thread-" + std::to_string(id));
        return id;
    }

    void name_track(uint32_t track, const std::string& name) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (track < track_names_.size()) {
            track_names_[track] = name;
        }
    }

    uint32_t intern_named_track(const std::string& name) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = interned_tracks_.find(name);
        if (it != interned_tracks_.end()) {
            return it->second;
        }
        uint32_t id = static_cast<uint32_t>(track_names_.size());
        track_names_.push_back(name);
        interned_tracks_.emplace(name, id);
        return id;
    }

    std::vector<TraceEvent> snapshot() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return events_;
    }

    std::map<std::string, uint64_t> counters_snapshot() const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::map<std::string, uint64_t> out;
        for (const auto& [name, counter] : counters_) {
            out.emplace(name, counter->value());
        }
        return out;
    }

    std::vector<std::string> track_names() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return track_names_;
    }

    void clear() {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.clear();
        for (auto& [name, counter] : counters_) {
            counter->reset();
        }
    }

  private:
    SteadyClock::time_point epoch_;
    std::string exit_file_;
    Counter* dropped_counter_ = nullptr;
    mutable std::mutex mutex_;
    std::vector<TraceEvent> events_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::vector<std::string> track_names_;
    std::map<std::string, uint32_t> interned_tracks_;
};

/// Chrome trace process ids for the two timelines.
int domain_pid(Domain domain) noexcept {
    return domain == Domain::Sim ? 1 : 2;
}

const char* domain_process_name(Domain domain) noexcept {
    return domain == Domain::Sim ? "sim (virtual time)" : "host (wall clock)";
}

}  // namespace

namespace detail {

Mode init_from_env() {
    Recorder::global();  // the constructor stores the parsed mode
    int m = g_mode.load(std::memory_order_relaxed);
    return m < 0 ? Mode::Off : static_cast<Mode>(m);
}

}  // namespace detail

Mode parse_mode(const std::string& text) {
    std::string value = to_lower(trim(text));
    if (value == "off" || value == "0" || value == "false" || value == "no"
        || value == "none" || value.empty()) {
        return Mode::Off;
    }
    if (value == "counters" || value == "counter" || value == "stats") {
        return Mode::Counters;
    }
    if (value == "full" || value == "1" || value == "on" || value == "true"
        || value == "spans") {
        return Mode::Full;
    }
    throw Error(
        "invalid KERNEL_LAUNCHER_TRACE value '" + text
        + "' (expected off, counters or full)");
}

const char* domain_name(Domain domain) noexcept {
    return domain == Domain::Sim ? "sim" : "host";
}

void set_mode(Mode mode) {
    Recorder::global();  // recorder must exist so the exit write still fires
    detail::g_mode.store(static_cast<int>(mode), std::memory_order_relaxed);
}

void ensure_initialized() {
    Recorder::global();
}

Counter& counter(const std::string& name) {
    return Recorder::global().counter_ref(name);
}

double host_now_seconds() {
    return Recorder::global().now_seconds();
}

uint32_t current_track() {
    thread_local int64_t cached = -1;
    if (cached < 0) {
        cached = Recorder::global().assign_thread_track();
    }
    return static_cast<uint32_t>(cached);
}

void set_thread_name(const std::string& name) {
    Recorder::global().name_track(current_track(), name);
}

uint32_t named_track(const std::string& name) {
    return Recorder::global().intern_named_track(name);
}

void emit_complete(
    Domain domain,
    std::string category,
    std::string name,
    double start_seconds,
    double duration_seconds,
    Args args) {
    if (!spans_enabled()) {
        return;
    }
    emit_complete_on(
        domain,
        current_track(),
        std::move(category),
        std::move(name),
        start_seconds,
        duration_seconds,
        std::move(args));
}

void emit_complete_on(
    Domain domain,
    uint32_t track,
    std::string category,
    std::string name,
    double start_seconds,
    double duration_seconds,
    Args args) {
    if (!spans_enabled()) {
        return;
    }
    TraceEvent event;
    event.phase = TraceEvent::Phase::Complete;
    event.domain = domain;
    event.category = std::move(category);
    event.name = std::move(name);
    event.start_us = start_seconds * 1e6;
    event.duration_us = duration_seconds * 1e6;
    event.track = track;
    event.args = std::move(args);
    Recorder::global().record(std::move(event));
}

void emit_instant(
    Domain domain,
    std::string category,
    std::string name,
    double at_seconds,
    Args args) {
    if (!spans_enabled()) {
        return;
    }
    TraceEvent event;
    event.phase = TraceEvent::Phase::Instant;
    event.domain = domain;
    event.category = std::move(category);
    event.name = std::move(name);
    event.start_us = at_seconds * 1e6;
    event.track = current_track();
    event.args = std::move(args);
    Recorder::global().record(std::move(event));
}

HostSpan::HostSpan(std::string category, std::string name, Args args):
    active_(spans_enabled()),
    category_(std::move(category)),
    name_(std::move(name)),
    args_(std::move(args)) {
    if (active_) {
        start_seconds_ = host_now_seconds();
    }
}

HostSpan::~HostSpan() {
    if (!active_) {
        return;
    }
    // Record even if the mode flipped mid-span: a started span must land.
    TraceEvent event;
    event.phase = TraceEvent::Phase::Complete;
    event.domain = Domain::Host;
    event.category = std::move(category_);
    event.name = std::move(name_);
    event.start_us = start_seconds_ * 1e6;
    event.duration_us = (host_now_seconds() - start_seconds_) * 1e6;
    event.track = current_track();
    event.args = std::move(args_);
    Recorder::global().record(std::move(event));
}

std::vector<TraceEvent> events_snapshot() {
    return Recorder::global().snapshot();
}

std::map<std::string, uint64_t> counters_snapshot() {
    return Recorder::global().counters_snapshot();
}

void clear() {
    Recorder::global().clear();
}

std::string chrome_trace_json() {
    Recorder& recorder = Recorder::global();
    const std::vector<TraceEvent> events = recorder.snapshot();
    const std::vector<std::string> tracks = recorder.track_names();

    json::Value trace_events = json::Value::array();

    // Process/thread name metadata first, for the (pid, tid) pairs in use.
    std::map<std::pair<int, uint32_t>, bool> used;
    bool pid_used[3] = {false, false, false};
    for (const TraceEvent& event : events) {
        used[{domain_pid(event.domain), event.track}] = true;
        pid_used[domain_pid(event.domain)] = true;
    }
    for (Domain domain : {Domain::Sim, Domain::Host}) {
        if (!pid_used[domain_pid(domain)]) {
            continue;
        }
        json::Value meta = json::Value::object();
        meta["name"] = "process_name";
        meta["ph"] = "M";
        meta["pid"] = domain_pid(domain);
        json::Value args = json::Value::object();
        args["name"] = domain_process_name(domain);
        meta["args"] = std::move(args);
        trace_events.push_back(std::move(meta));
    }
    for (const auto& [key, unused] : used) {
        (void)unused;
        const auto& [pid, tid] = key;
        json::Value meta = json::Value::object();
        meta["name"] = "thread_name";
        meta["ph"] = "M";
        meta["pid"] = pid;
        meta["tid"] = static_cast<int64_t>(tid);
        json::Value args = json::Value::object();
        args["name"] = tid < tracks.size() ? tracks[tid] : "track-" + std::to_string(tid);
        meta["args"] = std::move(args);
        trace_events.push_back(std::move(meta));
    }

    for (const TraceEvent& event : events) {
        json::Value e = json::Value::object();
        e["name"] = event.name;
        e["cat"] = event.category;
        e["ph"] = event.phase == TraceEvent::Phase::Complete ? "X" : "i";
        e["ts"] = event.start_us;
        if (event.phase == TraceEvent::Phase::Complete) {
            e["dur"] = event.duration_us;
        } else {
            e["s"] = "t";  // instant scope: thread
        }
        e["pid"] = domain_pid(event.domain);
        e["tid"] = static_cast<int64_t>(event.track);
        if (!event.args.empty()) {
            json::Value args = json::Value::object();
            for (const auto& [key, value] : event.args) {
                args[key] = value;
            }
            e["args"] = std::move(args);
        }
        trace_events.push_back(std::move(e));
    }

    json::Value out = json::Value::object();
    out["traceEvents"] = std::move(trace_events);
    out["displayTimeUnit"] = "ms";
    json::Value counters = json::Value::object();
    for (const auto& [name, value] : recorder.counters_snapshot()) {
        counters[name] = value;
    }
    out["klCounters"] = std::move(counters);
    return out.dump_pretty();
}

std::string counters_json() {
    json::Value counters = json::Value::object();
    for (const auto& [name, value] : Recorder::global().counters_snapshot()) {
        counters[name] = value;
    }
    json::Value out = json::Value::object();
    out["counters"] = std::move(counters);
    return out.dump_pretty();
}

void write_trace_file(const std::string& path) {
    write_text_file(path, spans_enabled() ? chrome_trace_json() : counters_json());
}

}  // namespace kl::trace
