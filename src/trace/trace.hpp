#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace kl::trace {

/// How much the process-wide recorder captures, in increasing cost:
///
///   Off       nothing; the instrumentation reduces to one relaxed atomic
///             load per guard (KERNEL_LAUNCHER_TRACE unset or "off")
///   Counters  monotonic counters only (compiles, cache hits, launches,
///             bytes moved, ...) — no per-event storage
///   Full      counters plus timestamped spans/instants for every
///             instrumented operation, exportable as Chrome trace JSON
///
/// The mode is read once from KERNEL_LAUNCHER_TRACE at first use;
/// set_mode() overrides it at any time (tests and benches do).
enum class Mode {
    Off = 0,
    Counters = 1,
    Full = 2,
};

/// Parses "off"/"counters"/"full" (case-insensitive; "0"/"false" mean off,
/// "1"/"on" mean full). Throws kl::Error on anything else.
Mode parse_mode(const std::string& text);
const char* mode_name(Mode mode) noexcept;

namespace detail {
/// -1 until initialized from the environment; otherwise a Mode value.
/// Inline so that the guard compiles to a single relaxed load everywhere.
inline std::atomic<int> g_mode {-1};
/// Reads KERNEL_LAUNCHER_TRACE, constructs the recorder, stores the mode.
Mode init_from_env();
}  // namespace detail

/// Current mode; first call initializes from the environment.
inline Mode mode() noexcept {
    int m = detail::g_mode.load(std::memory_order_relaxed);
    if (m < 0) {
        return detail::init_from_env();
    }
    return static_cast<Mode>(m);
}

void set_mode(Mode mode);

/// Guards for instrumentation sites: one relaxed load when tracing is off.
inline bool counters_enabled() noexcept {
    return mode() != Mode::Off;
}
inline bool spans_enabled() noexcept {
    return mode() == Mode::Full;
}

/// Forces the recorder singleton (and the env read) into existence.
/// Anything that records from a background worker must call this before
/// first touching util::compile_pool(), so the recorder outlives the
/// pool's drain at process exit (same ordering contract as the rtc
/// registries; WisdomKernel and sim::Context comply).
void ensure_initialized();

/// Which timeline an event's timestamps live on. The two cannot share an
/// axis: Sim timestamps are virtual seconds of a SimClock (a modeled ~235
/// ms compile "takes" microseconds of real time), Host timestamps are real
/// wall-clock seconds since the recorder was created. The Chrome export
/// separates them as two processes, "sim (virtual time)" and
/// "host (wall clock)".
enum class Domain {
    Sim = 0,
    Host = 1,
};

const char* domain_name(Domain domain) noexcept;

/// Small pre-rendered key/value payload attached to an event.
using Args = std::vector<std::pair<std::string, std::string>>;

/// One recorded event. `track` is a process-dense thread/track id (see
/// current_track / named_track); `start_us`/`duration_us` are microseconds
/// on the event's Domain timeline.
struct TraceEvent {
    enum class Phase {
        Complete,  ///< a span: [start_us, start_us + duration_us]
        Instant,   ///< a point marker; duration_us == 0
    };

    Phase phase = Phase::Complete;
    Domain domain = Domain::Sim;
    std::string category;
    std::string name;
    double start_us = 0;
    double duration_us = 0;
    uint32_t track = 0;
    Args args;
};

/// A monotonic counter. Handles returned by counter() are valid for the
/// lifetime of the recorder (i.e. the process, under the ensure_initialized
/// ordering contract); increments are relaxed atomics and race-free.
class Counter {
  public:
    void add(uint64_t n = 1) noexcept {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    /// Back to zero; only trace::clear() should call this.
    void reset() noexcept {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_ {0};
};

/// The named counter `name`, interned in the process-wide registry.
/// Creation is synchronized; the returned reference is stable.
Counter& counter(const std::string& name);

/// Seconds of real time since the recorder was created (the Host-domain
/// epoch).
double host_now_seconds();

/// Dense track id of the calling thread (assigned on first use).
uint32_t current_track();

/// Names the calling thread's track in exported traces ("compile-worker-0",
/// "main", ...). Idempotent; last writer wins.
void set_thread_name(const std::string& name);

/// A synthetic track that is not a host thread (e.g. a simulated CUDA
/// stream's timeline). Tracks are interned by name.
uint32_t named_track(const std::string& name);

/// Records a span with explicit timestamps, in *seconds* on `domain`'s
/// timeline. This is the workhorse: most durations here are modeled, so
/// callers know [start, duration] outright. No-op unless spans_enabled().
void emit_complete(
    Domain domain,
    std::string category,
    std::string name,
    double start_seconds,
    double duration_seconds,
    Args args = {});

/// Like emit_complete, but on an explicit track (e.g. a stream timeline).
void emit_complete_on(
    Domain domain,
    uint32_t track,
    std::string category,
    std::string name,
    double start_seconds,
    double duration_seconds,
    Args args = {});

/// Records a point marker. No-op unless spans_enabled().
void emit_instant(
    Domain domain,
    std::string category,
    std::string name,
    double at_seconds,
    Args args = {});

/// RAII span over real host time: records a Host-domain Complete event
/// from construction to destruction. Captures spans_enabled() at
/// construction, so a mid-span mode flip cannot tear it.
class HostSpan {
  public:
    HostSpan(std::string category, std::string name, Args args = {});
    ~HostSpan();

    HostSpan(const HostSpan&) = delete;
    HostSpan& operator=(const HostSpan&) = delete;

  private:
    bool active_;
    double start_seconds_ = 0;
    std::string category_;
    std::string name_;
    Args args_;
};

/// Snapshot of every recorded event, in recording order.
std::vector<TraceEvent> events_snapshot();

/// Number of events dropped because the in-memory buffer cap (1M events)
/// was reached; also exported as the "trace.dropped_events" counter.
uint64_t dropped_events();

/// Snapshot of every counter (including zero-valued ones already interned).
std::map<std::string, uint64_t> counters_snapshot();

/// Names of all interned tracks, indexed by track id.
std::vector<std::string> track_names();

/// Drops all recorded events and zeroes all counters. Safe to call while
/// other threads are emitting (they land in the post-clear buffer).
void clear();

/// Chrome trace_event JSON of everything recorded so far: a
/// `{"traceEvents": [...]}` object loadable in chrome://tracing and
/// Perfetto, with thread/process name metadata and a "klCounters" section
/// holding the counter dump.
std::string chrome_trace_json();

/// Machine-readable counters dump: `{"counters": {...}}`.
std::string counters_json();

/// Writes chrome_trace_json() (mode Full) or counters_json() (mode
/// Counters) to `path`. Called automatically at process exit when
/// KERNEL_LAUNCHER_TRACE_FILE is set and the mode is not Off.
void write_trace_file(const std::string& path);

}  // namespace kl::trace
