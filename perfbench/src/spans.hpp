// The benchmark's own tracer. A Span wraps one call from benchmark code
// into a library layer (or a benchmark-level unit of work such as one
// timestep) and records name, start, end, parent and request id. Spans stay
// in memory and are written out as Chrome trace_event JSON when the run
// ends, in the layout `kl-trace` reads. Self time per layer (a span's
// duration minus the part its child spans cover) is accumulated for every
// span, also once the in-memory record cap is reached.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// The modules of the library, plus the benchmark's own code.
enum class Layer : uint8_t {
    Bench,
    Core,
    Analysis,
    Cudasim,
    Nvrtcsim,
    Rtccache,
    Netwisdom,
    Graph,
    Trace,
    Tuner,
    Microhh,
    Count,
};

const char* layer_name(Layer layer) noexcept;

namespace spans {

/// Spans record only while enabled (the traced phases of a --trace 1 run).
void set_enabled(bool on) noexcept;

/// Per-layer totals over every span closed so far, all threads. Read only
/// while no other thread is recording.
struct LayerTotals {
    int64_t self_ns[static_cast<int>(Layer::Count)] = {};
    uint64_t spans[static_cast<int>(Layer::Count)] = {};
};
LayerTotals layer_totals();

uint64_t recorded();
uint64_t dropped();

/// Writes the recorded spans as {"traceEvents": [...]} on the host
/// timeline (pid 2), category = layer, with id/parent/request args.
void write_chrome_trace(const std::string& path);

}  // namespace spans

/// RAII span; a no-op unless spans::enabled() at construction. `name`
/// must be a string literal (it is stored by pointer). A zero `request`
/// inherits the enclosing span's request id.
class Span {
  public:
    Span(Layer layer, const char* name, uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

  private:
    bool active_;
};

}  // namespace perfbench
