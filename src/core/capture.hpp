#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/kernel_def.hpp"
#include "core/wisdom.hpp"
#include "cudasim/context.hpp"

namespace kl::core {

/// One captured argument: metadata always, payload only when loaded.
struct CapturedArg {
    bool is_buffer = false;
    bool is_output = false;      ///< pure output: no payload, zero-filled on replay
    ScalarType type = ScalarType::I32;
    size_t count = 1;
    Value scalar_value;          ///< scalars only
    std::string data_file;       ///< input buffers: sidecar .bin file name
    std::vector<std::byte> data; ///< input buffers: payload when loaded
};

/// A fully self-contained kernel launch (paper §4.2): the kernel
/// definition (with embedded source), the problem size, the device it was
/// captured on, and every argument including buffer contents. Everything
/// an auto-tuner needs to replay the launch under different
/// configurations, with no access to the original application.
struct CapturedLaunch {
    KernelDef def;
    ProblemSize problem_size;
    std::string device_name;
    std::string device_architecture;
    std::vector<CapturedArg> args;
    json::Value provenance;

    /// Re-creates device-resident arguments on `context` for replay:
    /// allocates buffers, uploads payloads (when present and the context is
    /// functional), and rebuilds the KernelArg vector. The returned object
    /// owns the allocations.
    class Replay {
      public:
        Replay(const CapturedLaunch& capture, sim::Context& context);
        ~Replay();
        Replay(const Replay&) = delete;
        Replay& operator=(const Replay&) = delete;

        const std::vector<KernelArg>& args() const noexcept {
            return args_;
        }

        /// Downloads the contents of buffer argument `index` (for output
        /// validation between configurations).
        std::vector<std::byte> download(size_t index) const;

        /// Re-uploads the captured payload of every buffer (resets state
        /// between configuration runs, since kernels mutate outputs).
        void reset();

      private:
        const CapturedLaunch* capture_;
        sim::Context* context_;
        std::vector<KernelArg> args_;
        std::vector<sim::DevicePtr> owned_;
    };
};

/// Result of writing one capture.
struct CaptureInfo {
    std::string json_path;
    uint64_t payload_bytes = 0;   ///< buffer payload written to disk
    uint64_t total_bytes = 0;     ///< payload + metadata
    double simulated_seconds = 0; ///< modeled capture time (device->host +
                                  ///< shared-filesystem write, cf. Table 3)
};

/// Writes a capture of one launch into `dir`. File layout:
///   <dir>/<kernel>_<W>x<H>x<D>.json     -- metadata + kernel definition
///   <dir>/<kernel>_<W>x<H>x<D>.argN.bin -- one payload per buffer argument
CaptureInfo write_capture(
    const std::string& dir,
    const KernelDef& def,
    const std::vector<KernelArg>& args,
    const ProblemSize& problem,
    sim::Context& context);

/// Reads a capture. `load_payloads=false` skips the (possibly huge) buffer
/// payloads; replays in timing-only mode do not need them.
CapturedLaunch read_capture(const std::string& json_path, bool load_payloads = true);

/// Lists capture JSON files in a directory.
std::vector<std::string> list_captures(const std::string& dir);

}  // namespace kl::core
