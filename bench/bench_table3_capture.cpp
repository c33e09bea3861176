// Reproduces Table 3 of the paper: the time required to capture each
// kernel and the size of the capture on disk, for both kernels, two grid
// sizes and two precisions. Captures are really serialized (payloads
// streamed to disk); the reported capture time is the simulated cost of
// the device-to-host export plus the modeled shared-filesystem write
// (the paper's captures went to NFS at 30-40 MB/s effective).
//
// Usage: bench_table3_capture [--keep] [dir]
// Without a dir the captures go to a fresh temp dir, which is removed at
// the end unless --keep is given; its path is printed on stderr.

#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common.hpp"
#include "util/fs.hpp"
#include "util/strings.hpp"

using namespace kl;
using namespace kl::bench;

int main(int argc, char** argv) {
    bool keep = false;
    std::string dir;
    for (int i = 1; i < argc; i++) {
        if (std::strcmp(argv[i], "--keep") == 0) {
            keep = true;
        } else {
            dir = argv[i];
        }
    }
    const bool temp_dir = dir.empty();
    if (temp_dir) {
        dir = make_temp_dir("kl-table3");
    }
    std::fprintf(stderr, "captures written to %s\n", dir.c_str());

    std::printf("=== Table 3: time and size required to capture kernels ===\n\n");
    std::printf(
        "%-10s %-10s %-10s %14s %14s   %s\n", "Kernel", "Grid", "Precision",
        "Capture time", "Capture size", "paper (time, size)");

    // Paper reference values for the side-by-side column.
    const char* paper[8] = {
        "2.3 s, 70.8 MB",  "4.6 s, 141.7 MB", "18.2 s, 551.6 MB", "43.2 s, 1103 MB",
        "5.6 s, 212.8 MB", "11.9 s, 425.6 MB", "43.3 s, 1656 MB",  "82.3 s, 3312 MB",
    };

    int row = 0;
    for (const char* kernel : {"advec_u", "diff_uvw"}) {
        for (int grid : {256, 512}) {
            for (microhh::Precision prec :
                 {microhh::Precision::Float32, microhh::Precision::Float64}) {
                Scenario scenario {kernel, grid, prec, "NVIDIA A100-PCIE-40GB"};
                core::CapturedLaunch capture = make_scenario_capture(scenario);

                auto context =
                    sim::Context::create(scenario.device, sim::ExecutionMode::TimingOnly);
                core::CapturedLaunch::Replay replay(capture, *context);

                core::CaptureInfo info = core::write_capture(
                    dir, capture.def, replay.args(), capture.problem_size, *context);

                std::printf(
                    "%-10s %4d^3     %-10s %11.1f s  %13s   (%s)\n", kernel, grid,
                    microhh::precision_name(prec), info.simulated_seconds,
                    format_bytes(info.total_bytes).c_str(), paper[row]);
                row++;

                if (!keep) {
                    // Remove payloads immediately to bound disk usage.
                    remove_file(info.json_path);
                    for (const std::string& file : list_directory(dir)) {
                        if (ends_with(file, ".bin")) {
                            remove_file(file);
                        }
                    }
                }
            }
        }
    }

    std::printf(
        "\nNote: capture size scales linearly with grid volume and element size,\n"
        "and capture time scales with capture size, as in the paper. Sizes match\n"
        "the paper because captures persist input buffers only (advec_u: u;\n"
        "diff_uvw: u, v, w); pure outputs are zero-filled on replay.\n");
    if (temp_dir && !keep) {
        std::filesystem::remove_all(dir);
    }
    return 0;
}
