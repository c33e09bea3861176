// perfbench: the launch-cost benchmark binary. run.py builds and drives
// it; see there for the metric contract.
//
//   perfbench --workload <steady_timestep|graph_timestep|cold_start>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// Prints one JSON object as its last line of standard output (attempted,
// failed, checks, failures, metrics). With --trace 1 the run also writes
// <work-dir>/trace.json, a Chrome trace_event file `kl-trace` summarises.
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "bench.hpp"
#include "microhh/kernels.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir>\n",
                 why);
    std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
    perfbench::Options options;
    for (int i = 1; i < argc; i++) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + flag).c_str());
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else if (flag == "--work-dir") {
                options.work_dir = value;
            } else {
                usage(("unknown flag " + flag).c_str());
            }
        } catch (const std::logic_error&) {
            usage(("bad value for " + flag).c_str());
        }
    }
    if (options.workload.empty() || options.work_dir.empty() || !(options.seconds > 0)) {
        usage("--workload, --work-dir and a positive --seconds are required");
    }
    // Half the cores (of at most four): with every vCPU of a shared
    // 4-vCPU machine busy, the aggregate rate swung by 39% from run to
    // run with the co-tenants' load.
    const unsigned cores = std::thread::hardware_concurrency();
    options.threads = static_cast<int>(std::max(1u, std::min(4u, cores) / 2));
    return options;
}

}  // namespace

int main(int argc, char** argv) {
    const perfbench::Options options = parse(argc, argv);
    // The library's own recorder stays off: spans here are the
    // benchmark's, and counters mode is switched on only where measured.
    kl::trace::set_mode(kl::trace::Mode::Off);
    kl::microhh::register_microhh_kernels();
    perfbench::fresh_dir(options.work_dir);

    perfbench::Result result;
    try {
        if (options.workload == "steady_timestep") {
            perfbench::run_steady_timestep(options, result);
        } else if (options.workload == "graph_timestep") {
            perfbench::run_graph_timestep(options, result);
        } else if (options.workload == "cold_start") {
            perfbench::run_cold_start(options, result);
        } else {
            usage(("unknown workload " + options.workload).c_str());
        }
        if (options.trace) {
            perfbench::report_spans(options, result);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s aborted: %s\n", options.workload.c_str(), e.what());
        return 1;
    }
    result.metric("error_rate",
                  static_cast<double>(result.failed_count())
                      / static_cast<double>(std::max<uint64_t>(1, result.attempted_count())),
                  "ratio");
    std::printf("%s\n", result.to_json().c_str());
    return 0;
}
