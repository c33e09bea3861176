// Model-explanation utility: prints the performance-model mechanism
// breakdown (occupancy, coalescing, halo reuse, tail, memory/compute
// balance) for interesting configurations of each scenario — the default,
// the scenario optimum, and the optimum of the first scenario applied
// cross-scenario. Used to understand *why* the landscape looks the way it
// does; also serves as the ablation evidence for DESIGN.md's model notes.
//
// Usage: bench_model_explain [random_samples] [bayes_evals]

#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "cudasim/module.hpp"

using namespace kl;
using namespace kl::bench;

namespace {

void explain(const Scenario& scenario, const char* tag, const core::Config& config) {
    ScenarioEvaluator evaluator(scenario);
    double t = evaluator.time_of(config);
    if (t <= 0) {
        std::printf("  %-10s unlaunchable\n", tag);
        return;
    }
    const sim::LaunchRecord record = evaluator.context().last_launch();
    const sim::TimingEstimate& est = record.timing;
    std::printf(
        "  %-10s %8.4f ms | occ %4.2f (%d blk/SM) | coalesce %4.2f | reuse %4.2f | "
        "tail %4.2f | mem %6.4f ms | cmp %6.4f ms | %s-bound | BW %5.0f GB/s\n",
        tag, t * 1e3, est.occupancy, est.active_blocks_per_sm, est.coalescing,
        est.halo_reuse, est.tail_utilization, est.memory_seconds * 1e3,
        est.compute_seconds * 1e3, est.compute_bound ? "compute" : "memory",
        est.achieved_bandwidth_gbs);
}

}  // namespace

int main(int argc, char** argv) {
    const int samples = argc > 1 ? std::atoi(argv[1]) : 600;
    const int bayes = argc > 2 ? std::atoi(argv[2]) : 150;

    std::printf("=== Performance-model mechanism breakdown per scenario ===\n\n");

    for (const char* kernel : {"advec_u", "diff_uvw"}) {
        std::vector<Scenario> scenarios;
        for (const char* device : {"NVIDIA A100-PCIE-40GB", "NVIDIA RTX A4000"}) {
            for (int grid : {256, 512}) {
                for (microhh::Precision prec :
                     {microhh::Precision::Float32, microhh::Precision::Float64}) {
                    scenarios.push_back(Scenario {kernel, grid, prec, device});
                }
            }
        }
        CrossStudy cross = cross_study(scenarios, samples, bayes, 9000);
        const core::Config& config_c = cross.studies[0].best_config;

        for (size_t i = 0; i < scenarios.size(); i++) {
            std::printf("%s\n", scenarios[i].label().c_str());
            explain(scenarios[i], "default", cross.studies[i].scenario.def().space.default_config());
            explain(scenarios[i], "optimum", cross.studies[i].best_config);
            if (i != 0) {
                explain(scenarios[i], "transfer0", config_c);
            }
        }
        std::printf("\n");
    }
    return 0;
}
