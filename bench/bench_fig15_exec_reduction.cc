/**
 * @file
 * Paper Figure 15: reduction in execution cycles with a *parallel* MNM,
 * for TMNM_12x3, CMNM_8_10, HMNM2, HMNM4, and the perfect MNM, on the
 * paper's 8-way 5-level machine.
 *
 * Expected shape: every technique helps (never hurts -- the parallel
 * MNM adds no latency); ordering follows coverage (HMNM4 best among
 * real techniques); the perfect MNM roughly doubles the best hybrid's
 * gain; miss-heavy apps benefit the most.
 */

#include "core/presets.hh"
#include "cpu/ooo_core.hh"
#include "harness.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"

using namespace mnm;

namespace
{

Cycles
runCycles(const std::string &app, const std::string &config,
          std::uint64_t instructions, bool reference_kernel)
{
    CacheHierarchy hierarchy(paperHierarchy(5));
    std::unique_ptr<MnmUnit> mnm;
    if (!config.empty()) {
        MnmSpec spec = mnmSpecByName(config);
        spec.placement = MnmPlacement::Parallel;
        mnm = std::make_unique<MnmUnit>(spec, hierarchy);
    }
    OooCore core(paperCpu(5), hierarchy, mnm.get());
    core.setReferenceKernel(reference_kernel);
    auto workload = makeSpecWorkload(app);
    // Warm the hierarchy, then measure.
    core.run(*workload, instructions / 10);
    return core.run(*workload, instructions).cycles;
}

} // anonymous namespace

int
main()
{
    SweepTableBench bench("fig15_exec_reduction",
                          "Figure 15: reduction in execution cycles, "
                          "parallel MNM [%]");
    const ExperimentOptions &opts = bench.opts();
    std::vector<std::string> header = {"app"};
    // Variant 0 is the baseline (no MNM); the headline configs follow.
    std::vector<std::string> configs = {""};
    for (const std::string &config : headlineConfigs()) {
        header.push_back(config);
        configs.push_back(config);
    }
    bench.setHeader(header);
    const bool reference_kernel = referenceKernelFromEnv();

    // Timing-core runs, one cell per (app, config), app-major. Every
    // column is baseline-relative, so a failure aborts the bench with
    // the aggregate error list instead of printing gap markers.
    ParallelRunner runner(opts.jobs);
    std::vector<Cycles> cycles;
    try {
        cycles = runner.map<Cycles>(
            opts.apps.size() * configs.size(), [&](std::size_t i) {
                return runCycles(opts.apps[i / configs.size()],
                                 configs[i % configs.size()],
                                 opts.instructions, reference_kernel);
            });
    } catch (const SweepFailure &e) {
        fatal("%s", e.what());
    }

    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        Cycles base = cycles[a * configs.size()];
        std::vector<double> row;
        for (std::size_t c = 1; c < configs.size(); ++c) {
            row.push_back(100.0 *
                          (static_cast<double>(base) -
                           static_cast<double>(
                               cycles[a * configs.size() + c])) /
                          static_cast<double>(base));
        }
        bench.addAppRow(a, row, 2);
    }
    return bench.finish(2);
}
