/**
 * @file
 * Paper Table 2: per-application characteristics on the 5-level
 * machine -- execution cycles, L1 data/instruction access counts, and
 * the per-level hit rates of all seven cache structures.
 */

#include "cpu/ooo_core.hh"
#include "obs/manifest.hh"
#include "sim/config.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace mnm;

int
main()
{
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    setRunName("table2_characteristics");
    Table table("Table 2: application characteristics (5-level machine)");
    table.setHeader({"app", "cycles[M]", "dl1 acc[M]", "il1 acc[M]",
                     "dl1 hit%", "dl2 hit%", "il1 hit%", "il2 hit%",
                     "ul3 hit%", "ul4 hit%", "ul5 hit%"});

    const bool reference_kernel = referenceKernelFromEnv();

    // One timing-core run per app; each cell returns its full row.
    // Timing runs are all-or-nothing: a failure aborts the bench with
    // the aggregate error list (unlike runSweep's gap markers).
    ParallelRunner runner(opts.jobs);
    std::vector<std::vector<double>> rows;
    try {
        rows = runner.map<std::vector<double>>(
            opts.apps.size(), [&](std::size_t a) {
                CacheHierarchy hierarchy(paperHierarchy(5));
                OooCore core(paperCpu(5), hierarchy);
                core.setReferenceKernel(reference_kernel);
                auto workload = makeSpecWorkload(opts.apps[a]);
                CpuRunStats stats =
                    core.run(*workload, opts.instructions);

                auto hit_rate = [&](const char *name) {
                    for (CacheId id = 0; id < hierarchy.numCaches();
                         ++id) {
                        if (hierarchy.cache(id).params().name == name) {
                            return 100.0 * hierarchy.cache(id)
                                               .stats()
                                               .hitRate();
                        }
                    }
                    return 0.0;
                };
                return std::vector<double>{
                    static_cast<double>(stats.cycles) / 1e6,
                    static_cast<double>(stats.loads + stats.stores) /
                        1e6,
                    static_cast<double>(stats.fetch_line_accesses) /
                        1e6,
                    hit_rate("dl1"),
                    hit_rate("dl2"),
                    hit_rate("il1"),
                    hit_rate("il2"),
                    hit_rate("ul3"),
                    hit_rate("ul4"),
                    hit_rate("ul5"),
                };
            });
    } catch (const SweepFailure &e) {
        fatal("%s", e.what());
    }

    for (std::size_t a = 0; a < opts.apps.size(); ++a)
        table.addRow(ExperimentOptions::shortName(opts.apps[a]), rows[a],
                     2);
    table.addMeanRow("Arith. Mean", 2);
    table.print(opts.csv);
    return 0;
}
