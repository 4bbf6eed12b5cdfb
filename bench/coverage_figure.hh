/**
 * @file
 * Shared driver for the coverage figures (paper Figures 10-14): each
 * figure sweeps the twenty workloads over four (or five) MNM
 * configurations on the paper's 5-level machine and reports coverage
 * percentages per app plus the arithmetic mean.
 */

#ifndef MNM_COVERAGE_FIGURE_HH
#define MNM_COVERAGE_FIGURE_HH

#include <string>
#include <vector>

#include "core/presets.hh"
#include "harness.hh"
#include "util/logging.hh"

namespace mnm
{

/** Run one coverage figure and print its table. Returns 0 on success,
 *  1 when any sweep cell failed (its cells print as "<failed>"). */
inline int
runCoverageFigure(const std::string &title,
                  const std::vector<std::string> &configs)
{
    SweepTableBench bench(title, title);
    for (const std::string &config : configs)
        bench.addVariant(config, paperHierarchy(5),
                         mnmSpecByName(config));
    bench.useVariantHeader();
    bench.runGrid();

    for (std::size_t a = 0; a < bench.numApps(); ++a) {
        std::vector<double> row;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const MemSimResult &r = bench.at(a, c);
            row.push_back(sweepCell(r, 100.0 * r.coverage.coverage()));
            if (!r.failed && r.soundness_violations != 0) {
                warn("%s on %s: %llu soundness violations",
                     configs[c].c_str(), bench.app(a).c_str(),
                     static_cast<unsigned long long>(
                         r.soundness_violations));
            }
        }
        bench.addAppRow(a, row, 1);
    }
    return bench.finish(1);
}

} // namespace mnm

#endif // MNM_COVERAGE_FIGURE_HH
