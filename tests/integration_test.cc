/**
 * @file
 * End-to-end integration tests on the paper's full 5-level machine:
 * coverage, execution-time reduction (parallel MNM), power reduction
 * (serial MNM), and the qualitative orderings the paper reports.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "cpu/ooo_core.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/memory_sim.hh"
#include "trace/spec2000.hh"

namespace mnm
{
namespace
{

constexpr std::uint64_t insts = 60000;

/** Execution cycles for one app under an optional MNM (parallel). */
Cycles
runCycles(const std::string &app, const std::string &config)
{
    CacheHierarchy h(paperHierarchy(5));
    std::unique_ptr<MnmUnit> mnm;
    if (!config.empty()) {
        MnmSpec spec = mnmSpecByName(config);
        spec.placement = MnmPlacement::Parallel;
        mnm = std::make_unique<MnmUnit>(spec, h);
    }
    OooCore core(paperCpu(5), h, mnm.get());
    auto w = makeSpecWorkload(app);
    return core.run(*w, insts).cycles;
}

TEST(IntegrationTest, Hmnm4CoverageSubstantialOnAverage)
{
    // The paper's HMNM4 averages ~53% coverage. Our workloads differ,
    // so require "substantial": mean over a few apps above 25%.
    double sum = 0.0;
    int n = 0;
    for (const char *app : {"164.gzip", "181.mcf", "255.vortex",
                            "171.swim", "301.apsi"}) {
        MnmSpec spec = makeHmnmSpec(4);
        MemSimResult r =
            runFunctional(paperHierarchy(5), spec, app, insts);
        sum += r.coverage.coverage();
        ++n;
        EXPECT_EQ(r.soundness_violations, 0u) << app;
    }
    EXPECT_GT(sum / n, 0.25);
}

TEST(IntegrationTest, HybridBeatsItsComponentsOnAverage)
{
    double hmnm = 0.0, tmnm = 0.0, smnm = 0.0;
    for (const char *app : {"176.gcc", "181.mcf", "255.vortex"}) {
        hmnm += runFunctional(paperHierarchy(5), makeHmnmSpec(4), app,
                              insts)
                    .coverage.coverage();
        tmnm += runFunctional(paperHierarchy(5),
                              mnmSpecByName("TMNM_10x1"), app, insts)
                    .coverage.coverage();
        smnm += runFunctional(paperHierarchy(5),
                              mnmSpecByName("SMNM_10x2"), app, insts)
                    .coverage.coverage();
    }
    EXPECT_GT(hmnm, tmnm);
    EXPECT_GT(hmnm, smnm);
}

TEST(IntegrationTest, ParallelMnmReducesExecutionCycles)
{
    for (const char *app : {"181.mcf", "176.gcc", "179.art"}) {
        Cycles base = runCycles(app, "");
        Cycles hmnm4 = runCycles(app, "HMNM4");
        Cycles perfect = runCycles(app, "Perfect");
        EXPECT_LE(hmnm4, base) << app;
        EXPECT_LE(perfect, hmnm4) << app;
        EXPECT_LT(perfect, base) << app; // strictly better somewhere
    }
}

TEST(IntegrationTest, SerialMnmReducesCachePower)
{
    for (const char *app : {"181.mcf", "255.vortex"}) {
        MemSimResult base =
            runFunctional(paperHierarchy(5), std::nullopt, app, insts);
        MnmSpec spec = makeHmnmSpec(4);
        spec.placement = MnmPlacement::Serial;
        MemSimResult shielded =
            runFunctional(paperHierarchy(5), spec, app, insts);
        // Total energy including the MNM's own must drop.
        EXPECT_LT(shielded.energy.total(), base.energy.total()) << app;
    }
}

TEST(IntegrationTest, PerfectBoundsThePowerSaving)
{
    const char *app = "181.mcf";
    MemSimResult base =
        runFunctional(paperHierarchy(5), std::nullopt, app, insts);
    MnmSpec hmnm = makeHmnmSpec(4);
    hmnm.placement = MnmPlacement::Serial;
    MemSimResult real =
        runFunctional(paperHierarchy(5), hmnm, app, insts);
    MnmSpec perfect = makePerfectSpec();
    perfect.placement = MnmPlacement::Serial;
    MemSimResult oracle =
        runFunctional(paperHierarchy(5), perfect, app, insts);
    double save_real = base.energy.total() - real.energy.total();
    double save_oracle = base.energy.total() - oracle.energy.total();
    EXPECT_GE(save_oracle, save_real);
}

TEST(IntegrationTest, MissTimeFractionGrowsWithLevels)
{
    // Figure 2's headline shape, averaged over a few apps.
    double frac3 = 0.0, frac5 = 0.0;
    for (const char *app : {"181.mcf", "176.gcc", "171.swim"}) {
        frac3 += runFunctional(paperHierarchy(3), std::nullopt, app,
                               insts)
                     .missTimeFraction();
        frac5 += runFunctional(paperHierarchy(5), std::nullopt, app,
                               insts)
                     .missTimeFraction();
    }
    EXPECT_GT(frac5, frac3);
}

TEST(IntegrationTest, Table2HitRatesSpanTheSpectrum)
{
    // The workload suite must include near-L1-resident apps and
    // memory-bound apps for the figures to be meaningful.
    double best_l1 = 0.0;
    double worst_l5 = 1.0;
    for (const char *app : {"200.sixtrack", "300.twolf", "181.mcf",
                            "179.art"}) {
        MemSimResult r =
            runFunctional(paperHierarchy(5), std::nullopt, app, insts);
        for (const CacheSnapshot &c : r.caches) {
            if (c.name == "dl1")
                best_l1 = std::max(best_l1, c.hit_rate);
            if (c.name == "ul5" && c.accesses > 100)
                worst_l5 = std::min(worst_l5, c.hit_rate);
        }
    }
    EXPECT_GT(best_l1, 0.9);  // some app lives in L1
    EXPECT_LT(worst_l5, 0.9); // some app leaks past L5
}

TEST(IntegrationTest, ExperimentOptionsParseEnvironment)
{
    setenv("MNM_INSTRUCTIONS", "12345", 1);
    setenv("MNM_APPS", "gzip,181.mcf", 1);
    setenv("MNM_CSV", "1", 1);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    EXPECT_EQ(opts.instructions, 12345u);
    ASSERT_EQ(opts.apps.size(), 2u);
    EXPECT_EQ(opts.apps[0], "164.gzip");
    EXPECT_EQ(opts.apps[1], "181.mcf");
    EXPECT_TRUE(opts.csv);
    unsetenv("MNM_INSTRUCTIONS");
    unsetenv("MNM_APPS");
    unsetenv("MNM_CSV");

    ExperimentOptions defaults = ExperimentOptions::fromEnv();
    EXPECT_EQ(defaults.instructions, 2'000'000u);
    EXPECT_EQ(defaults.apps.size(), 20u);
    EXPECT_FALSE(defaults.csv);
}

TEST(IntegrationTest, ShortNames)
{
    EXPECT_EQ(ExperimentOptions::shortName("164.gzip"), "gzip");
    EXPECT_EQ(ExperimentOptions::shortName("plain"), "plain");
}

TEST(IntegrationDeathTest, RejectsMalformedReferenceKnobs)
{
    // runFunctional latches both knobs on first use; the threadsafe
    // style re-executes the binary, so each child parses afresh.
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
    for (const char *knob : {"MNM_REFERENCE_KERNEL", "MNM_REFERENCE_FEED"}) {
        for (const char *value : {"off", "yes", "", "10"}) {
            SCOPED_TRACE(std::string(knob) + "=" + value);
            ASSERT_EQ(setenv(knob, value, 1), 0);
            EXPECT_EXIT(runFunctional(paperHierarchy(5), std::nullopt,
                                      "164.gzip", 1000),
                        ::testing::ExitedWithCode(1), knob);
            ASSERT_EQ(unsetenv(knob), 0);
        }
    }
}

} // anonymous namespace
} // namespace mnm
