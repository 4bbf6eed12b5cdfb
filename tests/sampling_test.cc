/**
 * @file
 * Tests for the sampled-simulation methodology helper.
 */

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "sim/config.hh"
#include "sim/sampling.hh"
#include "trace/spec2000.hh"
#include "trace/workload.hh"

namespace mnm
{
namespace
{

TEST(SamplingTest, WindowAccountingAddsUp)
{
    MemorySimulator sim(paperHierarchy(5));
    auto workload = makeSpecWorkload("164.gzip");
    SamplingPlan plan;
    plan.fast_forward = 10000;
    plan.window = 5000;
    plan.windows = 4;
    plan.stride = 2000;
    SampledResult r = runSampled(sim, *workload, plan);
    EXPECT_EQ(r.combined.instructions, 4u * 5000u);
    EXPECT_EQ(r.access_time.count(), 4u);
    EXPECT_GT(r.combined.requests, 0u);
    EXPECT_GT(r.access_time.mean(), 0.0);
}

TEST(SamplingTest, FastForwardWarmsState)
{
    // With a generous fast-forward, the first measured window should
    // see a warm hierarchy: much lower access time than a cold run of
    // the same length.
    auto workload_cold = makeSpecWorkload("200.sixtrack");
    MemorySimulator cold(paperHierarchy(5));
    MemSimResult cold_r = cold.run(*workload_cold, 5000);

    auto workload_warm = makeSpecWorkload("200.sixtrack");
    MemorySimulator warm(paperHierarchy(5));
    SamplingPlan plan;
    plan.fast_forward = 100000;
    plan.window = 5000;
    plan.windows = 1;
    SampledResult warm_r = runSampled(warm, *workload_warm, plan);
    EXPECT_LT(warm_r.combined.avgAccessTime(),
              cold_r.avgAccessTime() * 0.8);
}

TEST(SamplingTest, SpreadIsSmallForSteadyWorkloads)
{
    // A single-region uniform workload has no phases: the per-window
    // spread should be tight.
    MemorySimulator sim(paperHierarchy(3));
    UniformRandomWorkload workload(64 * 1024, 0.3, 0.1, 5);
    SamplingPlan plan;
    plan.fast_forward = 50000;
    plan.window = 20000;
    plan.windows = 5;
    plan.stride = 0;
    SampledResult r = runSampled(sim, workload, plan);
    EXPECT_LT(r.accessTimeSpread(), 0.1);
}

TEST(SamplingTest, CoverageMergesAcrossWindows)
{
    MemorySimulator sim(paperHierarchy(5), makeHmnmSpec(2));
    auto workload = makeSpecWorkload("176.gcc");
    SamplingPlan plan;
    plan.fast_forward = 20000;
    plan.window = 10000;
    plan.windows = 3;
    plan.stride = 5000;
    SampledResult r = runSampled(sim, *workload, plan);
    EXPECT_GT(r.combined.coverage.opportunities(), 0u);
    EXPECT_EQ(r.coverage.count(), 3u);
    // The merged coverage must sit inside the per-window range.
    EXPECT_GE(r.combined.coverage.coverage(), r.coverage.min() - 1e-12);
    EXPECT_LE(r.combined.coverage.coverage(), r.coverage.max() + 1e-12);
}

TEST(SamplingTest, CombinedKeepsTheConfusionMatrix)
{
    // merge() used to fold only the coverage counts, leaving the
    // combined confusion matrix all zero (and its forbidden() 0 no
    // matter what happened). Coverage is a view of the matrix, so the
    // two must describe the same misses.
    MemorySimulator sim(paperHierarchy(5), makeHmnmSpec(4));
    auto workload = makeSpecWorkload("181.mcf");
    SamplingPlan plan;
    plan.fast_forward = 20000;
    plan.window = 20000;
    plan.windows = 3;
    plan.stride = 5000;
    SampledResult r = runSampled(sim, *workload, plan);
    const DecisionMatrix &d = r.combined.decisions;
    EXPECT_GT(d.totals().actualMisses(), 0u);
    EXPECT_EQ(d.totals().actualMisses(),
              r.combined.coverage.opportunities());
    EXPECT_GT(d.totals().maybe_actual_hit, 0u);
    EXPECT_EQ(d.forbidden(), r.combined.soundness_violations);
}

TEST(SamplingTest, RejectsEmptyPlan)
{
    MemorySimulator sim(paperHierarchy(3));
    UniformRandomWorkload workload(4096, 0.3, 0.1, 5);
    SamplingPlan plan;
    plan.window = 0;
    EXPECT_EXIT(runSampled(sim, workload, plan),
                ::testing::ExitedWithCode(1), "empty measurement");
}

TEST(CoverageMergeTest, CountsAdd)
{
    DecisionMatrix a;
    DecisionMatrix b;
    AccessResult r;
    r.supply_level = 3;
    r.addProbe({1, 2, true, false});
    a.record(r);
    b.record(r);
    AccessResult r2;
    r2.supply_level = 3;
    r2.addProbe({1, 2, false, false});
    b.record(r2);
    a.merge(b);
    EXPECT_EQ(a.identified(), 2u);
    EXPECT_EQ(a.unidentified(), 1u);
    EXPECT_EQ(a.identifiedAt(2), 2u);
}

} // anonymous namespace
} // namespace mnm
