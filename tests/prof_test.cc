/**
 * @file
 * The phase-attribution layer's contract (obs/phase_profiler,
 * obs/perf_counters): exclusive-time nesting and reentrancy, the
 * counter-group fallback ladder, the manifest's prof section, the
 * MNM_PROF* knob validation, and -- above all -- purity: with the knobs
 * unset the profiler accumulates nothing and writes nothing, so every
 * bench's stdout stays byte-identical.
 */

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "cpu/ooo_core.hh"
#include "obs/manifest.hh"
#include "obs/perf_counters.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/memory_sim.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"
#include "util/cpu.hh"

namespace mnm
{
namespace
{

/** Spin until the fast tick has visibly advanced, so every bracketed
 *  region accumulates a nonzero tick delta regardless of timer
 *  granularity. */
void
spinTicks()
{
    const std::uint64_t start = profFastTick();
    while (profFastTick() - start < 1000) {
    }
}

int
phaseIdx(Phase p)
{
    return static_cast<int>(p);
}

/** RAII guard: every test leaves the profiler off and empty. */
struct ProfReset
{
    ProfReset() { resetPhaseProfilerForTest(); }
    ~ProfReset() { resetPhaseProfilerForTest(); }
};

TEST(ProfTest, ParseProfModeAcceptsTheThreeModes)
{
    EXPECT_EQ(parseProfMode(nullptr), ProfMode::Off);
    EXPECT_EQ(parseProfMode(""), ProfMode::Off);
    EXPECT_EQ(parseProfMode("off"), ProfMode::Off);
    EXPECT_EQ(parseProfMode("time"), ProfMode::Time);
    EXPECT_EQ(parseProfMode("hw"), ProfMode::Hw);
    EXPECT_STREQ(profModeName(ProfMode::Off), "off");
    EXPECT_STREQ(profModeName(ProfMode::Time), "time");
    EXPECT_STREQ(profModeName(ProfMode::Hw), "hw");
}

TEST(ProfTest, MalformedProfModeDies)
{
    EXPECT_EXIT(parseProfMode("cycles"),
                ::testing::ExitedWithCode(1), "MNM_PROF");
    EXPECT_EXIT(parseProfMode("TIME"),
                ::testing::ExitedWithCode(1), "MNM_PROF");
}

TEST(ProfTest, FoldedWithoutModeDies)
{
    // MNM_PROF_FOLDED without an active MNM_PROF would silently collect
    // nothing; the knob convention makes that loud.
    EXPECT_EXIT(
        {
            setenv("MNM_PROF_FOLDED", "/tmp/out.folded", 1);
            unsetenv("MNM_PROF");
            resetPhaseProfilerForTest();
            initPhaseProfiler();
        },
        ::testing::ExitedWithCode(1), "MNM_PROF_FOLDED");
}

TEST(ProfTest, HwModeResolvesOrFallsBackOnce)
{
    ProfReset guard;
    setenv("MNM_PROF", "hw", 1);
    unsetenv("MNM_PROF_FOLDED");
    initPhaseProfiler();
    unsetenv("MNM_PROF");
    ASSERT_TRUE(profActive());
    if (perfCountersAvailable()) {
        EXPECT_EQ(profMode(), ProfMode::Hw);
        EXPECT_FALSE(profHwFellBack());
    } else {
        // The degrade path: the request survives as time attribution.
        EXPECT_EQ(profMode(), ProfMode::Time);
        EXPECT_TRUE(profHwFellBack());
    }
}

TEST(ProfTest, OffMeansNothingAccumulates)
{
    ProfReset guard;
    EXPECT_FALSE(profActive());
    {
        PhaseScope run(Phase::Run);
        PhaseScope verdict(Phase::Verdict);
        spinTicks();
    }
    const PhaseTotals totals = threadPhaseTotals();
    for (int p = 0; p < num_phases; ++p) {
        EXPECT_EQ(totals.phase[p].ticks, 0u);
        EXPECT_EQ(totals.phase[p].transitions, 0u);
    }
}

TEST(ProfTest, NestingAttributesExclusiveTime)
{
    ProfReset guard;
    setProfModeForTest(ProfMode::Time);
    {
        PhaseScope run(Phase::Run);
        spinTicks();
        {
            PhaseScope verdict(Phase::Verdict);
            spinTicks();
            {
                // Reentrancy: the same phase nested in itself keeps
                // charging that phase, and both enters count.
                PhaseScope again(Phase::Verdict);
                spinTicks();
            }
        }
        {
            PhaseScope feed(Phase::UpdateFeed);
            spinTicks();
        }
        spinTicks();
    }
    const PhaseTotals totals = threadPhaseTotals();
    EXPECT_EQ(totals.phase[phaseIdx(Phase::Run)].transitions, 1u);
    EXPECT_EQ(totals.phase[phaseIdx(Phase::Verdict)].transitions, 2u);
    EXPECT_EQ(totals.phase[phaseIdx(Phase::UpdateFeed)].transitions, 1u);
    EXPECT_GT(totals.phase[phaseIdx(Phase::Run)].ticks, 0u);
    EXPECT_GT(totals.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_GT(totals.phase[phaseIdx(Phase::UpdateFeed)].ticks, 0u);
    // Exclusive attribution: phases never bracketed stay empty.
    EXPECT_EQ(totals.phase[phaseIdx(Phase::BatchGen)].ticks, 0u);
    EXPECT_EQ(totals.phase[phaseIdx(Phase::Cold)].ticks, 0u);
    EXPECT_EQ(totals.totalTicks(),
              totals.phase[phaseIdx(Phase::Run)].ticks +
                  totals.phase[phaseIdx(Phase::Verdict)].ticks +
                  totals.phase[phaseIdx(Phase::UpdateFeed)].ticks);
}

TEST(ProfTest, DeltaIsolatesAWindow)
{
    ProfReset guard;
    setProfModeForTest(ProfMode::Time);
    {
        PhaseScope run(Phase::Run);
        spinTicks();
    }
    const PhaseTotals before = threadPhaseTotals();
    {
        PhaseScope verdict(Phase::Verdict);
        spinTicks();
    }
    const PhaseTotals delta =
        phaseTotalsDelta(before, threadPhaseTotals());
    EXPECT_EQ(delta.phase[phaseIdx(Phase::Run)].ticks, 0u);
    EXPECT_EQ(delta.phase[phaseIdx(Phase::Run)].transitions, 0u);
    EXPECT_GT(delta.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_EQ(delta.phase[phaseIdx(Phase::Verdict)].transitions, 1u);
}

TEST(ProfTest, CounterGroupFallsBackGracefully)
{
    PerfCounterGroup group;
    PerfSample sample;
    if (!group.open()) {
        // The container/non-Linux path: never ok, read reports failure
        // and zeroes the sample instead of leaving garbage.
        EXPECT_FALSE(group.ok());
        EXPECT_FALSE(group.read(sample));
        EXPECT_EQ(sample.cycles, 0u);
        EXPECT_EQ(sample.instructions, 0u);
        EXPECT_FALSE(perfCountersAvailable());
        return;
    }
    ASSERT_TRUE(group.ok());
    ASSERT_TRUE(group.read(sample));
    spinTicks();
    PerfSample later;
    ASSERT_TRUE(group.read(later));
    // Mandatory counters advance across a busy window; monotone totals.
    EXPECT_GT(later.cycles, sample.cycles);
    EXPECT_GT(later.instructions, sample.instructions);
    EXPECT_GE(later.task_clock_ns, sample.task_clock_ns);
    group.close();
    EXPECT_FALSE(group.ok());
    EXPECT_TRUE(perfCountersAvailable());
}

TEST(ProfTest, FoldedStacksRecordThePaths)
{
    ProfReset guard;
    setProfModeForTest(ProfMode::Time);
    {
        PhaseScope run(Phase::Run);
        spinTicks();
        PhaseScope verdict(Phase::Verdict);
        spinTicks();
    }
    flushThreadProf();
    std::ostringstream out;
    EXPECT_EQ(writeFoldedStacks(out), 2u);
    const std::string text = out.str();
    EXPECT_NE(text.find("mnm;run "), std::string::npos);
    EXPECT_NE(text.find("mnm;run;verdict "), std::string::npos);
}

TEST(ProfTest, ManifestCarriesTheProfSection)
{
    ProfReset guard;
    setProfModeForTest(ProfMode::Time);
    globalStats().clear();
    {
        PhaseScope run(Phase::Run);
        spinTicks();
        PhaseScope verdict(Phase::Verdict);
        spinTicks();
    }
    std::ostringstream doc_stream;
    writeRunManifest(doc_stream);
    const std::string doc = doc_stream.str();
    EXPECT_NE(doc.find("\"schema\": \"mnm-run-manifest-v2\""),
              std::string::npos);
    // Schema: metrics.prof.<phase>.{cycles,instr,llc_miss,share,...}
    // plus the mode/fallback/tick markers.
    for (const char *key :
         {"\"prof\":", "\"run\":", "\"verdict\":", "\"cycles\":",
          "\"instr\":", "\"llc_miss\":", "\"share\":", "\"ticks\":",
          "\"transitions\":", "\"mode\":", "\"hw_fallback\":",
          "\"tick_hz\":"}) {
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    }
    globalStats().clear();
}

TEST(ProfTest, SweepAttributesPerCellAndNothingOnStdout)
{
    ProfReset guard;
    setProfModeForTest(ProfMode::Time);
    globalStats().clear();

    std::vector<SweepVariant> variants = {
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    std::vector<SweepCell> cells =
        makeGridCells({"164.gzip"}, variants, 30000);
    ExperimentOptions opts;
    opts.jobs = 2; // exercise the worker-thread flush path

    ::testing::internal::CaptureStdout();
    runSweep(cells, opts);
    foldProfGlobal(globalStats());
    // Purity: the profiler speaks only through manifests/trace/stderr.
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");

    StatsRegistry &stats = globalStats();
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.verdict.cycles"));
    // Batched feed: the update side drains under feed_drain (the
    // update_feed phase only runs on the reference interpreter).
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.feed_drain.share"));
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.hier_walk.ticks"));
    // The pool flushed its worker profile into the global aggregate.
    const PhaseTotals global = globalPhaseTotals();
    EXPECT_GT(global.phase[phaseIdx(Phase::Run)].transitions, 0u);
    EXPECT_GT(global.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_GT(global.phase[phaseIdx(Phase::FeedDrain)].ticks, 0u);
    globalStats().clear();
}

TEST(ProfTest, WorkerProcessesShipAttributionOverTheResultPipe)
{
    ProfReset guard;
    setProfModeForTest(ProfMode::Time);
    globalStats().clear();

    std::vector<SweepVariant> variants = {
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    std::vector<SweepCell> cells =
        makeGridCells({"164.gzip", "181.mcf"}, variants, 30000);
    ExperimentOptions opts;
    opts.workers = 2; // process pool: prof crosses a fork boundary

    ::testing::internal::CaptureStdout();
    runSweep(cells, opts);
    EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");

    // The workers measured each cell in their own process and shipped
    // the delta home in the response frame; the supervisor folded it
    // into the same prof.cell.* / prof.worker.w<k>.* metrics the
    // thread pool produces.
    StatsRegistry &stats = globalStats();
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.verdict.cycles"));
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.gzip.feed_drain.share"));
    EXPECT_TRUE(stats.has("prof.cell.HMNM2.mcf.hier_walk.ticks"));
    EXPECT_TRUE(stats.has("prof.worker.w0.run.ticks") ||
                stats.has("prof.worker.w1.run.ticks"));
    globalStats().clear();
}

TEST(ProfTest, SimulationIsByteIdenticalUnderProfiling)
{
    ProfReset guard;
    // The functional results a bench prints must not depend on the
    // profiling mode: the scopes only observe.
    MemSimResult off_result;
    {
        resetPhaseProfilerForTest();
        auto workload = makeSpecWorkload("164.gzip");
        MemorySimulator sim(paperHierarchy(5), makeHmnmSpec(2));
        off_result = sim.run(*workload, 30000);
    }
    MemSimResult on_result;
    {
        resetPhaseProfilerForTest();
        setProfModeForTest(ProfMode::Time);
        auto workload = makeSpecWorkload("164.gzip");
        MemorySimulator sim(paperHierarchy(5), makeHmnmSpec(2));
        on_result = sim.run(*workload, 30000);
    }
    EXPECT_EQ(off_result.requests, on_result.requests);
    EXPECT_EQ(off_result.total_access_cycles,
              on_result.total_access_cycles);
    EXPECT_EQ(off_result.miss_cycles, on_result.miss_cycles);
    EXPECT_EQ(off_result.memory_accesses, on_result.memory_accesses);
    EXPECT_EQ(off_result.coverage.identified(),
              on_result.coverage.identified());
}

TEST(ProfTest, TimingCoreAttributesGenerationAndThePeek)
{
    ProfReset guard;
    // OooCore::run's fast path picks the access engine's with_prof
    // instantiation, so the timing core reports the same phases as the
    // functional simulator -- and times exactly as it does unprofiled.
    auto timed_run = [] {
        CacheHierarchy hierarchy(paperHierarchy(5));
        MnmUnit mnm(makeHmnmSpec(4), hierarchy);
        OooCore core(paperCpu(5), hierarchy, &mnm);
        auto workload = makeSpecWorkload("181.mcf");
        return core.run(*workload, 20000);
    };
    const CpuRunStats off = timed_run();

    setProfModeForTest(ProfMode::Time);
    const PhaseTotals before = threadPhaseTotals();
    const CpuRunStats on = timed_run();
    const PhaseTotals delta =
        phaseTotalsDelta(before, threadPhaseTotals());
    EXPECT_GT(delta.phase[phaseIdx(Phase::Run)].ticks, 0u);
    EXPECT_GT(delta.phase[phaseIdx(Phase::BatchGen)].ticks, 0u);
    EXPECT_GT(delta.phase[phaseIdx(Phase::L1Peek)].ticks, 0u);
    EXPECT_GT(delta.phase[phaseIdx(Phase::Verdict)].ticks, 0u);
    EXPECT_GT(delta.phase[phaseIdx(Phase::LaneDescent)].ticks, 0u);
    EXPECT_EQ(off.cycles, on.cycles);
    EXPECT_EQ(off.data_access_cycles, on.data_access_cycles);
    EXPECT_EQ(off.fetch_line_accesses, on.fetch_line_accesses);
}

} // anonymous namespace
} // namespace mnm
