/**
 * @file
 * The parallel sweep engine's contract (sim/runner.hh): parallel
 * execution is element-wise identical to the serial path, errors stay
 * in their slot without stalling the pool, and MNM_JOBS parsing.
 */

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "sim/config.hh"
#include "sim/runner.hh"

namespace mnm
{
namespace
{

/** Cells spanning the MNM techniques on a small machine/budget. */
std::vector<SweepCell>
techniqueCells()
{
    const std::uint64_t instructions = 60000;
    std::vector<SweepVariant> variants = {
        {"baseline", paperHierarchy(3), std::nullopt},
        {"RMNM", paperHierarchy(3), makeRmnmSpec(128, 1)},
        {"TMNM", paperHierarchy(3),
         makeUniformSpec(TmnmSpec{8, 2, 3})},
        {"HMNM2", paperHierarchy(5), makeHmnmSpec(2)},
    };
    return makeGridCells({"164.gzip", "181.mcf"}, variants,
                         instructions);
}

void
expectSameResult(const MemSimResult &a, const MemSimResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.data_requests, b.data_requests);
    EXPECT_EQ(a.fetch_requests, b.fetch_requests);
    EXPECT_EQ(a.total_access_cycles, b.total_access_cycles);
    EXPECT_EQ(a.miss_cycles, b.miss_cycles);
    EXPECT_EQ(a.memory_accesses, b.memory_accesses);
    EXPECT_EQ(a.soundness_violations, b.soundness_violations);
    EXPECT_EQ(a.mnm_storage_bits, b.mnm_storage_bits);
    EXPECT_EQ(a.coverage.identified(), b.coverage.identified());
    EXPECT_EQ(a.coverage.unidentified(), b.coverage.unidentified());
    for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
        SCOPED_TRACE("decision level " + std::to_string(l));
        const DecisionMatrix::Cells &da = a.decisions.at(l);
        const DecisionMatrix::Cells &db = b.decisions.at(l);
        EXPECT_EQ(da.predicted_miss_actual_miss,
                  db.predicted_miss_actual_miss);
        EXPECT_EQ(da.maybe_actual_miss, db.maybe_actual_miss);
        EXPECT_EQ(da.maybe_actual_hit, db.maybe_actual_hit);
        EXPECT_EQ(da.predicted_miss_actual_hit,
                  db.predicted_miss_actual_hit);
    }
    // Energies are sums of the same per-event terms in the same
    // (per-cell) order, so they must be bit-identical, not just close.
    EXPECT_EQ(a.energy.probe_hit_pj, b.energy.probe_hit_pj);
    EXPECT_EQ(a.energy.probe_miss_pj, b.energy.probe_miss_pj);
    EXPECT_EQ(a.energy.fill_pj, b.energy.fill_pj);
    EXPECT_EQ(a.energy.writeback_pj, b.energy.writeback_pj);
    EXPECT_EQ(a.energy.mnm_pj, b.energy.mnm_pj);
    ASSERT_EQ(a.caches.size(), b.caches.size());
    for (std::size_t i = 0; i < a.caches.size(); ++i) {
        EXPECT_EQ(a.caches[i].name, b.caches[i].name);
        EXPECT_EQ(a.caches[i].accesses, b.caches[i].accesses);
        EXPECT_EQ(a.caches[i].hits, b.caches[i].hits);
        EXPECT_EQ(a.caches[i].misses, b.caches[i].misses);
        EXPECT_EQ(a.caches[i].bypasses, b.caches[i].bypasses);
    }
}

TEST(RunnerTest, ParallelMatchesSerialElementWise)
{
    std::vector<SweepCell> cells = techniqueCells();

    ExperimentOptions serial;
    serial.jobs = 1;
    std::vector<MemSimResult> serial_results = runSweep(cells, serial);

    ExperimentOptions parallel;
    parallel.jobs = 8;
    std::vector<MemSimResult> parallel_results =
        runSweep(cells, parallel);

    ASSERT_EQ(serial_results.size(), cells.size());
    ASSERT_EQ(parallel_results.size(), cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        expectSameResult(serial_results[i], parallel_results[i]);
    }
}

TEST(RunnerTest, RepeatedParallelRunsAreDeterministic)
{
    std::vector<SweepCell> cells = techniqueCells();
    ExperimentOptions opts;
    opts.jobs = 4;
    std::vector<MemSimResult> first = runSweep(cells, opts);
    std::vector<MemSimResult> second = runSweep(cells, opts);
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        expectSameResult(first[i], second[i]);
    }
}

TEST(RunnerTest, ThrowingTaskFailsItsSlotOnly)
{
    constexpr std::size_t count = 32;
    ParallelRunner runner(8);
    std::vector<std::atomic<bool>> ran(count);
    auto errors = runner.run(count, [&](std::size_t i) {
        ran[i] = true;
        if (i == 5)
            throw std::runtime_error("cell 5 exploded");
        if (i == 17)
            throw 42; // non-std::exception payloads are captured too
    });

    ASSERT_EQ(errors.size(), count);
    for (std::size_t i = 0; i < count; ++i) {
        EXPECT_TRUE(ran[i]) << "slot " << i << " never ran";
        if (i == 5 || i == 17)
            EXPECT_TRUE(errors[i]) << "slot " << i;
        else
            EXPECT_FALSE(errors[i]) << "slot " << i;
    }
    EXPECT_THROW(std::rethrow_exception(errors[5]), std::runtime_error);
}

TEST(RunnerTest, SerialPathCapturesErrorsIdentically)
{
    ParallelRunner runner(1);
    auto errors = runner.run(3, [](std::size_t i) {
        if (i == 1)
            throw std::runtime_error("middle");
    });
    EXPECT_FALSE(errors[0]);
    EXPECT_TRUE(errors[1]);
    EXPECT_FALSE(errors[2]);
}

TEST(RunnerTest, MoreJobsThanTasks)
{
    ParallelRunner runner(16);
    std::vector<std::atomic<int>> hits(3);
    auto errors = runner.run(3, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1) << "slot " << i;
        EXPECT_FALSE(errors[i]);
    }
}

TEST(RunnerTest, EmptyTaskSetIsANoOp)
{
    ParallelRunner runner(4);
    auto errors = runner.run(0, [](std::size_t) {
        FAIL() << "no task should run";
    });
    EXPECT_TRUE(errors.empty());
}

TEST(RunnerTest, MapPreservesIndexOrder)
{
    ParallelRunner runner(8);
    std::vector<std::size_t> out = runner.map<std::size_t>(
        100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(RunnerTest, ZeroJobsMeansHardwareConcurrency)
{
    ParallelRunner runner(0);
    EXPECT_GE(runner.jobs(), 1u);
}

TEST(RunnerTest, JobsFromEnvParsesOverride)
{
    ASSERT_EQ(setenv("MNM_JOBS", "3", 1), 0);
    EXPECT_EQ(jobsFromEnv(), 3u);
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
    EXPECT_GE(jobsFromEnv(), 1u);
}

TEST(RunnerTest, ExperimentOptionsPickUpJobs)
{
    ASSERT_EQ(setenv("MNM_JOBS", "5", 1), 0);
    ASSERT_EQ(setenv("MNM_PROGRESS", "1", 1), 0);
    ExperimentOptions opts = ExperimentOptions::fromEnv();
    EXPECT_EQ(opts.jobs, 5u);
    EXPECT_TRUE(opts.progress);
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
    ASSERT_EQ(unsetenv("MNM_PROGRESS"), 0);
}

TEST(RunnerDeathTest, RejectsMalformedJobs)
{
    for (const char *value : {"zero", "-1", " 2", "2 ", "0", ""}) {
        SCOPED_TRACE(value);
        ASSERT_EQ(setenv("MNM_JOBS", value, 1), 0);
        EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                    "MNM_JOBS");
    }
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
}

TEST(RunnerDeathTest, RejectsOutOfRangeJobs)
{
    ASSERT_EQ(setenv("MNM_JOBS", "5000", 1), 0);
    EXPECT_EXIT(jobsFromEnv(), ::testing::ExitedWithCode(1),
                "out of range");
    ASSERT_EQ(unsetenv("MNM_JOBS"), 0);
}

TEST(SweepFailureTest, AggregatesEveryFailedSlot)
{
    ParallelRunner runner(4);
    auto errors = runner.run(10, [](std::size_t i) {
        if (i % 3 == 0)
            throw std::runtime_error("slot " + std::to_string(i));
    });
    try {
        ParallelRunner::throwIfAny(errors, [](std::size_t i) {
            return "cell-" + std::to_string(i);
        });
        FAIL() << "throwIfAny swallowed the failures";
    } catch (const SweepFailure &e) {
        // Indices 0, 3, 6, 9 -- all of them, in index order, with the
        // caller's labels and the original messages.
        ASSERT_EQ(e.failures().size(), 4u);
        EXPECT_EQ(e.failures()[0].index, 0u);
        EXPECT_EQ(e.failures()[1].index, 3u);
        EXPECT_EQ(e.failures()[2].index, 6u);
        EXPECT_EQ(e.failures()[3].index, 9u);
        EXPECT_EQ(e.failures()[1].label, "cell-3");
        EXPECT_EQ(e.failures()[1].message, "slot 3");
        // what() leads with the count so a log line tells the story.
        EXPECT_NE(std::string(e.what()).find("4 tasks failed"),
                  std::string::npos);
    }
}

TEST(SweepFailureTest, ThrowIfAnyIsANoOpWhenClean)
{
    std::vector<std::exception_ptr> clean(5);
    EXPECT_NO_THROW(ParallelRunner::throwIfAny(clean));
}

TEST(SweepFailureTest, MapThrowsWithDefaultLabels)
{
    ParallelRunner runner(2);
    try {
        runner.map<int>(4, [](std::size_t i) {
            if (i == 2)
                throw std::runtime_error("boom");
            return static_cast<int>(i);
        });
        FAIL() << "map swallowed the failure";
    } catch (const SweepFailure &e) {
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].label, "task 2");
        EXPECT_EQ(e.failures()[0].message, "boom");
    }
}

TEST(RunnerTest, FailedCellDegradesGracefully)
{
    std::vector<SweepCell> cells = techniqueCells();

    ExperimentOptions opts;
    opts.jobs = 4;
    opts.retries = 0;
    opts.fail_cell.match = "181.mcf · RMNM";
    std::vector<MemSimResult> results = runSweep(cells, opts);

    // Exactly one cell is marked failed; every other cell completed
    // and matches an unperturbed run.
    ExperimentOptions clean;
    clean.jobs = 1;
    std::vector<MemSimResult> reference = runSweep(cells, clean);
    ASSERT_EQ(results.size(), cells.size());
    std::size_t failed = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        SCOPED_TRACE(cells[i].app + " · " + cells[i].label);
        if (results[i].failed) {
            ++failed;
            EXPECT_EQ(cells[i].app, "181.mcf");
            EXPECT_EQ(cells[i].label, "RMNM");
            EXPECT_NE(results[i].fail_reason.find("injected failure"),
                      std::string::npos);
        } else {
            expectSameResult(results[i], reference[i]);
        }
    }
    EXPECT_EQ(failed, 1u);
    EXPECT_EQ(sweepExitCode(), 1);
}

TEST(RunnerTest, TransientFailureIsRetried)
{
    std::vector<SweepCell> cells = techniqueCells();
    cells.resize(1);

    std::atomic<unsigned> attempts{0};
    setSweepFaultHookForTest([&](const SweepCell &, unsigned attempt) {
        ++attempts;
        if (attempt == 0)
            throw std::runtime_error("transient");
    });
    ExperimentOptions opts;
    opts.jobs = 1;
    opts.retries = 1;
    std::vector<MemSimResult> results = runSweep(cells, opts);
    setSweepFaultHookForTest(nullptr);

    EXPECT_EQ(attempts.load(), 2u);
    EXPECT_FALSE(results[0].failed);
    EXPECT_GT(results[0].instructions, 0u);
}

TEST(RunnerTest, WatchdogTimeoutFailsCellWithoutRetry)
{
    std::vector<SweepCell> cells = techniqueCells();
    cells.resize(1);

    std::atomic<unsigned> attempts{0};
    setSweepFaultHookForTest(
        [&](const SweepCell &, unsigned) { ++attempts; });
    ExperimentOptions opts;
    opts.jobs = 1;
    opts.retries = 3;
    opts.cell_timeout_s = 1e-6; // expires before the first poll
    std::vector<MemSimResult> results = runSweep(cells, opts);
    setSweepFaultHookForTest(nullptr);

    EXPECT_TRUE(results[0].failed);
    EXPECT_NE(results[0].fail_reason.find("watchdog"),
              std::string::npos);
    // Timeouts are never retried: a second attempt would only burn
    // another timeout's worth of wall clock.
    EXPECT_EQ(attempts.load(), 1u);

    // The worker's deadline is disarmed; a follow-up sweep on the
    // same thread runs to completion.
    ExperimentOptions clean;
    clean.jobs = 1;
    std::vector<MemSimResult> ok = runSweep(cells, clean);
    EXPECT_FALSE(ok[0].failed);
}

} // anonymous namespace
} // namespace mnm
