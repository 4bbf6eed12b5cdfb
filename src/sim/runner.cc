#include "sim/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>

#include "core/fault_inject.hh"
#include "obs/manifest.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "sim/proc_pool.hh"
#include "sim/recovery.hh"
#include "util/deadline.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

unsigned
hardwareJobs()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

/** Worker index of the calling thread (0 outside a pool). */
unsigned &
workerSlot()
{
    thread_local unsigned slot = 0;
    return slot;
}

std::uint64_t
steadyNowUs()
{
    using namespace std::chrono;
    return static_cast<std::uint64_t>(duration_cast<microseconds>(
        steady_clock::now().time_since_epoch()).count());
}

} // anonymous namespace

unsigned
jobsFromEnv()
{
    const char *env = std::getenv("MNM_JOBS");
    if (!env)
        return hardwareJobs();
    return static_cast<unsigned>(parseEnvU64("MNM_JOBS", env, 1, 4096));
}

SweepFailure::SweepFailure(std::vector<Failure> failures)
    : std::runtime_error(summarize(failures)),
      failures_(std::move(failures))
{
}

std::string
SweepFailure::summarize(const std::vector<Failure> &failures)
{
    if (failures.empty())
        return "sweep failure (no recorded cells)";
    std::string out = std::to_string(failures.size()) +
                      (failures.size() == 1 ? " task failed: "
                                            : " tasks failed; first: ") +
                      failures.front().label + ": " +
                      failures.front().message;
    return out;
}

std::vector<SweepCell>
makeGridCells(const std::vector<std::string> &apps,
              const std::vector<SweepVariant> &variants,
              std::uint64_t instructions)
{
    std::vector<SweepCell> cells;
    cells.reserve(apps.size() * variants.size());
    for (const std::string &app : apps) {
        for (const SweepVariant &variant : variants) {
            cells.push_back({app, variant.hierarchy, variant.mnm,
                             instructions, variant.label});
        }
    }
    return cells;
}

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs ? jobs : hardwareJobs())
{
}

std::vector<std::exception_ptr>
ParallelRunner::run(std::size_t count,
                    const std::function<void(std::size_t)> &task) const
{
    std::vector<std::exception_ptr> errors(count);
    auto attempt = [&](std::size_t i) {
        try {
            task(i);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    if (jobs_ <= 1 || count <= 1) {
        // Legacy serial path: no threads, no atomics.
        for (std::size_t i = 0; i < count; ++i)
            attempt(i);
        return errors;
    }

    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
             i < count;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
            attempt(i);
        }
    };
    std::size_t spawn = std::min<std::size_t>(jobs_, count);
    {
        std::vector<std::jthread> pool;
        pool.reserve(spawn);
        for (std::size_t t = 0; t < spawn; ++t) {
            pool.emplace_back([&, t] {
                workerSlot() = static_cast<unsigned>(t);
                worker();
                if (profActive()) {
                    // Per-worker attribution, then hand the thread's
                    // profile to the global aggregate before joining
                    // (a worker that never flushes contributes
                    // nothing to the manifest's prof.* totals).
                    foldPhaseTotals(globalStats(), threadPhaseTotals(),
                                    "prof.worker.w" + std::to_string(t));
                    flushThreadProf();
                }
            });
        }
    } // joins every worker; errors[] is complete past this point
    return errors;
}

void
ParallelRunner::throwIfAny(
    const std::vector<std::exception_ptr> &errors,
    const std::function<std::string(std::size_t)> &label)
{
    std::vector<SweepFailure::Failure> failures;
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (!errors[i])
            continue;
        SweepFailure::Failure failure;
        failure.index = i;
        failure.label = label ? label(i) : "task " + std::to_string(i);
        try {
            std::rethrow_exception(errors[i]);
        } catch (const std::exception &e) {
            failure.message = e.what();
        } catch (...) {
            failure.message = "non-standard exception";
        }
        failures.push_back(std::move(failure));
    }
    if (!failures.empty())
        throw SweepFailure(std::move(failures));
}

unsigned
ParallelRunner::currentWorker()
{
    return workerSlot();
}

std::string
sweepCellDisplayName(const SweepCell &cell)
{
    return cell.label.empty() ? cell.app : cell.app + " · " + cell.label;
}

const char *
sweepFailCauseName(SweepFailCause cause)
{
    switch (cause) {
    case SweepFailCause::Crash:
        return "crash";
    case SweepFailCause::Timeout:
        return "timeout";
    case SweepFailCause::RetryExhausted:
        return "retry_exhausted";
    case SweepFailCause::Poison:
        return "poison";
    }
    return "unknown";
}

namespace
{

/** Process-wide "some sweep cell failed" flag behind sweepExitCode(). */
std::atomic<bool> g_sweep_failed{false};

std::function<void(const SweepCell &, unsigned)> g_fault_hook;

/** Registry prefix for one cell's simulation metrics. */
std::string
cellMetricPrefix(const SweepCell &cell)
{
    std::string label = cell.label.empty() ? "default" : cell.label;
    return "sweep." + sanitizeMetricSegment(label) + "." +
           sanitizeMetricSegment(ExperimentOptions::shortName(cell.app));
}

/**
 * Fold one finished sweep into the process-wide registry (and, when
 * MNM_TRACE_FILE is live, the trace buffer). Runs on the calling thread
 * after the pool has drained, visiting cells in index order, so the
 * folded totals are identical at any MNM_JOBS value; only the
 * "runner.*" wall-clock subtree varies between runs.
 */
void
foldSweepTelemetry(const std::vector<SweepCell> &cells,
                   const std::vector<MemSimResult> &results,
                   const std::vector<SweepCellTiming> &timing,
                   const std::vector<PhaseTotals> &cell_prof,
                   std::uint64_t sweep_start_us, std::uint64_t wall_us,
                   unsigned jobs)
{
    StatsRegistry &stats = globalStats();
    RunningStat &cell_wall = stats.runningStat("runner.cell_wall_ms");
    RunningStat &cell_queue = stats.runningStat("runner.cell_queue_ms");
    std::uint64_t busy_us = 0;

    for (std::size_t i = 0; i < cells.size(); ++i) {
        const SweepCell &cell = cells[i];
        const MemSimResult &r = results[i];
        std::string prefix = cellMetricPrefix(cell);
        if (!r.failed) {
            stats.addCounter(prefix + ".instructions", r.instructions);
            stats.addCounter(prefix + ".requests", r.requests);
            stats.addCounter(prefix + ".memory_accesses",
                             r.memory_accesses);
            if (cell.mnm) {
                stats.addCounter(prefix + ".soundness_violations",
                                 r.soundness_violations);
            }
            r.decisions.registerInto(stats, prefix + ".confusion");
        }

        // Replayed and failed cells have no meaningful wall clock.
        const SweepCellTiming &t = timing[i];
        if (!t.ran)
            continue;
        busy_us += t.dur_us;
        cell_wall.add(static_cast<double>(t.dur_us) / 1000.0);
        cell_queue.add(
            static_cast<double>(t.start_us - sweep_start_us) / 1000.0);

        // Per-cell kernel throughput. Lives under "runner." (not the
        // cell's "sweep." prefix) because it is wall-clock derived:
        // the manifest diff in CI ignores the runner subtree.
        if (!r.failed && t.dur_us > 0) {
            std::string label =
                cell.label.empty() ? "default" : cell.label;
            stats.setGauge(
                "runner." + sanitizeMetricSegment(label) + "." +
                    sanitizeMetricSegment(
                        ExperimentOptions::shortName(cell.app)) +
                    ".instr_per_sec",
                static_cast<double>(r.instructions) * 1e6 /
                    static_cast<double>(t.dur_us));
        }

        // Per-cell phase attribution. Lives under "prof.cell." (not the
        // cell's "sweep." prefix) because it is wall-clock derived: the
        // manifest diff in CI ignores the prof subtree.
        if (!r.failed && profActive()) {
            std::string label =
                cell.label.empty() ? "default" : cell.label;
            foldPhaseTotals(
                stats, cell_prof[i],
                "prof.cell." + sanitizeMetricSegment(label) + "." +
                    sanitizeMetricSegment(
                        ExperimentOptions::shortName(cell.app)));
        }

        if (traceFileEnabled()) {
            std::string name = ExperimentOptions::shortName(cell.app);
            if (!cell.label.empty())
                name += " · " + cell.label;
            globalTrace().addCompleteEvent(
                name, "sweep", t.worker, t.start_us, t.dur_us,
                {{"app", cell.app}, {"label", cell.label}});

            // Phase sub-spans inside the cell's span: each phase's
            // share of the cell's ticks scaled onto its wall clock,
            // laid end to end. Not a timeline of when each phase ran
            // (they interleave per request) but a to-scale breakdown
            // in the same viewer.
            if (!r.failed && profActive()) {
                const std::uint64_t total =
                    cell_prof[i].totalTicks();
                std::uint64_t off_us = 0;
                for (int p = 0; total && p < num_phases; ++p) {
                    const std::uint64_t ticks =
                        cell_prof[i].phase[p].ticks;
                    if (!ticks)
                        continue;
                    const std::uint64_t dur = static_cast<std::uint64_t>(
                        static_cast<double>(t.dur_us) *
                        static_cast<double>(ticks) /
                        static_cast<double>(total));
                    globalTrace().addCompleteEvent(
                        phaseName(static_cast<Phase>(p)), "prof",
                        t.worker, t.start_us + off_us, dur,
                        {{"cell", name}});
                    off_us += dur;
                }
            }
        }
    }

    stats.addCounter("runner.sweeps", 1);
    stats.addCounter("runner.cells", cells.size());
    stats.setGauge("runner.jobs", static_cast<double>(jobs));
    stats.setGauge("runner.wall_ms",
                   static_cast<double>(wall_us) / 1000.0);
    // Fraction of the pool's lane-time spent inside cells: busy time
    // over wall time times the lanes that could have been busy.
    std::size_t lanes =
        std::min<std::size_t>(jobs ? jobs : 1,
                              std::max<std::size_t>(cells.size(), 1));
    double lane_time_us =
        static_cast<double>(wall_us) * static_cast<double>(lanes);
    stats.setGauge("runner.utilization",
                   lane_time_us > 0.0
                       ? static_cast<double>(busy_us) / lane_time_us
                       : 0.0);
}

} // anonymous namespace

void
recordSweepCellFailure(const SweepCell &cell, std::size_t index,
                       SweepFailCause cause, const std::string &reason,
                       MemSimResult &result)
{
    result = MemSimResult{};
    result.failed = true;
    result.fail_reason = reason;
    warn("sweep cell %zu (%s) failed [%s]: %s", index,
         sweepCellDisplayName(cell).c_str(), sweepFailCauseName(cause),
         reason.c_str());
    StatsRegistry &stats = globalStats();
    stats.addCounter("runner.failures.total", 1);
    stats.addCounter(std::string("runner.failures.by_cause.") +
                         sweepFailCauseName(cause),
                     1);
    stats.addCounter(
        "runner.failures." +
            sanitizeMetricSegment(cell.label.empty() ? "default"
                                                     : cell.label) +
            "." +
            sanitizeMetricSegment(ExperimentOptions::shortName(cell.app)),
        1);
    g_sweep_failed.store(true, std::memory_order_relaxed);
}

std::vector<MemSimResult>
runSweep(const std::vector<SweepCell> &cells,
         const ExperimentOptions &opts)
{
    ParallelRunner runner(opts.jobs);
    std::vector<MemSimResult> results(cells.size());
    std::vector<SweepCellTiming> timing(cells.size());
    std::vector<PhaseTotals> cell_prof(cells.size());
    std::atomic<std::size_t> completed{0};

    // Checkpoint replay: restore finished cells, open the journal for
    // the rest. A journal the process cannot write is a user error
    // (bad path, read-only directory), reported before any simulation.
    std::unique_ptr<CheckpointJournal> journal;
    std::vector<std::string> fingerprints;
    std::vector<char> replayed(cells.size(), 0);
    if (!opts.checkpoint.empty()) {
        CheckpointJournal::Replay replay =
            CheckpointJournal::load(opts.checkpoint);
        if (replay.skipped) {
            warn("checkpoint journal %s: skipped %zu unparsable "
                 "line(s) (torn tail); those cells will re-run",
                 opts.checkpoint.c_str(), replay.skipped);
        }
        fingerprints.resize(cells.size());
        std::size_t restored = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            fingerprints[i] = cellFingerprint(cells[i]);
            auto it = replay.entries.find(fingerprints[i]);
            if (it == replay.entries.end())
                continue;
            results[i] = it->second;
            replayed[i] = 1;
            ++restored;
        }
        if (restored && opts.progress) {
            progress("checkpoint %s: replaying %zu/%zu finished cells",
                     opts.checkpoint.c_str(), restored, cells.size());
        }
        try {
            journal =
                std::make_unique<CheckpointJournal>(opts.checkpoint);
        } catch (const std::exception &e) {
            fatal("%s", e.what());
        }
    }

    const std::uint64_t sweep_start_us = steadyNowUs();

    // Process-pool mode: MNM_WORKERS >= 1 hands the non-replayed cells
    // to forked worker processes. runSweep is still single-threaded at
    // this point (the thread pool only exists inside runner.run), so
    // the fork in the supervisor is safe. Leases are keyed by cell
    // fingerprint, so compute them even without a journal.
    if (opts.workers > 0) {
        if (fingerprints.empty()) {
            fingerprints.resize(cells.size());
            for (std::size_t i = 0; i < cells.size(); ++i)
                fingerprints[i] = cellFingerprint(cells[i]);
        }
        runSweepProcPool(cells, opts, fingerprints, replayed,
                         journal.get(), results, timing, cell_prof);
        const std::uint64_t pool_wall_us = steadyNowUs() - sweep_start_us;
        foldSweepTelemetry(cells, results, timing, cell_prof,
                           sweep_start_us, pool_wall_us, opts.workers);
        return results;
    }

    auto errors = runner.run(cells.size(), [&](std::size_t i) {
        if (replayed[i])
            return;
        const SweepCell &cell = cells[i];
        SweepCellTiming &t = timing[i];

        // Bounded retry: a throwing simulation gets opts.retries more
        // attempts (exponential backoff); a watchdog timeout does not
        // retry -- a second attempt would only time out again.
        PhaseTotals prof_before;
        for (unsigned attempt = 0;; ++attempt) {
            try {
                t.start_us = steadyNowUs();
                if (profActive())
                    prof_before = threadPhaseTotals();
                t.worker = ParallelRunner::currentWorker();
                if (g_fault_hook)
                    g_fault_hook(cell, attempt);
                if (opts.fail_cell.matches(sweepCellDisplayName(cell))) {
                    triggerCellFault(opts.fail_cell,
                                     sweepCellDisplayName(cell));
                }
                if (opts.cell_timeout_s > 0.0)
                    armCellDeadline(opts.cell_timeout_s);
                results[i] = runFunctional(cell.hierarchy, cell.mnm,
                                           cell.app, cell.instructions);
                disarmCellDeadline();
                break;
            } catch (const CellTimeoutError &) {
                throw; // never retried
            } catch (...) {
                disarmCellDeadline();
                if (attempt >= opts.retries)
                    throw;
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    50u << std::min(attempt, 6u)));
            }
        }
        std::uint64_t end_us = steadyNowUs();
        t.dur_us = end_us - t.start_us;
        t.ran = true;
        // This worker runs one cell at a time, so the thread's phase
        // totals advanced by exactly this cell's work (the snapshot is
        // re-taken per attempt: retries attribute the final run only).
        if (profActive())
            cell_prof[i] = phaseTotalsDelta(prof_before,
                                            threadPhaseTotals());
        if (journal)
            journal->append(fingerprints[i], results[i]);
        if (opts.progress) {
            std::size_t done =
                completed.fetch_add(1, std::memory_order_relaxed) + 1;
            // ETA: project the remaining cells at the observed pace.
            double elapsed_s =
                static_cast<double>(end_us - sweep_start_us) / 1e6;
            double eta_s = elapsed_s / static_cast<double>(done) *
                           static_cast<double>(cells.size() - done);
            progress("[%zu/%zu] %s (eta %.1fs)", done, cells.size(),
                     sweepCellDisplayName(cell).c_str(), eta_s);
        }
    });
    const std::uint64_t wall_us = steadyNowUs() - sweep_start_us;

    // Graceful degradation: a failed cell is marked, warned about, and
    // counted; the sweep's other cells stand. Benches print "<failed>"
    // gaps for the marked cells and exit via sweepExitCode().
    for (std::size_t i = 0; i < errors.size(); ++i) {
        if (!errors[i])
            continue;
        SweepFailCause cause = SweepFailCause::RetryExhausted;
        std::string reason;
        try {
            std::rethrow_exception(errors[i]);
        } catch (const CellTimeoutError &e) {
            cause = SweepFailCause::Timeout;
            reason = e.what();
        } catch (const std::exception &e) {
            reason = e.what();
        } catch (...) {
            reason = "non-standard exception";
        }
        recordSweepCellFailure(cells[i], i, cause, reason, results[i]);
    }

    foldSweepTelemetry(cells, results, timing, cell_prof,
                       sweep_start_us, wall_us, runner.jobs());
    return results;
}

int
sweepExitCode()
{
    return g_sweep_failed.load(std::memory_order_relaxed) ? 1 : 0;
}

void
setSweepFaultHookForTest(
    std::function<void(const SweepCell &, unsigned)> hook)
{
    g_fault_hook = std::move(hook);
}

const std::function<void(const SweepCell &, unsigned)> &
sweepFaultHook()
{
    return g_fault_hook;
}

} // namespace mnm
