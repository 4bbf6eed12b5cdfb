/**
 * @file
 * Shared plumbing for the benchmark harnesses in bench/.
 *
 * Every bench sweeps the same twenty SPEC2000-like workloads; the
 * instruction budget and the workload subset are controlled by
 * environment variables so a quick run and a paper-scale run use the
 * same binaries:
 *
 *   MNM_INSTRUCTIONS  instructions per workload (default 2,000,000)
 *   MNM_APPS          comma-separated workload names (default: all 20)
 *   MNM_CSV           set to 1 to also emit CSV after each table
 *   MNM_JOBS          sweep worker threads (default: all hardware
 *                     threads; 1 = legacy serial path)
 *   MNM_WORKERS       sweep worker *processes* (default 0 = stay in
 *                     process). N >= 1 makes runSweep a supervisor
 *                     forking N crash-contained workers (sim/
 *                     proc_pool): SIGSEGV/SIGKILL/hangs cost one cell,
 *                     never the sweep, and output stays byte-identical
 *                     to MNM_JOBS threading and to serial
 *   MNM_POISON_LIMIT  consecutive worker deaths one cell may cause
 *                     before it is declared poison and rendered
 *                     <failed> instead of crash-looping the pool
 *                     (default 3)
 *   MNM_WORKER_BACKOFF_MS  base delay before respawning a dead worker
 *                     process; doubles per consecutive death
 *                     (default 100)
 *   MNM_PROGRESS      set to 1 to report per-cell completion (with an
 *                     ETA projection) on stderr
 *   MNM_STATS_JSON    path; write the machine-readable run manifest
 *                     (config echo + every registry metric) at exit
 *   MNM_TRACE_FILE    path; write a Chrome trace_event timeline of the
 *                     sweep (one complete event per cell) at exit
 *   MNM_CHECKPOINT    path; journal each completed sweep cell and
 *                     replay finished cells on restart (sim/recovery)
 *   MNM_RETRIES       extra attempts for a cell whose simulation
 *                     throws (default 1; watchdog timeouts never
 *                     retry)
 *   MNM_CELL_TIMEOUT_S  per-cell watchdog in seconds for runSweep
 *                     cells only (default: no timeout). Cooperative
 *                     under MNM_JOBS (MemorySimulator::run polls it);
 *                     a real supervisor-enforced SIGKILL deadline
 *                     under MNM_WORKERS. Timing runs (OooCore,
 *                     CycleOooCore) are never watched
 *   MNM_FAIL_CELL     testing: kill any cell whose "app · label"
 *                     contains the substring. "<substr>" throws (the
 *                     thread-containable failure); "<substr>:<mode>"
 *                     with segv, abort, exit:<code>, or hang raises
 *                     the process-fatal failures only MNM_WORKERS
 *                     contains (core/fault_inject.hh)
 *   MNM_REFERENCE_KERNEL  set to 1 to run functional cells and the
 *                     timing benches' OooCore runs through their
 *                     single-step virtual reference paths (CI
 *                     byte-diffs them against the batched default)
 *   MNM_REFERENCE_FEED  set to 1 to interpret the MNM's event ring
 *                     through the virtual per-filter calls instead of
 *                     the compiled update kernels (CI byte-diffs it
 *                     against the default)
 *   MNM_PROF          off (default) | time | hw: per-phase attribution
 *                     of the simulator's own cost (batch generation,
 *                     L1-peek, verdict kernel, hierarchy walk, update
 *                     feed), folded into the manifest and the sweep
 *                     trace; hw reads real perf_event counters and
 *                     degrades to time where unavailable
 *                     (obs/phase_profiler.hh)
 *   MNM_PROF_FOLDED   path; also write flamegraph.pl collapsed stacks
 *                     at exit (fatal without an active MNM_PROF)
 *
 * Every knob is validated on parse: a non-numeric or out-of-range
 * value is a one-line fatal() naming the variable, not a silent
 * fallback. The telemetry, recovery, and profiling knobs never touch
 * stdout: with them unset the printed tables are byte-identical to a
 * build without these layers.
 */

#ifndef MNM_SIM_EXPERIMENT_HH
#define MNM_SIM_EXPERIMENT_HH

#include <optional>
#include <string>
#include <vector>

#include "core/fault_inject.hh"
#include "core/mnm_unit.hh"
#include "sim/memory_sim.hh"

namespace mnm
{

/** Environment-derived run options. */
struct ExperimentOptions
{
    std::uint64_t instructions = 2'000'000;
    std::vector<std::string> apps;
    bool csv = false;
    /** Sweep worker threads (sim/runner.hh); 1 = serial. */
    unsigned jobs = 1;
    /** Sweep worker processes (MNM_WORKERS, sim/proc_pool.hh);
     *  0 = in-process execution via the thread pool. */
    unsigned workers = 0;
    /** Consecutive worker deaths one cell may cause before it is
     *  declared poison (MNM_POISON_LIMIT). */
    unsigned poison_limit = 3;
    /** Base worker-respawn backoff in ms (MNM_WORKER_BACKOFF_MS);
     *  doubles per consecutive death. */
    unsigned worker_backoff_ms = 100;
    /** Report per-cell sweep completion via progress(). */
    bool progress = false;
    /** Run-manifest path (MNM_STATS_JSON); empty = disabled. */
    std::string stats_json;
    /** Chrome trace path (MNM_TRACE_FILE); empty = disabled. */
    std::string trace_file;
    /** Checkpoint-journal path (MNM_CHECKPOINT); empty = disabled. */
    std::string checkpoint;
    /** Extra attempts for a throwing cell (MNM_RETRIES). */
    unsigned retries = 1;
    /** Per-cell watchdog budget in seconds (MNM_CELL_TIMEOUT_S) for
     *  runSweep cells; 0 = no watchdog. */
    double cell_timeout_s = 0.0;
    /** Cell fault injection (MNM_FAIL_CELL); match empty = disabled. */
    CellFaultSpec fail_cell;

    /** Parse and validate every MNM_* knob listed in the file comment;
     *  also arms the obs layer's exit-time manifest/trace writers. */
    static ExperimentOptions fromEnv();

    /** Short app label for table rows ("164.gzip" -> "gzip"). */
    static std::string shortName(const std::string &app);
};

/** Parse @p env, the value of knob @p name, as a whole-string decimal
 *  integer in [@p min, @p max]; anything else (a sign, trailing junk,
 *  overflow, empty) is fatal and names the knob. */
unsigned long long parseEnvU64(const char *name, const char *env,
                               unsigned long long min,
                               unsigned long long max);

/** MNM_REFERENCE_KERNEL, parsed once per process: true for 1, false
 *  for 0 or unset, fatal otherwise. runFunctional() and the timing
 *  benches (OooCore::setReferenceKernel) switch to their single-step
 *  reference paths on it. */
bool referenceKernelFromEnv();

/**
 * Run one workload through a fresh functional simulator: a warm-up
 * window (10% of the budget, accounting discarded) followed by the
 * measured window.
 *
 * MNM_REFERENCE_KERNEL=1 forces the single-step virtual reference
 * kernel instead of the batched verdict-plan one -- CI byte-diffs a
 * bench's stdout across the two to prove the hot path changes nothing.
 * MNM_REFERENCE_FEED=1 does the same for the update side: the event
 * ring's virtual per-filter interpreter instead of the update kernels.
 */
MemSimResult runFunctional(const HierarchyParams &hierarchy,
                           const std::optional<MnmSpec> &mnm,
                           const std::string &app,
                           std::uint64_t instructions);

} // namespace mnm

#endif // MNM_SIM_EXPERIMENT_HH
