/**
 * @file
 * Scoped per-phase attribution for the simulator hot path.
 *
 * The perf CI (PR 4/5) gates whole-cell instr/sec with no idea *where*
 * a regression landed. This layer answers that: PhaseScope objects
 * bracket the stages of MemorySimulator::run (batch generation,
 * L1-peek, SoA verdict kernel, update-feed walks, cold accounting) and
 * the profiler accumulates exclusive (self) time per phase -- a nested
 * scope's time is charged to the inner phase only, so "verdict" and
 * "update_feed" are directly comparable even though both run under the
 * hierarchy walk.
 *
 * Design constraints, in order:
 *
 *  1. Free when off. MNM_PROF unset/off leaves every PhaseScope as one
 *     relaxed atomic load and a predictable branch; stdout stays
 *     byte-identical (profiling output only ever goes to manifests,
 *     trace files, or stderr).
 *  2. No allocation or atomics on the hot path when on. All state is
 *     thread_local and fixed-size: an enum-indexed accumulator array, a
 *     16-deep phase stack, and a small open-addressed table of
 *     collapsed stack paths. The only synchronization is a mutex taken
 *     when a thread *flushes* its totals into the global aggregate
 *     (once per worker, not per scope).
 *  3. Honest counters. In hw mode every phase transition reads the
 *     thread's PerfCounterGroup, so cycles/instructions/LLC-misses are
 *     measured, not modeled. That is a syscall per transition -- the
 *     mode is for attribution runs, not for the numbers the ratchet
 *     gates.
 *
 * Attribution flow: workers snapshot threadPhaseTotals() around each
 * sweep cell (delta = that cell's profile), then flushThreadProf()
 * before exiting; the manifest writer calls foldProfGlobal() which
 * flushes the calling thread, folds the global aggregate into
 * metrics.prof.*, and writes the MNM_PROF_FOLDED collapsed-stack file
 * (one "mnm;run;...;phase ticks" line per distinct stack, ready for
 * flamegraph.pl).
 */

#ifndef MNM_OBS_PHASE_PROFILER_HH
#define MNM_OBS_PHASE_PROFILER_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "obs/perf_counters.hh"

namespace mnm
{

class StatsRegistry;

/** The instrumented stages. The manifest/export names are stable; the
 *  values are positions in the process pool's prof wire format, so
 *  any change here bumps sim/proc_pool.cc's prof_wire_version. */
enum class Phase : std::uint8_t
{
    Run,        //!< MemorySimulator::run root (self = loop overhead)
    BatchGen,   //!< workload batch generation + deadline polling
    L1Peek,     //!< fast-path L1 hit peek loop (self = peeks + control)
    Verdict,    //!< MNM verdict kernels (computeCandidates/computeBypass)
    HierWalk,   //!< cache hierarchy walk per access (performAccess)
    UpdateFeed, //!< MnmUnit on{Placement,Replacement,Flush} walks
    Cold,       //!< post-run cold accounting (energy fold, drains)
    FeedDrain,  //!< batched event-ring drain through update kernels
    LaneDescent, //!< fast-path queued-lane L2+ descent (walk + accounting)
};

inline constexpr int num_phases = 9;

/** Stable manifest segment for @p phase ("verdict", "update_feed", ...). */
const char *phaseName(Phase phase);

/** One phase's accumulated exclusive-time counters. ticks/transitions
 *  always fill; the hardware fields only in hw mode. */
struct PhaseCounters
{
    std::uint64_t ticks = 0;       //!< profFastTick units (self time)
    std::uint64_t transitions = 0; //!< scope enters charged here
    std::uint64_t cycles = 0;      //!< hw mode: HW cycle counter delta
    std::uint64_t instructions = 0;
    std::uint64_t llc_loads = 0;
    std::uint64_t llc_misses = 0;
    std::uint64_t branch_misses = 0;
    std::uint64_t task_clock_ns = 0;
};

/** A full per-phase profile (one thread's, one cell's, or the global
 *  aggregate). */
struct PhaseTotals
{
    PhaseCounters phase[num_phases];

    /** Sum of ticks across phases (the share denominator). */
    std::uint64_t totalTicks() const;
};

/** Element-wise after - before (fields saturate at 0 rather than
 *  wrapping, so a snapshot pair straddling a flush degrades benignly). */
PhaseTotals phaseTotalsDelta(const PhaseTotals &before,
                             const PhaseTotals &after);

/** Is any profiling mode active? One relaxed atomic load; this is the
 *  whole cost of a PhaseScope when profiling is off. */
bool profActive();

/** The resolved process-wide mode (after hw->time fallback). */
ProfMode profMode();

/** True when MNM_PROF=hw was requested but perf_event_open is
 *  unavailable and the profiler degraded to time mode. */
bool profHwFellBack();

/**
 * RAII phase bracket. Constructing settles the elapsed interval into
 * the previously-open phase and starts charging @p p; destruction does
 * the reverse. Nesting and reentrancy (a phase inside itself) are fine:
 * attribution always follows the innermost open scope.
 */
class PhaseScope
{
  public:
    explicit PhaseScope(Phase p)
    {
        if (profActive()) [[unlikely]]
            enter(p);
    }

    ~PhaseScope()
    {
        if (entered_) [[unlikely]]
            leave();
    }

    PhaseScope(const PhaseScope &) = delete;
    PhaseScope &operator=(const PhaseScope &) = delete;

  private:
    void enter(Phase p);
    void leave();
    bool entered_ = false;
};

/**
 * Parse MNM_PROF / MNM_PROF_FOLDED and arm the profiler (first call
 * only; initRunTelemetry() calls this). Fatal on malformed values and
 * on MNM_PROF_FOLDED without an active mode; warns once and degrades
 * to time mode when hw counters are unavailable.
 */
void initPhaseProfiler();

/** Snapshot the calling thread's running totals (in-flight scope time
 *  is settled first, so cell-boundary deltas are exact). */
PhaseTotals threadPhaseTotals();

/** Fold the calling thread's totals and collapsed stacks into the
 *  global aggregate and zero the thread state (idempotent; closes the
 *  thread's counter group). Each profiled thread calls this once when
 *  its work is done. */
void flushThreadProf();

/**
 * Write @p totals as gauges under "<prefix>.<phase>.{ticks,cycles,
 * instr,llc_miss,share,...}". "cycles" is the hw counter in hw mode and
 * the tick count otherwise, so consumers can always read one key.
 * Phases that never ran are omitted.
 */
void foldPhaseTotals(StatsRegistry &reg, const PhaseTotals &totals,
                     const std::string &prefix);

/**
 * The manifest-writer entry point: flush the calling thread and fold
 * the global aggregate under "prof.*" (plus prof.mode /
 * prof.hw_fallback / prof.tick_hz). No-op when profiling is off.
 */
void foldProfGlobal(StatsRegistry &reg);

/** Write the MNM_PROF_FOLDED file if configured (flushes the calling
 *  thread first). Runs with the other artifacts at process exit. */
void writeProfFoldedFile();

/** The global aggregate so far (flushed threads only). */
PhaseTotals globalPhaseTotals();

/** Stream the global collapsed stacks in flamegraph.pl format, sorted
 *  (deterministic). Returns the number of stack lines written. */
std::size_t writeFoldedStacks(std::ostream &out);

/** The MNM_PROF_FOLDED path ("" when unset). */
const std::string &profFoldedPath();

/** Test hooks: force a mode / folded path without the environment, and
 *  reset all profiler state (global aggregate, calling thread, init
 *  latch) so the next initPhaseProfiler() re-reads the environment. */
void setProfModeForTest(ProfMode mode, const std::string &folded_path = "");
void resetPhaseProfilerForTest();

} // namespace mnm

#endif // MNM_OBS_PHASE_PROFILER_HH
