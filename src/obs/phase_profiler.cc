#include "obs/phase_profiler.hh"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>

#include "obs/registry.hh"
#include "util/cpu.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

constexpr int max_stack_depth = 16;
// The collapsed-stack key packs one byte per frame into a u64; deeper
// nesting keeps accumulating time but stops extending the path.
constexpr int max_path_frames = 8;
constexpr int folded_slots = 128; // power of two; ~10 paths in practice

std::atomic<bool> prof_active{false};
ProfMode prof_mode = ProfMode::Off;
bool hw_fell_back = false;
bool init_done = false;
std::string folded_file;

struct FoldedSlot
{
    std::uint64_t key = 0; // 0 = empty
    std::uint64_t ticks = 0;
};

/**
 * One thread's profiler state. Trivially destructible on purpose: no
 * thread-exit magic -- every profiled thread hands its numbers over via
 * flushThreadProf() (the sweep workers and foldProfGlobal() do), and a
 * thread that never flushes merely contributes nothing.
 */
struct ThreadProf
{
    PhaseTotals totals;
    std::uint8_t stack[max_stack_depth] = {};
    int depth = 0;
    std::uint64_t path = 0; // collapsed-stack key of the open stack
    std::uint64_t last_tick = 0;
    PerfSample last_sample;
    PerfCounterGroup *group = nullptr; // hw mode only, opened lazily
    bool group_tried = false;
    FoldedSlot folded[folded_slots];
    std::uint64_t folded_drops = 0; // ticks lost to table overflow
};

thread_local ThreadProf tls;

struct GlobalProf
{
    std::mutex mutex;
    PhaseTotals totals;
    std::map<std::uint64_t, std::uint64_t> folded;
    std::uint64_t folded_drops = 0;
};

GlobalProf &
globalProf()
{
    // Leaked: the atexit manifest writer folds after static destruction
    // may have begun, so this aggregate must never die.
    static GlobalProf *const g = new GlobalProf;
    return *g;
}

void
addFolded(ThreadProf &t, std::uint64_t key, std::uint64_t ticks)
{
    if (key == 0 || ticks == 0)
        return;
    const std::uint64_t h = key * 0x9e3779b97f4a7c15ULL;
    for (int probe = 0; probe < folded_slots; ++probe) {
        FoldedSlot &slot =
            t.folded[(h + static_cast<std::uint64_t>(probe)) &
                     (folded_slots - 1)];
        if (slot.key == key) {
            slot.ticks += ticks;
            return;
        }
        if (slot.key == 0) {
            slot.key = key;
            slot.ticks = ticks;
            return;
        }
    }
    t.folded_drops += ticks;
}

void
maybeOpenGroup(ThreadProf &t)
{
    if (prof_mode != ProfMode::Hw || t.group_tried)
        return;
    t.group_tried = true;
    auto *group = new PerfCounterGroup;
    if (group->open() && group->read(t.last_sample)) {
        t.group = group;
    } else {
        delete group;
    }
}

/** Charge the interval since the last transition to the innermost open
 *  phase (restamp only when no scope is open). */
void
settle(ThreadProf &t, std::uint64_t now)
{
    if (t.depth == 0) {
        t.last_tick = now;
        return;
    }
    const std::uint64_t delta = now - t.last_tick;
    t.last_tick = now;
    PhaseCounters &c = t.totals.phase[t.stack[t.depth - 1]];
    c.ticks += delta;
    addFolded(t, t.path, delta);
    if (t.group) {
        PerfSample s;
        if (t.group->read(s)) {
            c.cycles += s.cycles - t.last_sample.cycles;
            c.instructions += s.instructions - t.last_sample.instructions;
            c.llc_loads += s.llc_loads - t.last_sample.llc_loads;
            c.llc_misses += s.llc_misses - t.last_sample.llc_misses;
            c.branch_misses +=
                s.branch_misses - t.last_sample.branch_misses;
            c.task_clock_ns +=
                s.task_clock_ns - t.last_sample.task_clock_ns;
            t.last_sample = s;
        } else {
            delete t.group;
            t.group = nullptr;
        }
    }
}

void
closeThreadGroup(ThreadProf &t)
{
    delete t.group;
    t.group = nullptr;
    t.group_tried = false; // reopen if this thread profiles again
    t.last_sample = PerfSample{};
}

std::uint64_t
satSub(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : 0;
}

} // namespace

const char *
phaseName(Phase phase)
{
    switch (phase) {
      case Phase::Run:
        return "run";
      case Phase::BatchGen:
        return "batch_gen";
      case Phase::L1Peek:
        return "l1_peek";
      case Phase::Verdict:
        return "verdict";
      case Phase::HierWalk:
        return "hier_walk";
      case Phase::UpdateFeed:
        return "update_feed";
      case Phase::Cold:
        return "cold_account";
      case Phase::FeedDrain:
        return "feed_drain";
      case Phase::LaneDescent:
        return "lane_descent";
    }
    return "?";
}

std::uint64_t
PhaseTotals::totalTicks() const
{
    std::uint64_t total = 0;
    for (const PhaseCounters &c : phase)
        total += c.ticks;
    return total;
}

PhaseTotals
phaseTotalsDelta(const PhaseTotals &before, const PhaseTotals &after)
{
    PhaseTotals d;
    for (int i = 0; i < num_phases; ++i) {
        d.phase[i].ticks = satSub(after.phase[i].ticks, before.phase[i].ticks);
        d.phase[i].transitions =
            satSub(after.phase[i].transitions, before.phase[i].transitions);
        d.phase[i].cycles =
            satSub(after.phase[i].cycles, before.phase[i].cycles);
        d.phase[i].instructions = satSub(after.phase[i].instructions,
                                         before.phase[i].instructions);
        d.phase[i].llc_loads =
            satSub(after.phase[i].llc_loads, before.phase[i].llc_loads);
        d.phase[i].llc_misses =
            satSub(after.phase[i].llc_misses, before.phase[i].llc_misses);
        d.phase[i].branch_misses = satSub(after.phase[i].branch_misses,
                                          before.phase[i].branch_misses);
        d.phase[i].task_clock_ns = satSub(after.phase[i].task_clock_ns,
                                          before.phase[i].task_clock_ns);
    }
    return d;
}

bool
profActive()
{
    return prof_active.load(std::memory_order_relaxed);
}

ProfMode
profMode()
{
    return prof_mode;
}

bool
profHwFellBack()
{
    return hw_fell_back;
}

void
PhaseScope::enter(Phase p)
{
    ThreadProf &t = tls;
    if (t.depth >= max_stack_depth)
        return; // keep charging the parent; dtor stays paired via entered_
    maybeOpenGroup(t);
    settle(t, profFastTick());
    t.stack[t.depth++] = static_cast<std::uint8_t>(p);
    if (t.depth <= max_path_frames)
        t.path = (t.path << 8) | (static_cast<std::uint64_t>(p) + 1);
    t.totals.phase[static_cast<int>(p)].transitions++;
    entered_ = true;
}

void
PhaseScope::leave()
{
    ThreadProf &t = tls;
    settle(t, profFastTick());
    t.depth--;
    if (t.depth < max_path_frames)
        t.path >>= 8;
}

void
initPhaseProfiler()
{
    if (init_done)
        return;
    init_done = true;

    ProfMode mode = parseProfMode(std::getenv("MNM_PROF"));
    const char *folded = std::getenv("MNM_PROF_FOLDED");
    if (folded && *folded) {
        if (mode == ProfMode::Off)
            fatal("MNM_PROF_FOLDED is set but MNM_PROF is off; set "
                  "MNM_PROF=time or MNM_PROF=hw to collect stacks");
        folded_file = folded;
    }
    if (mode == ProfMode::Hw && !perfCountersAvailable()) {
        warn("MNM_PROF=hw but perf_event_open is unavailable here "
             "(container seccomp or perf_event_paranoid); degrading to "
             "MNM_PROF=time -- the manifest records prof.hw_fallback=1");
        hw_fell_back = true;
        mode = ProfMode::Time;
    }
    prof_mode = mode;
    prof_active.store(mode != ProfMode::Off, std::memory_order_relaxed);
}

PhaseTotals
threadPhaseTotals()
{
    if (!profActive())
        return PhaseTotals{};
    ThreadProf &t = tls;
    settle(t, profFastTick());
    return t.totals;
}

void
flushThreadProf()
{
    if (!profActive())
        return;
    ThreadProf &t = tls;
    settle(t, profFastTick());

    GlobalProf &g = globalProf();
    {
        std::lock_guard<std::mutex> lock(g.mutex);
        for (int i = 0; i < num_phases; ++i) {
            g.totals.phase[i].ticks += t.totals.phase[i].ticks;
            g.totals.phase[i].transitions += t.totals.phase[i].transitions;
            g.totals.phase[i].cycles += t.totals.phase[i].cycles;
            g.totals.phase[i].instructions +=
                t.totals.phase[i].instructions;
            g.totals.phase[i].llc_loads += t.totals.phase[i].llc_loads;
            g.totals.phase[i].llc_misses += t.totals.phase[i].llc_misses;
            g.totals.phase[i].branch_misses +=
                t.totals.phase[i].branch_misses;
            g.totals.phase[i].task_clock_ns +=
                t.totals.phase[i].task_clock_ns;
        }
        for (const FoldedSlot &slot : t.folded)
            if (slot.key != 0)
                g.folded[slot.key] += slot.ticks;
        g.folded_drops += t.folded_drops;
    }

    t.totals = PhaseTotals{};
    for (FoldedSlot &slot : t.folded)
        slot = FoldedSlot{};
    t.folded_drops = 0;
    closeThreadGroup(t);
}

void
foldPhaseTotals(StatsRegistry &reg, const PhaseTotals &totals,
                const std::string &prefix)
{
    const std::uint64_t total = totals.totalTicks();
    for (int i = 0; i < num_phases; ++i) {
        const PhaseCounters &c = totals.phase[i];
        if (c.ticks == 0 && c.transitions == 0)
            continue;
        const std::string base =
            prefix + "." + phaseName(static_cast<Phase>(i)) + ".";
        // "cycles" is always present: the HW counter when measured,
        // the tick count (TSC/CNTVCT) as its stand-in otherwise.
        const std::uint64_t cycles =
            prof_mode == ProfMode::Hw ? c.cycles : c.ticks;
        reg.setGauge(base + "cycles", static_cast<double>(cycles));
        reg.setGauge(base + "instr", static_cast<double>(c.instructions));
        reg.setGauge(base + "llc_miss",
                     static_cast<double>(c.llc_misses));
        reg.setGauge(base + "share",
                     total ? static_cast<double>(c.ticks) /
                                 static_cast<double>(total)
                           : 0.0);
        reg.setGauge(base + "ticks", static_cast<double>(c.ticks));
        reg.setGauge(base + "transitions",
                     static_cast<double>(c.transitions));
        if (prof_mode == ProfMode::Hw) {
            reg.setGauge(base + "llc_loads",
                         static_cast<double>(c.llc_loads));
            reg.setGauge(base + "branch_miss",
                         static_cast<double>(c.branch_misses));
            reg.setGauge(base + "task_clock_ms",
                         static_cast<double>(c.task_clock_ns) / 1e6);
        }
    }
}

void
foldProfGlobal(StatsRegistry &reg)
{
    if (!profActive())
        return;
    flushThreadProf();
    foldPhaseTotals(reg, globalPhaseTotals(), "prof");
    reg.setGauge("prof.mode", prof_mode == ProfMode::Hw ? 2.0 : 1.0);
    reg.setGauge("prof.hw_fallback", hw_fell_back ? 1.0 : 0.0);
    reg.setGauge("prof.tick_hz", profTickHz());
}

void
writeProfFoldedFile()
{
    if (!profActive() || folded_file.empty())
        return;
    flushThreadProf();
    std::ofstream out(folded_file, std::ios::out | std::ios::trunc);
    if (!out) {
        warn("MNM_PROF_FOLDED: cannot open '%s' for writing",
             folded_file.c_str());
        return;
    }
    writeFoldedStacks(out);
}

PhaseTotals
globalPhaseTotals()
{
    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    return g.totals;
}

std::size_t
writeFoldedStacks(std::ostream &out)
{
    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    std::size_t lines = 0;
    for (const auto &[key, ticks] : g.folded) {
        std::uint8_t frames[max_path_frames];
        int nframes = 0;
        for (std::uint64_t k = key; k != 0; k >>= 8)
            frames[nframes++] = static_cast<std::uint8_t>(k & 0xff);
        out << "mnm";
        for (int i = nframes - 1; i >= 0; --i)
            out << ';' << phaseName(static_cast<Phase>(frames[i] - 1));
        out << ' ' << ticks << '\n';
        ++lines;
    }
    if (g.folded_drops != 0) {
        out << "mnm;[truncated] " << g.folded_drops << '\n';
        ++lines;
    }
    return lines;
}

const std::string &
profFoldedPath()
{
    return folded_file;
}

void
setProfModeForTest(ProfMode mode, const std::string &folded_path)
{
    init_done = true; // the environment no longer applies
    prof_mode = mode;
    hw_fell_back = false;
    folded_file = folded_path;
    prof_active.store(mode != ProfMode::Off, std::memory_order_relaxed);
}

void
resetPhaseProfilerForTest()
{
    prof_active.store(false, std::memory_order_relaxed);
    prof_mode = ProfMode::Off;
    hw_fell_back = false;
    init_done = false;
    folded_file.clear();

    ThreadProf &t = tls;
    closeThreadGroup(t);
    t.totals = PhaseTotals{};
    t.depth = 0;
    t.path = 0;
    t.last_tick = 0;
    for (FoldedSlot &slot : t.folded)
        slot = FoldedSlot{};
    t.folded_drops = 0;

    GlobalProf &g = globalProf();
    std::lock_guard<std::mutex> lock(g.mutex);
    g.totals = PhaseTotals{};
    g.folded.clear();
    g.folded_drops = 0;
}

} // namespace mnm
