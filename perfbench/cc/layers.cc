/**
 * @file
 * The traced per-layer run (--trace 1).
 *
 * The benchmark drives each module through its public functions on the
 * workload's own generated stream and brackets those calls with spans:
 *
 *   trace  WorkloadGenerator::nextRequests
 *   core   MnmUnit::computeBypass, computeCandidates, the update feed
 *          (a forwarding CacheEventListener), applyPlacementCosts
 *   cache  CacheHierarchy::access (minus the feed it drives), and a
 *          no-MNM replay of the same requests
 *   sim    MemorySimulator::run with and without an MNM; runSweep
 *   cpu    OooCore::run, the core-less memory loop, CycleOooCore::run
 *   power  MnmUnit construction (SRAM and checker models)
 *   obs    the cost of this tracing and of MNM_PROF=time
 *
 * Per-request calls are folded into one span per layer per window that
 * carries the call count. Spans stay in memory and are written to
 * <out-dir>/spans-<workload>-seed<n>.json when the run ends. Nothing
 * here reaches into src/: every span sits around a public call.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "common.hh"
#include "core/presets.hh"
#include "cpu/cycle_core.hh"
#include "cpu/ooo_core.hh"
#include "obs/phase_profiler.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/memory_sim.hh"
#include "sim/runner.hh"
#include "trace/request_batch.hh"
#include "util/cpu.hh"

extern char **environ;

namespace perfbench
{

using namespace mnm;

namespace
{

/** Instructions per nextRequests() call and batches per traced window. */
constexpr std::size_t batch_instr = InstructionBatch::capacity;
constexpr std::size_t window_batches = 8;
constexpr std::uint64_t window_instr = batch_instr * window_batches;
constexpr std::uint64_t warmup_instr = 300'000;
constexpr std::uint64_t cpu_window = 20'000;
constexpr std::uint64_t cycle_window = 5'000;
constexpr std::uint64_t small_sweep_cell_instr = 200'000;

inline std::uint64_t
tick()
{
    return profFastTick();
}

/** One span: a call (or, aggregated, every call of one layer in one
 *  window) with its start, end, parent, window and call count. */
struct Span
{
    std::string name;
    std::string app;
    long parent = -1;
    std::uint64_t window = 0;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    /** Summed duration of the calls (end - start when calls == 1). */
    std::uint64_t busy = 0;
    std::uint64_t calls = 1;
};

class SpanLog
{
  public:
    long
    add(Span s)
    {
        spans_.push_back(std::move(s));
        return static_cast<long>(spans_.size()) - 1;
    }

    std::size_t size() const { return spans_.size(); }

    /** Write every span as JSON, times in ns from the first span. */
    bool
    write(const std::string &path, const RunConfig &cfg, double hz) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const std::uint64_t t0 = spans_.empty() ? 0 : spans_[0].start;
        auto ns = [&](std::uint64_t t) {
            return static_cast<double>(t - t0) * 1e9 / hz;
        };
        out << "{\"workload\": \"" << cfg.workload << "\", \"seed\": "
            << cfg.seed << ", \"spans\": [\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(
                buf, sizeof buf,
                "{\"id\": %zu, \"name\": \"%s\", \"app\": \"%s\", "
                "\"parent\": %ld, \"window\": %llu, \"start_ns\": %.0f, "
                "\"end_ns\": %.0f, \"busy_ns\": %.0f, \"calls\": %llu}%s\n",
                i, s.name.c_str(), s.app.c_str(), s.parent,
                static_cast<unsigned long long>(s.window), ns(s.start),
                ns(s.end), static_cast<double>(s.busy) * 1e9 / hz,
                static_cast<unsigned long long>(s.calls),
                i + 1 < spans_.size() ? "," : "");
            out << buf;
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    std::vector<Span> spans_;
};

/** The update feed, timed: sits between the hierarchy and its MNM and
 *  forwards every batch. */
class TimedFeed : public CacheEventListener
{
  public:
    MnmUnit *mnm = nullptr;
    std::uint64_t ticks = 0;
    std::uint64_t calls = 0;
    std::uint64_t events = 0;
    std::uint64_t placements = 0;

    void
    onPlacement(CacheId id, BlockAddr block) override
    {
        ++placements;
        mnm->onPlacement(id, block);
    }
    void
    onReplacement(CacheId id, BlockAddr block) override
    {
        mnm->onReplacement(id, block);
    }
    void onFlush(CacheId id) override { mnm->onFlush(id); }
    void
    onEventBatch(const CacheEvent *ev, std::size_t n) override
    {
        const std::uint64_t t0 = tick();
        mnm->onEventBatch(ev, n);
        ticks += tick() - t0;
        ++calls;
        events += n;
        for (std::size_t i = 0; i < n; ++i)
            placements += ev[i].kind == CacheEventKind::Placement;
    }
};

AccessType
accessType(std::uint8_t kind)
{
    switch (static_cast<RequestKind>(kind)) {
      case RequestKind::InstFetch:
        return AccessType::InstFetch;
      case RequestKind::Load:
        return AccessType::Load;
      default:
        return AccessType::Store;
    }
}

/** A hierarchy with an HMNM4 attached (the benchmark's own engine). */
struct Engine
{
    std::unique_ptr<CacheHierarchy> hier;
    std::unique_ptr<MnmUnit> mnm;

    explicit Engine(std::uint64_t seed)
        : hier(std::make_unique<CacheHierarchy>(paperHierarchy(5), seed)),
          mnm(std::make_unique<MnmUnit>(makeHmnmSpec(4), *hier))
    {
    }
};

/** Simulated counts of the traced loop (deterministic). */
struct LoopCounts
{
    std::uint64_t instructions = 0;
    std::uint64_t requests = 0;
    std::uint64_t l1_misses = 0;
    std::uint64_t probes = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t from_memory = 0;
    std::uint64_t latency = 0;
    CoverageTracker coverage;
};

/** Every stream and engine one app needs in the traced run. */
struct LayerApp
{
    std::string name;
    SyntheticParams params;

    // The traced gen -> verdict -> access loop, its untraced twin and a
    // no-MNM hierarchy the traced requests are replayed into.
    Engine traced, untraced;
    TimedFeed feed;
    CacheHierarchy replay;
    SyntheticWorkload gen_traced, gen_untraced;
    FetchDedup dedup_traced, dedup_untraced;
    LoopCounts counts, counts_untraced;

    // MemorySimulator::run with and without an MNM.
    MemorySimulator sim_mnm, sim_floor;
    SyntheticWorkload gen_mnm, gen_floor;

    // Timing path: OooCore, the core-less memory loop, CycleOooCore.
    Engine ooo_engine, mem_engine, cycle_engine;
    OooCore ooo;
    CycleOooCore cycle;
    SyntheticWorkload gen_ooo, gen_mem, gen_cycle;
    Addr mem_fetch_line = invalid_addr;

    LayerApp(const std::string &app, std::uint64_t run_seed,
             std::uint64_t sim_seed)
        : name(app), params(appParams(app, run_seed, 0)), traced(sim_seed),
          untraced(sim_seed), replay(paperHierarchy(5), sim_seed),
          gen_traced(params), gen_untraced(params),
          sim_mnm(paperHierarchy(5), makeHmnmSpec(4), sim_seed),
          sim_floor(paperHierarchy(5), std::nullopt, sim_seed),
          gen_mnm(params), gen_floor(params), ooo_engine(sim_seed),
          mem_engine(sim_seed), cycle_engine(sim_seed),
          ooo(paperCpu(5), *ooo_engine.hier, ooo_engine.mnm.get()),
          cycle(paperCpu(5), *cycle_engine.hier, cycle_engine.mnm.get()),
          gen_ooo(params), gen_mem(params), gen_cycle(params)
    {
        feed.mnm = traced.mnm.get();
        traced.hier->setListener(&feed);
        const unsigned bits =
            traced.hier->cacheAt(1, AccessType::InstFetch).blockBits();
        dedup_traced.block_bits = bits;
        dedup_untraced.block_bits = bits;
    }
};

/** Per-window layer times in ticks (tick bias already removed). */
struct WindowTimes
{
    double gen = 0, verdict = 0, access = 0, update = 0, placement = 0;
    double candidates = 0, replay = 0, total = 0;
    std::uint64_t instructions = 0, requests = 0, events = 0;
    std::uint64_t candidate_calls = 0;
};

/** Back-to-back profFastTick() cost: the bias one bracketed call
 *  carries. */
double
tickBias()
{
    constexpr int n = 200'000;
    std::uint64_t sum = 0;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t a = tick();
        sum += tick() - a;
    }
    return static_cast<double>(sum) / n;
}

/** One window of the traced loop; appends its spans to @p log. */
WindowTimes
tracedWindow(LayerApp &a, std::uint64_t window, double bias, SpanLog &log,
             RequestBatch &batch, std::vector<Addr> (&missed)[2],
             std::vector<std::uint32_t> &cand)
{
    WindowTimes w;
    std::uint64_t gen = 0, verdict = 0, access = 0, placement = 0;
    std::uint64_t cand_t = 0, replay_t = 0;
    const std::uint64_t feed_ticks0 = a.feed.ticks;
    const std::uint64_t feed_calls0 = a.feed.calls;
    const std::uint64_t feed_events0 = a.feed.events;
    MnmUnit &mnm = *a.traced.mnm;
    CacheHierarchy &hier = *a.traced.hier;

    const std::uint64_t w0 = tick();
    for (std::size_t b = 0; b < window_batches; ++b) {
        const std::uint64_t g0 = tick();
        a.gen_traced.nextRequests(batch, a.dedup_traced, batch_instr);
        const std::uint64_t g1 = tick();
        gen += g1 - g0;
        missed[0].clear();
        missed[1].clear();
        for (std::size_t i = 0; i < batch.size; ++i) {
            const AccessType type = accessType(batch.kind[i]);
            const Addr addr = batch.addr[i];
            const std::uint64_t t0 = tick();
            const BypassMask mask = mnm.computeBypass(type, addr);
            const std::uint64_t t1 = tick();
            const AccessResult res = hier.access(type, addr, mask);
            const std::uint64_t t2 = tick();
            const Cycles extra = mnm.applyPlacementCosts(res);
            a.counts.coverage.record(res);
            const std::uint64_t t3 = tick();
            verdict += t1 - t0;
            access += t2 - t1;
            placement += t3 - t2;

            LoopCounts &c = a.counts;
            c.latency += res.latency + extra;
            for (std::uint8_t p = 0; p < res.num_probes; ++p)
                c.probes += !res.probes[p].bypassed;
            c.writebacks += res.num_writebacks;
            c.from_memory += res.from_memory;
            if (res.supply_level != 1) {
                ++c.l1_misses;
                missed[type == AccessType::InstFetch ? 0 : 1].push_back(
                    addr);
            }
        }
        a.counts.instructions += batch.instructions;
        a.counts.requests += batch.size;
        w.instructions += batch.instructions;
        w.requests += batch.size;

        // Candidate masks for this batch's L1 misses. computeCandidates
        // is pure, so timing it against the current state is valid.
        const std::uint64_t c0 = tick();
        for (int s = 0; s < 2; ++s) {
            if (missed[s].empty())
                continue;
            cand.resize(missed[s].size());
            mnm.computeCandidates(s == 0 ? AccessType::InstFetch
                                         : AccessType::Load,
                                  missed[s].data(), cand.data(),
                                  missed[s].size());
            w.candidate_calls += missed[s].size();
        }
        const std::uint64_t c1 = tick();
        cand_t += c1 - c0;

        // The same requests through a hierarchy with no MNM.
        for (std::size_t i = 0; i < batch.size; ++i)
            a.replay.access(accessType(batch.kind[i]), batch.addr[i]);
        const std::uint64_t r1 = tick();
        replay_t += r1 - c1;
    }
    const std::uint64_t w1 = tick();

    const double n = static_cast<double>(w.requests);
    const std::uint64_t feed_calls = a.feed.calls - feed_calls0;
    w.events = a.feed.events - feed_events0;
    // Every bracket reads the tick once more than the work it holds;
    // take that bias off per bracketed call.
    w.gen = static_cast<double>(gen) - bias * window_batches;
    w.verdict = static_cast<double>(verdict) - bias * n;
    w.update = static_cast<double>(a.feed.ticks - feed_ticks0) -
               bias * static_cast<double>(feed_calls);
    w.access = static_cast<double>(access) - bias * n - w.update;
    w.placement = static_cast<double>(placement) - bias * n;
    w.candidates = static_cast<double>(cand_t) - bias * window_batches;
    w.replay = static_cast<double>(replay_t) - bias * window_batches;
    w.total = static_cast<double>(w1 - w0);

    const long root = log.add({"window", a.name, -1, window, w0, w1,
                               w1 - w0, 1});
    auto child = [&](const char *name, long parent, double busy,
                     std::uint64_t calls) {
        return log.add({name, a.name, parent, window, w0, w1,
                        static_cast<std::uint64_t>(std::max(0.0, busy)),
                        calls});
    };
    child("trace.gen", root, w.gen, window_batches);
    child("core.verdict", root, w.verdict, w.requests);
    const long acc = child("cache.access", root, w.access + w.update,
                           w.requests);
    child("core.update", acc, w.update, feed_calls);
    child("core.placement", root, w.placement, w.requests);
    child("core.candidates", root, w.candidates, w.candidate_calls);
    child("cache.replay", root, w.replay, w.requests);
    return w;
}

/** The same loop with no brackets: the tracing-overhead baseline. */
double
untracedWindowTicks(LayerApp &a, RequestBatch &batch)
{
    MnmUnit &mnm = *a.untraced.mnm;
    CacheHierarchy &hier = *a.untraced.hier;
    LoopCounts &c = a.counts_untraced;
    const std::uint64_t w0 = tick();
    for (std::size_t b = 0; b < window_batches; ++b) {
        a.gen_untraced.nextRequests(batch, a.dedup_untraced, batch_instr);
        for (std::size_t i = 0; i < batch.size; ++i) {
            const AccessType type = accessType(batch.kind[i]);
            const BypassMask mask = mnm.computeBypass(type, batch.addr[i]);
            const AccessResult res = hier.access(type, batch.addr[i], mask);
            c.latency += res.latency + mnm.applyPlacementCosts(res);
            c.coverage.record(res);
        }
        c.instructions += batch.instructions;
        c.requests += batch.size;
    }
    return static_cast<double>(tick() - w0);
}

/** The core-less memory path OooCore takes: single-step next(), fetch
 *  de-duplication by line, verdict, access, placement costs. */
void
memOnlyWindow(LayerApp &a, std::uint64_t count)
{
    MnmUnit &mnm = *a.mem_engine.mnm;
    CacheHierarchy &hier = *a.mem_engine.hier;
    const Cache &l1i = hier.cacheAt(1, AccessType::InstFetch);
    auto touch = [&](AccessType type, Addr addr) {
        const BypassMask mask = mnm.computeBypass(type, addr);
        const AccessResult res = hier.access(type, addr, mask);
        return res.latency + mnm.applyPlacementCosts(res);
    };
    Instruction inst;
    Cycles sink = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        a.gen_mem.next(inst);
        const Addr line = l1i.blockAddr(inst.pc);
        if (line != a.mem_fetch_line) {
            a.mem_fetch_line = line;
            sink += touch(AccessType::InstFetch, inst.pc);
        }
        if (inst.isMem()) {
            sink += touch(inst.cls == InstClass::Load ? AccessType::Load
                                                      : AccessType::Store,
                          inst.mem_addr);
        }
    }
    asm volatile("" : : "r"(sink));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

/** Run this binary as a profiler-overhead child with MNM_PROF=@p mode;
 *  nullopt when it fails. */
std::optional<double>
profChildRate(const RunConfig &cfg, const char *mode, double seconds)
{
    std::vector<std::string> env_store;
    for (char **e = environ; *e; ++e) {
        if (std::strncmp(*e, "MNM_PROF", 8) != 0)
            env_store.emplace_back(*e);
    }
    env_store.push_back(std::string("MNM_PROF=") + mode);
    std::vector<char *> envp;
    for (std::string &s : env_store)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    const std::string seed = std::to_string(cfg.seed);
    const std::string secs = std::to_string(seconds);
    std::vector<std::string> args = {"/proc/self/exe", "--prof-child",
                                     "--workload", cfg.workload,
                                     "--seed", seed, "--seconds", secs};
    std::vector<char *> argv;
    for (std::string &s : args)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    int fds[2];
    if (pipe(fds) != 0)
        return std::nullopt;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), envp.data());
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string text;
    if (rc == 0) {
        char buf[256];
        ssize_t got;
        while ((got = read(fds[0], buf, sizeof buf)) > 0)
            text.append(buf, static_cast<std::size_t>(got));
    }
    close(fds[0]);
    if (rc != 0)
        return std::nullopt;
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return std::nullopt;
    const std::size_t at = text.rfind("instr_per_s=");
    if (at == std::string::npos)
        return std::nullopt;
    return std::strtod(text.c_str() + at + 12, nullptr);
}

} // anonymous namespace

int
runProfChild(const RunConfig &cfg)
{
    initPhaseProfiler();
    const std::uint64_t sim_seed = mix64(cfg.seed) | 1;
    std::vector<std::string> names = workloadApps(cfg.workload, cfg.seed);
    names.resize(std::min<std::size_t>(names.size(), 2));
    std::vector<std::unique_ptr<MemorySimulator>> sims;
    std::vector<std::unique_ptr<SyntheticWorkload>> gens;
    for (const std::string &name : names) {
        sims.push_back(std::make_unique<MemorySimulator>(
            paperHierarchy(5), makeHmnmSpec(4), sim_seed));
        gens.push_back(
            std::make_unique<SyntheticWorkload>(appParams(name, cfg.seed, 0)));
        sims.back()->run(*gens.back(), warmup_instr);
    }
    std::vector<double> ns_per_instr;
    const double start = nowS();
    while (ns_per_instr.empty() || nowS() - start < cfg.seconds) {
        for (std::size_t i = 0; i < sims.size(); ++i) {
            const double t0 = nowS();
            sims[i]->run(*gens[i], window_instr);
            ns_per_instr.push_back((nowS() - t0) * 1e9 / window_instr);
        }
    }
    std::printf("prof=%s instr_per_s=%.17g\n",
                profActive() ? "on" : "off", 1e9 / median(ns_per_instr));
    return 0;
}

void
runLayers(const RunConfig &cfg, Outcome &out)
{
    const double hz = profTickHz();
    const double bias = tickBias();
    const auto ns = [hz](double ticks) { return ticks * 1e9 / hz; };
    const std::uint64_t sim_seed = mix64(cfg.seed) | 1;
    const bool sweep = cfg.workload == "sweep";
    SpanLog log;

    // ---- set-up layers: hierarchy and MNM construction
    std::vector<double> cache_setup, power_setup;
    for (int i = 0; i < 9; ++i) {
        const std::uint64_t t0 = tick();
        CacheHierarchy h(paperHierarchy(5), sim_seed);
        const std::uint64_t t1 = tick();
        MnmUnit m(makeHmnmSpec(4), h);
        const std::uint64_t t2 = tick();
        const long root = log.add({"setup", "", -1, 0, t0, t2, t2 - t0, 1});
        log.add({"cache.setup", "", root, 0, t0, t1, t1 - t0, 1});
        log.add({"power.setup", "", root, 0, t1, t2, t2 - t1, 1});
        cache_setup.push_back(ns(static_cast<double>(t1 - t0)) / 1e6);
        power_setup.push_back(ns(static_cast<double>(t2 - t1)) / 1e6);
    }

    // ---- per-app engines (the sweep workload traces four of its apps)
    std::vector<std::string> names = workloadApps(cfg.workload, cfg.seed);
    if (sweep)
        names.resize(4);
    std::vector<std::unique_ptr<LayerApp>> apps;
    for (const std::string &name : names) {
        auto a = std::make_unique<LayerApp>(name, cfg.seed, sim_seed);
        RequestBatch warm;
        for (std::uint64_t n = 0; n < warmup_instr; n += batch_instr) {
            a->gen_traced.nextRequests(warm, a->dedup_traced, batch_instr);
            for (std::size_t i = 0; i < warm.size; ++i) {
                const AccessType t = accessType(warm.kind[i]);
                const BypassMask m =
                    a->traced.mnm->computeBypass(t, warm.addr[i]);
                a->traced.hier->access(t, warm.addr[i], m);
                a->replay.access(t, warm.addr[i]);
            }
            a->gen_untraced.nextRequests(warm, a->dedup_untraced,
                                         batch_instr);
            for (std::size_t i = 0; i < warm.size; ++i) {
                const AccessType t = accessType(warm.kind[i]);
                const BypassMask m =
                    a->untraced.mnm->computeBypass(t, warm.addr[i]);
                a->untraced.hier->access(t, warm.addr[i], m);
            }
        }
        a->sim_mnm.run(a->gen_mnm, warmup_instr);
        a->sim_floor.run(a->gen_floor, warmup_instr);
        a->ooo.run(a->gen_ooo, warmup_instr / 4);
        memOnlyWindow(*a, warmup_instr / 4);
        a->cycle.run(a->gen_cycle, cycle_window);
        apps.push_back(std::move(a));
    }
    // Counts cover the measured windows only.
    for (auto &a : apps) {
        a->counts = LoopCounts{};
        a->counts_untraced = LoopCounts{};
        a->feed.ticks = a->feed.calls = a->feed.events = 0;
        a->feed.placements = 0;
    }

    // ---- engine section: traced loop, untraced twin, MemorySimulator
    auto batch = std::make_unique<RequestBatch>();
    std::vector<Addr> missed[2];
    std::vector<std::uint32_t> cand;
    std::vector<double> gen_ns, verdict_ns, update_ns, replay_ns, cand_ns;
    std::vector<double> traced_main_ns, untraced_ns, self_trace, self_core,
        self_cache, sim_mnm_ns, sim_floor_ns;
    std::uint64_t window = 0;
    const double engine_end = nowS() + 0.5 * cfg.seconds;
    while (window < 2 * apps.size() || nowS() < engine_end) {
        LayerApp &a = *apps[window % apps.size()];
        const WindowTimes w =
            tracedWindow(a, window, bias, log, *batch, missed, cand);
        const double instr = static_cast<double>(w.instructions);
        const double req = static_cast<double>(w.requests);
        gen_ns.push_back(ns(w.gen) / instr);
        verdict_ns.push_back(ns(w.verdict) / req);
        if (w.events)
            update_ns.push_back(ns(w.update) / static_cast<double>(w.events));
        replay_ns.push_back(ns(w.replay) / req);
        if (w.candidate_calls) {
            cand_ns.push_back(ns(w.candidates) /
                              static_cast<double>(w.candidate_calls));
        }
        traced_main_ns.push_back(
            ns(w.total - w.candidates - w.replay -
               2 * bias * window_batches) /
            instr);
        self_trace.push_back(ns(w.gen) / instr);
        self_core.push_back(ns(w.verdict + w.update + w.placement) / instr);
        self_cache.push_back(ns(w.access) / instr);

        untraced_ns.push_back(ns(untracedWindowTicks(a, *batch)) / instr);

        const std::uint64_t t0 = tick();
        a.sim_mnm.run(a.gen_mnm, window_instr);
        const std::uint64_t t1 = tick();
        a.sim_floor.run(a.gen_floor, window_instr);
        const std::uint64_t t2 = tick();
        sim_mnm_ns.push_back(ns(static_cast<double>(t1 - t0)) / window_instr);
        sim_floor_ns.push_back(ns(static_cast<double>(t2 - t1)) /
                               window_instr);
        log.add({"sim.run_mnm", a.name, -1, window, t0, t1, t1 - t0, 1});
        log.add({"sim.run_floor", a.name, -1, window, t1, t2, t2 - t1, 1});
        ++window;
    }

    // ---- cpu section: OooCore, the core-less loop, CycleOooCore
    std::vector<double> ooo_ns, mem_ns, cycle_ns;
    const double cpu_end = nowS() + 0.25 * cfg.seconds;
    for (std::size_t k = 0; k < 2 * apps.size() || nowS() < cpu_end; ++k) {
        LayerApp &a = *apps[k % apps.size()];
        const std::uint64_t t0 = tick();
        a.ooo.run(a.gen_ooo, cpu_window);
        const std::uint64_t t1 = tick();
        memOnlyWindow(a, cpu_window);
        const std::uint64_t t2 = tick();
        a.cycle.run(a.gen_cycle, cycle_window);
        const std::uint64_t t3 = tick();
        const long root = log.add({"cpu.window", a.name, -1, k, t0, t3,
                                   t3 - t0, 1});
        log.add({"cpu.ooo", a.name, root, k, t0, t1, t1 - t0, 1});
        log.add({"cpu.mem", a.name, root, k, t1, t2, t2 - t1, 1});
        log.add({"cpu.cycle_core", a.name, root, k, t2, t3, t3 - t2, 1});
        ooo_ns.push_back(ns(static_cast<double>(t1 - t0)) / cpu_window);
        mem_ns.push_back(ns(static_cast<double>(t2 - t1)) / cpu_window);
        cycle_ns.push_back(ns(static_cast<double>(t3 - t2)) / cycle_window);
    }

    // ---- runner section: runSweep over this workload's grid
    const std::vector<SweepCell> cells =
        sweep ? sweepGrid(workloadApps(cfg.workload, cfg.seed),
                          sweep_cell_instr)
              : sweepGrid(names, small_sweep_cell_instr);
    const ExperimentOptions opts = sweepOptions();
    std::vector<double> cell_ms, busy;
    for (int s = 0; s < 3; ++s) {
        const std::uint64_t t0 = tick();
        const std::vector<MemSimResult> results = runSweep(cells, opts);
        const std::uint64_t t1 = tick();
        log.add({"sim.sweep", "", -1, static_cast<std::uint64_t>(s), t0, t1,
                 t1 - t0, cells.size()});
        for (std::size_t i = 0; i < results.size(); ++i) {
            out.check(!results[i].failed &&
                          results[i].soundness_violations == 0,
                      sweepCellDisplayName(cells[i]) + ": failed or unsound");
        }
        const std::vector<double> ms = sweepCellMs(cells, results);
        cell_ms.insert(cell_ms.end(), ms.begin(), ms.end());
        busy.push_back(globalStats().gauge("runner.utilization"));
    }

    // ---- obs: MNM_PROF=time against off, in separate processes (ABBA)
    const double child_s = std::max(0.5, 0.05 * cfg.seconds);
    std::vector<double> prof_overhead;
    const char *order[2][2] = {{"off", "time"}, {"time", "off"}};
    for (auto &pair : order) {
        std::optional<double> r0 = profChildRate(cfg, pair[0], child_s);
        std::optional<double> r1 = profChildRate(cfg, pair[1], child_s);
        out.check(r0 && r1, "profiler-overhead child failed");
        if (r0 && r1) {
            const double off = pair[0][0] == 'o' ? *r0 : *r1;
            const double on = pair[0][0] == 'o' ? *r1 : *r0;
            prof_overhead.push_back(off / on - 1.0);
        }
    }

    // ---- correctness: the tracing must not change what is simulated
    LoopCounts tot, tot_u;
    std::uint64_t placements = 0, events = 0;
    for (auto &a : apps) {
        out.check(a->traced.mnm->soundnessViolations() == 0 &&
                      a->untraced.mnm->soundnessViolations() == 0 &&
                      a->ooo_engine.mnm->soundnessViolations() == 0 &&
                      a->mem_engine.mnm->soundnessViolations() == 0 &&
                      a->cycle_engine.mnm->soundnessViolations() == 0,
                  a->name + ": unsound verdict in the traced run");
        // The untraced twin ran one window per traced window.
        out.check(a->counts.latency == a->counts_untraced.latency &&
                      a->counts.coverage.identified() ==
                          a->counts_untraced.coverage.identified() &&
                      a->counts.requests == a->counts_untraced.requests,
                  a->name + ": traced loop differs from untraced twin");
        tot.instructions += a->counts.instructions;
        tot.requests += a->counts.requests;
        tot.l1_misses += a->counts.l1_misses;
        tot.probes += a->counts.probes;
        tot.writebacks += a->counts.writebacks;
        tot.from_memory += a->counts.from_memory;
        tot.coverage.merge(a->counts.coverage);
        placements += a->feed.placements;
        events += a->feed.events;
    }

    const std::string span_dir = cfg.out_dir;
    std::error_code ec;
    std::filesystem::create_directories(span_dir, ec);
    const std::string span_path = span_dir + "/spans-" + cfg.workload +
                                  "-seed" + std::to_string(cfg.seed) +
                                  ".json";
    out.check(log.write(span_path, cfg, hz),
              "could not write spans to " + span_path);
    out.report.push_back("spans: " + std::to_string(log.size()) + " -> " +
                         span_path);
    out.report.push_back("tick bias: " + fmt(ns(bias)) + " ns per bracket");

    const double req = static_cast<double>(tot.requests);
    const double sim_mnm = median(sim_mnm_ns);
    const double layer_sum =
        median(self_trace) + median(self_core) + median(self_cache);
    auto &m = out.metrics;
    m["trace.gen_ns_per_instr"] = {median(gen_ns), "ns/instr"};
    m["trace.requests_per_instr"] = {
        ratio(req, static_cast<double>(tot.instructions)), "req/instr"};
    m["cache.access_ns_per_req"] = {median(replay_ns), "ns/req"};
    m["cache.l1_miss_frac"] = {
        ratio(static_cast<double>(tot.l1_misses), req), "frac"};
    m["cache.probes_per_req"] = {
        ratio(static_cast<double>(tot.probes), req), "probes/req"};
    m["cache.fills_per_req"] = {ratio(static_cast<double>(placements), req),
                                "fills/req"};
    m["cache.writebacks_per_req"] = {
        ratio(static_cast<double>(tot.writebacks), req), "wb/req"};
    m["cache.mem_frac"] = {
        ratio(static_cast<double>(tot.from_memory), req), "frac"};
    m["cache.setup_ms"] = {median(cache_setup), "ms"};
    m["cache.self_ns_per_instr"] = {median(self_cache), "ns/instr"};
    m["core.verdict_ns_per_req"] = {median(verdict_ns), "ns/req"};
    m["core.candidates_ns_per_req"] = {median(cand_ns), "ns/req"};
    m["core.update_ns_per_event"] = {median(update_ns), "ns/event"};
    m["core.events_per_req"] = {ratio(static_cast<double>(events), req),
                                "events/req"};
    m["core.bypass_frac"] = {tot.coverage.coverage(), "frac"};
    m["core.self_ns_per_instr"] = {median(self_core), "ns/instr"};
    m["power.setup_ms"] = {median(power_setup), "ms"};
    m["sim.floor_instr_per_s"] = {1e9 / median(sim_floor_ns), "instr/s"};
    m["sim.mnm_ns_per_instr"] = {sim_mnm - median(sim_floor_ns), "ns/instr"};
    m["sim.unattributed_ns_per_instr"] = {sim_mnm - layer_sum, "ns/instr"};
    m["sim.sweep_busy_frac"] = {median(busy), "frac"};
    m["sim.cell_ms_p50"] = {quantile(cell_ms, 0.5), "ms"};
    m["sim.cell_ms_p90"] = {quantile(cell_ms, 0.9), "ms"};
    m["sim.threads"] = {static_cast<double>(workloadThreads(cfg.workload)),
                        "count"};
    m["cpu.ooo_ns_per_instr"] = {median(ooo_ns), "ns/instr"};
    m["cpu.mem_ns_per_instr"] = {median(mem_ns), "ns/instr"};
    m["cpu.cycle_core_ns_per_instr"] = {median(cycle_ns), "ns/instr"};
    m["obs.trace_overhead_frac"] = {
        ratio(median(traced_main_ns), median(untraced_ns)) - 1.0, "frac"};
    m["obs.prof_time_overhead_frac"] = {median(prof_overhead), "frac"};
}

} // namespace perfbench
