/**
 * @file
 * End-to-end workloads: func-hit and func-miss time MemorySimulator::run,
 * timing times OooCore::run, sweep times runSweep.
 *
 * Each app of a workload runs as several independent streams, each with
 * its own seed drawn from the run seed, so one run averages over seeds
 * instead of riding one seed's luck. A run repeats "fresh set-up, then
 * timed windows" for a few rounds; a window runs every stream once. The
 * outputs of every window are checked off the clock.
 */

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hh"
#include "core/presets.hh"
#include "cpu/ooo_core.hh"
#include "obs/registry.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/memory_sim.hh"
#include "sim/recovery.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"

namespace perfbench
{

using namespace mnm;

namespace
{

/** Set-up/measure rounds per run: each round rebuilds every simulator,
 *  so the quantiles pool several heap layouts. */
constexpr int rounds = 6;

/** Simulated totals over the deterministic prefix of a run. */
struct SimTotals
{
    std::uint64_t instructions = 0;
    std::uint64_t requests = 0;
    double access_cycles = 0.0;
    double energy_pj = 0.0;
    std::uint64_t identified = 0;
    std::uint64_t opportunities = 0;
    std::uint64_t digest = 0xcbf29ce484222325ULL;

    void
    add(const MemSimResult &r)
    {
        instructions += r.instructions;
        requests += r.requests;
        access_cycles += static_cast<double>(r.total_access_cycles);
        energy_pj += r.energy.total();
        identified += r.coverage.identified();
        opportunities += r.coverage.opportunities();
        digest = fnv1a(writeMemSimResult(r), digest);
    }
};

/** Host times of one run, each with the calibration pass time taken
 *  right after it (see Calibrator). */
struct Timings
{
    std::vector<double> setup_s;       //!< per round
    std::vector<double> setup_cal_ms;  //!< per round
    std::vector<double> window_ms;     //!< per window
    std::vector<double> window_cal_ms; //!< per window
};

/** Share of a window's time spent calibrating after it (at least one
 *  pass, so about 8% on the 30-40 ms func and timing windows). */
constexpr double calibration_share = 0.05;

/** Least calibration after a set-up: rounds are seconds apart, so each
 *  set-up is calibrated on its own, not with its neighbours. */
constexpr double setup_calibration_s = 0.02;

/**
 * Time windows in rounds. Each round @p setup rebuilds the workload's
 * state; @p window(round, k) runs window k of the round and is timed;
 * @p check(round, k) then checks its outputs off the clock. The set-up
 * and every window are followed by a sample of @p cal, also off the
 * clock. The caller pins its thread, and so every thread the workload
 * starts, to as many CPUs as the workload runs threads, and @p cal
 * samples each of them, since a co-tenant may slow one CPU and not
 * another. Round 0 runs at least @p min_windows windows (the
 * deterministic prefix the simulated statistics come from) whatever the
 * clock says. Under lockstep, returns holding the token, so the
 * caller's remaining checks do not overlap the partner's windows.
 */
template <typename Setup, typename Window, typename Check>
void
measureRounds(const RunConfig &cfg, std::size_t min_windows,
              Calibration &cal, Setup &&setup, Window &&window,
              Check &&check, Timings &t)
{
    Lockstep turn(cfg.lockstep_in, cfg.lockstep_out);
    const double per_round = cfg.seconds / rounds;
    for (int r = 0; r < rounds; ++r) {
        turn.acquire();
        const double s0 = nowS();
        setup();
        t.setup_s.push_back(nowS() - s0);
        t.setup_cal_ms.push_back(cal.sample(
            std::max(setup_calibration_s,
                     t.setup_s.back() * calibration_share)));
        turn.release();
        const double start = nowS();
        for (std::size_t k = 0;
             (r == 0 && k < min_windows) || nowS() - start < per_round;
             ++k) {
            turn.acquire();
            const double w0 = nowS();
            window(r, k);
            if (cfg.inject_slowdown > 0.0)
                busyWait((nowS() - w0) * cfg.inject_slowdown);
            t.window_ms.push_back((nowS() - w0) * 1e3);
            check(r, k);
            t.window_cal_ms.push_back(
                cal.sample(t.window_ms.back() / 1e3 * calibration_share));
            turn.release();
        }
    }
    turn.acquire();
}

std::string
hex(std::uint64_t v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/**
 * The end-to-end metrics every workload reports, from calibrated host
 * times: the median set-up over the rounds, and the lower decile over
 * every timed window of every round (@p window_ms: one figure per
 * window, which for the sweep is the median cell of that sweep). The
 * lower decile because a co-tenant episode only ever adds time, and
 * calibration takes out most but not all of it (within a run the
 * simulator slows 0.8-1.7 times as much as the kernel, in log terms):
 * over five 20-second runs of func-miss, one of them in a noisy
 * stretch, the calibrated p10 spread 4% where the p25 spread 12%. Raw
 * quantiles go to the report; so does the p90, which follows other
 * tenants' bursts.
 */
void
reportEndToEnd(Outcome &out, const Timings &t,
               const std::vector<double> &window_ms,
               double instr_per_window, const SimTotals &sim)
{
    const std::vector<double> windows =
        calibrated(window_ms, t.window_cal_ms);
    out.metrics["setup_s"] = {
        median(calibrated(t.setup_s, t.setup_cal_ms, 0)), "s"};
    out.metrics["sim_instr_per_s"] = {
        instr_per_window /
            (quantile(calibrated(t.window_ms, t.window_cal_ms), 0.1) / 1e3),
        "instr/s"};
    out.metrics["window_ms_p10"] = {quantile(windows, 0.1), "ms"};
    out.metrics["peak_rss_mb"] = {peakRssMiB(), "MiB"};
    out.metrics["mnm_coverage_pct"] = {
        sim.opportunities ? 100.0 * static_cast<double>(sim.identified) /
                                static_cast<double>(sim.opportunities)
                          : 0.0,
        "%"};
    out.metrics["access_cycles_per_req"] = {
        sim.requests ? sim.access_cycles /
                           static_cast<double>(sim.requests)
                     : 0.0,
        "cycles"};
    out.report.push_back(
        std::to_string(windows.size()) + " windows over " +
        std::to_string(t.setup_s.size()) + " rounds; calibrated window_ms " +
        "p10 " + fmt(quantile(windows, 0.1)) + ", p25 " +
        fmt(quantile(windows, 0.25)) + ", p50 " + fmt(median(windows)) +
        ", p90 " + fmt(quantile(windows, 0.9)));
    out.report.push_back(
        "raw window_ms p10 " + fmt(quantile(window_ms, 0.1)) + ", p25 " +
        fmt(quantile(window_ms, 0.25)) + ", p50 " +
        fmt(median(window_ms)) + ", p90 " + fmt(quantile(window_ms, 0.9)) +
        "; raw setup_s p50 " + fmt(median(t.setup_s)) +
        "; calibration pass ms p10 " + fmt(quantile(t.window_cal_ms, 0.1)) +
        ", p50 " + fmt(median(t.window_cal_ms)) + ", p90 " +
        fmt(quantile(t.window_cal_ms, 0.9)) + " (reference " +
        fmt(reference_pass_ms) + ")");
    out.report.push_back("sim digest: " + hex(sim.digest));
}

// ---------------------------------------------------------------- func

struct FuncSizes
{
    std::uint64_t warmup;  //!< instructions per stream before timing
    std::uint64_t window;  //!< instructions per stream per window
    std::size_t prefix;    //!< round-0 windows the sim stats cover
    std::size_t ref_check; //!< windows re-run on the reference kernel
};

FuncSizes
funcSizes(const std::string &workload)
{
    if (workload == "func-hit")
        return {300'000, 100'000, 16, 2};
    return {200'000, 15'000, 24, 3};
}

/** One seeded stream of one app through its own simulator. */
struct FuncStream
{
    std::string name;
    SyntheticParams params;
    std::unique_ptr<MemorySimulator> sim;
    std::unique_ptr<SyntheticWorkload> gen;

    void
    build(std::uint64_t sim_seed, bool reference)
    {
        sim = std::make_unique<MemorySimulator>(paperHierarchy(5),
                                                makeHmnmSpec(4), sim_seed);
        if (reference) {
            sim->setReferenceKernel(true);
            sim->setReferenceFeed(true);
        }
        gen = std::make_unique<SyntheticWorkload>(params);
    }
};

bool
soundWindow(const MemSimResult &r)
{
    return r.soundness_violations == 0 && r.decisions.forbidden() == 0;
}

std::string
windowName(const std::string &stream, std::size_t k)
{
    return stream + " window " + std::to_string(k);
}

} // anonymous namespace

void
runFunc(const RunConfig &cfg, Outcome &out)
{
    const FuncSizes sz = funcSizes(cfg.workload);
    const std::uint64_t sim_seed = mix64(cfg.seed) | 1;
    std::vector<FuncStream> streams;
    for (const StreamSpec &s : workloadStreams(cfg.workload, cfg.seed))
        streams.push_back({s.name, s.params, nullptr, nullptr});

    // Window results of round 0, compared against every later round (which
    // replays the same inputs) and against the reference-kernel re-run.
    std::vector<std::vector<std::string>> round0(streams.size());
    std::vector<MemSimResult> results(streams.size());
    SimTotals sim;
    Timings t;

    Calibration cal(pinToFirstCpus(workloadThreads(cfg.workload)));
    measureRounds(
        cfg, sz.prefix, cal,
        [&] {
            for (FuncStream &s : streams) {
                s.build(sim_seed, false);
                s.sim->run(*s.gen, sz.warmup);
            }
        },
        [&](int, std::size_t) {
            for (std::size_t i = 0; i < streams.size(); ++i)
                results[i] = streams[i].sim->run(*streams[i].gen, sz.window);
        },
        [&](int round, std::size_t k) {
            for (std::size_t i = 0; i < streams.size(); ++i) {
                const MemSimResult &r = results[i];
                const std::string name = windowName(streams[i].name, k);
                out.check(soundWindow(r), name + ": unsound verdict");
                const std::string key = writeMemSimResult(r);
                if (round == 0) {
                    round0[i].push_back(key);
                    if (k < sz.prefix)
                        sim.add(r);
                } else if (k < round0[i].size()) {
                    out.check(key == round0[i][k],
                              name + " of round " + std::to_string(round) +
                                  " differs from round 0");
                }
            }
        },
        t);
    reportEndToEnd(out, t, t.window_ms,
                   static_cast<double>(sz.window * streams.size()), sim);
    out.report.push_back(
        "energy_pj_per_req: " +
        fmt(sim.requests ? sim.energy_pj / static_cast<double>(sim.requests)
                         : 0.0));

    // The prefix again on the reference kernel and the reference feed:
    // every window must be bit-identical to the batched engine's.
    for (std::size_t i = 0; i < streams.size(); ++i) {
        FuncStream ref{streams[i].name, streams[i].params, nullptr, nullptr};
        ref.build(sim_seed, true);
        ref.sim->run(*ref.gen, sz.warmup);
        for (std::size_t k = 0; k < sz.ref_check; ++k) {
            const MemSimResult r = ref.sim->run(*ref.gen, sz.window);
            out.check(writeMemSimResult(r) == round0[i][k],
                      windowName(streams[i].name, k) +
                          ": reference kernel differs from batched");
        }
    }
}

// -------------------------------------------------------------- timing

namespace
{

struct TimingStream
{
    std::string name;
    SyntheticParams params;
    std::unique_ptr<CacheHierarchy> hierarchy;
    std::unique_ptr<MnmUnit> mnm;
    std::unique_ptr<OooCore> core;
    std::unique_ptr<SyntheticWorkload> gen;

    void
    build(std::uint64_t sim_seed)
    {
        core.reset();
        mnm.reset();
        hierarchy = std::make_unique<CacheHierarchy>(paperHierarchy(5),
                                                     sim_seed);
        mnm = std::make_unique<MnmUnit>(makeHmnmSpec(4), *hierarchy);
        core = std::make_unique<OooCore>(paperCpu(5), *hierarchy,
                                         mnm.get());
        gen = std::make_unique<SyntheticWorkload>(params);
    }
};

/** Every CpuRunStats field plus the core's running coverage. */
std::string
statsKey(const CpuRunStats &s, const CoverageTracker &c)
{
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 " %" PRIu64,
                  s.instructions, static_cast<std::uint64_t>(s.cycles),
                  s.loads, s.stores, s.branches, s.mispredicts,
                  s.fetch_line_accesses,
                  static_cast<std::uint64_t>(s.data_access_cycles),
                  s.data_accesses, c.identified(), c.unidentified());
    return buf;
}

constexpr std::uint64_t timing_warmup = 100'000;
constexpr std::uint64_t timing_window = 15'000;
constexpr std::size_t timing_prefix = 16;
constexpr std::size_t timing_twin_check = 3;

} // anonymous namespace

void
runTiming(const RunConfig &cfg, Outcome &out)
{
    const std::uint64_t sim_seed = mix64(cfg.seed) | 1;
    std::vector<TimingStream> streams;
    for (const StreamSpec &s : workloadStreams(cfg.workload, cfg.seed)) {
        TimingStream t;
        t.name = s.name;
        t.params = s.params;
        streams.push_back(std::move(t));
    }

    std::vector<std::vector<std::string>> round0(streams.size());
    std::vector<CpuRunStats> stats(streams.size());
    std::vector<CoverageTracker> cov_before(streams.size());
    SimTotals sim;
    std::uint64_t cycles = 0;
    Timings t;

    Calibration cal(pinToFirstCpus(workloadThreads(cfg.workload)));
    measureRounds(
        cfg, timing_prefix, cal,
        [&] {
            for (std::size_t i = 0; i < streams.size(); ++i) {
                streams[i].build(sim_seed);
                streams[i].core->run(*streams[i].gen, timing_warmup);
                cov_before[i] = streams[i].core->coverage();
            }
        },
        [&](int, std::size_t) {
            for (std::size_t i = 0; i < streams.size(); ++i)
                stats[i] = streams[i].core->run(*streams[i].gen,
                                                timing_window);
        },
        [&](int round, std::size_t k) {
            for (std::size_t i = 0; i < streams.size(); ++i) {
                TimingStream &s = streams[i];
                const std::string name = windowName(s.name, k);
                out.check(s.mnm->soundnessViolations() == 0,
                          name + ": unsound verdict");
                const std::string key = statsKey(stats[i], s.core->coverage());
                if (round != 0) {
                    if (k < round0[i].size()) {
                        out.check(key == round0[i][k],
                                  name + " of round " +
                                      std::to_string(round) +
                                      " differs from round 0");
                    }
                    continue;
                }
                round0[i].push_back(key);
                if (k < timing_prefix) {
                    sim.instructions += stats[i].instructions;
                    sim.requests += stats[i].data_accesses;
                    sim.access_cycles +=
                        static_cast<double>(stats[i].data_access_cycles);
                    cycles += stats[i].cycles;
                    sim.digest = fnv1a(key, sim.digest);
                }
                if (k + 1 == timing_prefix) {
                    const CoverageTracker &c = s.core->coverage();
                    sim.identified +=
                        c.identified() - cov_before[i].identified();
                    sim.opportunities +=
                        c.opportunities() - cov_before[i].opportunities();
                }
            }
        },
        t);
    reportEndToEnd(out, t, t.window_ms,
                   static_cast<double>(timing_window * streams.size()), sim);
    out.report.push_back(
        "ipc: " + fmt(cycles ? static_cast<double>(sim.instructions) /
                                   static_cast<double>(cycles)
                             : 0.0));

    // Two cores fed the same seed must agree window by window.
    for (const TimingStream &s : streams) {
        TimingStream twin[2];
        for (TimingStream &t : twin) {
            t.name = s.name;
            t.params = s.params;
            t.build(sim_seed);
            t.core->run(*t.gen, timing_warmup);
        }
        for (std::size_t k = 0; k < timing_twin_check; ++k) {
            std::string keys[2];
            for (int j = 0; j < 2; ++j) {
                keys[j] = statsKey(
                    twin[j].core->run(*twin[j].gen, timing_window),
                    twin[j].core->coverage());
            }
            out.check(keys[0] == keys[1],
                      windowName(s.name, k) + ": twin cores disagree");
        }
    }
}

// --------------------------------------------------------------- sweep

namespace
{

std::vector<SweepVariant>
sweepVariants()
{
    const HierarchyParams h = paperHierarchy(5);
    return {{"none", h, std::nullopt},
            {"RMNM_2048_4", h, mnmSpecByName("RMNM_2048_4")},
            {"TMNM_13x2", h, mnmSpecByName("TMNM_13x2")},
            {"HMNM4", h, makeHmnmSpec(4)},
            {"Perfect", h, makePerfectSpec()}};
}

/** Times the sweep's set-up builds the grid in each round; setup_s is
 *  the median build. */
constexpr int sweep_setup_builds = 8;

} // anonymous namespace

std::vector<SweepCell>
sweepGrid(const std::vector<std::string> &apps, std::uint64_t instr)
{
    return makeGridCells(apps, sweepVariants(), instr);
}

ExperimentOptions
sweepOptions()
{
    ExperimentOptions opts;
    opts.jobs = sweepJobs();
    opts.retries = 0;
    return opts;
}

std::vector<double>
sweepCellMs(const std::vector<SweepCell> &cells,
            const std::vector<MemSimResult> &results)
{
    // runSweep folds each cell's measured-window instr/s, taken over the
    // cell's whole wall clock (set-up and warm-up included), into
    // "runner.<label>.<app>.instr_per_sec"; invert it back to ms.
    std::vector<double> ms;
    StatsRegistry &stats = globalStats();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::string path =
            "runner." + sanitizeMetricSegment(cells[i].label) + "." +
            sanitizeMetricSegment(
                ExperimentOptions::shortName(cells[i].app)) +
            ".instr_per_sec";
        if (results[i].failed || !stats.has(path))
            continue;
        const double rate = stats.gauge(path);
        if (rate > 0.0) {
            ms.push_back(static_cast<double>(results[i].instructions) *
                         1e3 / rate);
        }
    }
    return ms;
}

void
runSweepWorkload(const RunConfig &cfg, Outcome &out)
{
    const ExperimentOptions opts = sweepOptions();
    const std::vector<std::string> apps =
        workloadApps(cfg.workload, cfg.seed);
    std::vector<SweepCell> cells;
    std::vector<MemSimResult> results;
    std::vector<std::string> first;
    SimTotals sim;
    Timings t;
    std::vector<double> cell_ms_p50; // per sweep
    std::vector<double> build_s;     // per round, the median build
    std::uint64_t sweep_instr = 0;

    Calibration cal(pinToFirstCpus(workloadThreads(cfg.workload)));
    measureRounds(
        cfg, 1, cal,
        [&] {
            // What the grid's cells pay before their first instruction:
            // a simulator (hierarchy, MNM structures, power model) and a
            // generator each. A few milliseconds, so built several times.
            std::vector<double> builds;
            for (int b = 0; b < sweep_setup_builds; ++b) {
                const double b0 = nowS();
                cells = sweepGrid(apps, sweep_cell_instr);
                for (const SweepCell &c : cells) {
                    MemorySimulator probe(c.hierarchy, c.mnm);
                    makeSpecWorkload(c.app);
                }
                builds.push_back(nowS() - b0);
            }
            build_s.push_back(median(builds));
        },
        [&](int, std::size_t) { results = runSweep(cells, opts); },
        [&](int, std::size_t) {
            cell_ms_p50.push_back(median(sweepCellMs(cells, results)));
            const bool record = first.empty();
            sweep_instr = 0;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const MemSimResult &r = results[i];
                const std::string name = sweepCellDisplayName(cells[i]);
                out.check(!r.failed, name + ": " + r.fail_reason);
                if (r.failed)
                    continue;
                out.check(soundWindow(r), name + ": unsound verdict");
                sweep_instr += r.instructions;
                const std::string key = writeMemSimResult(r);
                if (record) {
                    first.push_back(key);
                    sim.add(r);
                } else if (i < first.size()) {
                    out.check(key == first[i],
                              name + ": differs from the first sweep");
                }
            }
        },
        t);

    t.setup_s = build_s;
    // Throughput is over whole sweeps; window_ms is per cell.
    reportEndToEnd(out, t, cell_ms_p50, static_cast<double>(sweep_instr),
                   sim);
    out.report.push_back(std::to_string(t.window_ms.size()) + " sweeps of " +
                         std::to_string(cells.size()) + " cells on " +
                         std::to_string(opts.jobs) + " jobs; sweep_ms p50 " +
                         fmt(median(t.window_ms)));
    out.report.push_back(
        "energy_pj_per_req: " +
        fmt(sim.requests ? sim.energy_pj / static_cast<double>(sim.requests)
                         : 0.0));
    out.check(sweepExitCode() == 0, "runSweep reported a failed cell");
}

} // namespace perfbench
