/**
 * @file
 * Shared pieces of the repeatable benchmark: the run configuration,
 * host clocks, order statistics, seeding and the result record every
 * workload fills in.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "trace/synthetic.hh"

namespace perfbench
{

/** Command-line configuration of one benchmark process. */
struct RunConfig
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Busy-wait this share of every timed window's own work inside the
     *  timing loop (sensitivity self-check; 0 = off). */
    double inject_slowdown = 0.0;
    /** Directory the traced run writes its span file into. */
    std::string out_dir = ".bench_build";
    /** Pipe ends of the turn-taking token (see Lockstep); -1 = alone. */
    int lockstep_in = -1;
    int lockstep_out = -1;
};

/**
 * Window-by-window turn taking with a partner process (compare.py pair
 * and selfcheck). A one-byte token travels over two pipes, so the two
 * processes' set-ups and timed windows alternate instead of overlapping,
 * and both see the same drift of a shared host. Once the partner has
 * exited (end of file), the process carries on alone.
 */
class Lockstep
{
  public:
    Lockstep(int in, int out) : in_(in), out_(out) {}

    /** Wait for the token (returns at once when alone). */
    void acquire();
    /** Hand the token to the partner. */
    void release();

  private:
    void alone();

    int in_;
    int out_;
};

/** Seconds on the monotonic clock. */
inline double
nowS()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

/** Spin until @p seconds have passed (the injected slowdown). */
inline void
busyWait(double seconds)
{
    const double end = nowS() + seconds;
    while (nowS() < end) {
    }
}

/**
 * Host-speed calibration. A shared host's co-tenants slow this process
 * down in episodes that last seconds to minutes (+30-60% on the
 * simulator, seen on a 4-vCPU KVM guest), far more than one run can
 * average away. After every timed window the benchmark runs a fixed
 * kernel that lives here, so no change to the simulator can move it:
 * set-associative LRU tag lookups from four interleaved address streams
 * over a 384 KiB table, the same kind of work the simulator does. The
 * table fits the host's L2 with room to spare, so how its pages happen
 * to map onto cache sets (which differs from process to process) cannot
 * move it; a 1.5 MiB table read up to 30% apart from one process to the
 * next. The window's time is then rescaled by reference_pass_ms / (the
 * kernel's time next to it), so an episode that slows both cancels out,
 * while a change in the simulator's own speed passes through one for
 * one.
 */
class Calibrator
{
  public:
    Calibrator();

    /** Run the kernel once; its host ms. */
    double pass();

    /** Run the kernel for about @p budget_s (at least once); the median
     *  pass in ms. */
    double sample(double budget_s);

  private:
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint32_t> stamps_;
    std::uint32_t clock_ = 0;
    std::uint64_t seed_ = 1;
};

/**
 * Calibration samples taken where a workload runs: for a workload whose
 * threads are pinned to @p cpus, on one thread per CPU at once, each
 * pinned to its CPU (the mean of their median passes); on the calling
 * thread when @p cpus is empty.
 */
class Calibration
{
  public:
    explicit Calibration(std::vector<int> cpus = {});

    double sample(double budget_s);

  private:
    std::vector<int> cpus_;
    std::vector<Calibrator> per_cpu_;
};

/** Pin the calling thread, and so every thread it starts later, to the
 *  first @p n CPUs it may run on. Returns those CPUs, or nothing (and
 *  pins nothing) when it may run on fewer or pinning fails. */
std::vector<int> pinToFirstCpus(unsigned n);

/** One calibration pass's time on an undisturbed reference host (the
 *  4-vCPU Xeon KVM guest the bounds were set on), so calibrated times
 *  read in that host's milliseconds. */
constexpr double reference_pass_ms = 2.4;

/**
 * @p raw host times rescaled to the reference host: sample i times
 * reference_pass_ms over the median of the calibration passes
 * @p pass_ms of samples i-reach..i+reach (one pass figure per sample).
 */
std::vector<double> calibrated(const std::vector<double> &raw,
                               const std::vector<double> &pass_ms,
                               std::size_t reach = 2);

/** Linear-interpolated quantile of @p v (0 <= q <= 1); 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** SplitMix64 finaliser: decorrelates (run seed, stream index) pairs. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** The named app's generator parameters, seeded from the run seed and
 *  the stream number (streams of one app are independent draws). */
mnm::SyntheticParams appParams(const std::string &app,
                               std::uint64_t run_seed, unsigned stream);

/** FNV-1a over @p text, chained from @p h (the simulated-stat digest). */
inline std::uint64_t
fnv1a(const std::string &text, std::uint64_t h = 0xcbf29ce484222325ULL)
{
    for (unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** One reported metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run hands back to main(). */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Metrics for the result line, by name. */
    std::map<std::string, Metric> metrics;
    /** Human-readable report lines printed above the result line. */
    std::vector<std::string> report;

    void
    fail(const std::string &what)
    {
        ++failed;
        report.push_back("FAILED: " + what);
    }
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok)
            fail(what);
    }
};

/** Peak resident set of this process in MiB. */
double peakRssMiB();

/** "%.6g"-style formatting for report lines. */
std::string fmt(double v);

/** The workload's apps, in the order the given run seed deals them. */
std::vector<std::string> workloadApps(const std::string &workload,
                                      std::uint64_t run_seed);

/** Independent seeded streams each app of a func-* or timing workload
 *  runs as. */
constexpr unsigned streams_per_app = 4;

/** One seeded stream of one app ("181.mcf#2"). */
struct StreamSpec
{
    std::string name;
    mnm::SyntheticParams params;
};

/** Every stream of the workload's apps, app-major. */
std::vector<StreamSpec> workloadStreams(const std::string &workload,
                                        std::uint64_t run_seed);

/** Threads the workload's end-to-end measurement runs at once. */
unsigned workloadThreads(const std::string &workload);

/** Sweep worker threads: half the hardware threads. Cells run with the
 *  overlap pipeline off (main() sets MNM_OVERLAP=off), so each cell is
 *  one thread and the rest of the host stays free for the benchmark's
 *  own bookkeeping. */
unsigned sweepJobs();

/** Does MemorySimulator::run hand generation to a producer thread on
 *  this host (overlap on and at least two hardware threads)? */
bool pipelineThreaded();

/** Instructions per cell of the sweep workload's grid. */
constexpr std::uint64_t sweep_cell_instr = 100'000;

/** The sweep workload's grid: @p apps x {no MNM, RMNM_2048_4,
 *  TMNM_13x2, HMNM4, Perfect} at @p instr instructions per cell. */
std::vector<mnm::SweepCell> sweepGrid(const std::vector<std::string> &apps,
                                      std::uint64_t instr);

/** runSweep options for the sweep grid (sweepJobs() threads, no
 *  retries: the simulation is deterministic, so a retry only hides). */
mnm::ExperimentOptions sweepOptions();

/** Per-cell wall ms of the last runSweep, read back from its telemetry
 *  (failed cells skipped). */
std::vector<double> sweepCellMs(const std::vector<mnm::SweepCell> &cells,
                                const std::vector<mnm::MemSimResult> &results);

/** End-to-end measurements; each fills @p out. */
void runFunc(const RunConfig &cfg, Outcome &out);
void runTiming(const RunConfig &cfg, Outcome &out);
void runSweepWorkload(const RunConfig &cfg, Outcome &out);

/** The traced per-layer run (--trace 1). */
void runLayers(const RunConfig &cfg, Outcome &out);

/** Child process of the profiler-overhead measurement: stream HMNM4
 *  windows for @p cfg.seconds and print the instr/s figure. */
int runProfChild(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
