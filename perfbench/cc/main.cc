/**
 * @file
 * Entry point of the repeatable benchmark.
 *
 *   mnm_perfbench --workload <func-hit|func-miss|timing|sweep>
 *                 --seed <n> --seconds <s> --trace <0|1>
 *                 [--inject-slowdown <frac>] [--out-dir <dir>]
 *                 [--lockstep-in <fd> --lockstep-out <fd>]
 *
 * Prints a host fingerprint, a human-readable report and, as the last
 * line, one JSON object {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 measures the end-to-end metrics, --trace 1 the per-layer
 * ones. Exits 1 when any correctness check failed, 2 on bad arguments.
 */

#include <malloc.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hh"
#include "obs/manifest.hh"
#include "util/cpu.hh"

namespace
{

using namespace perfbench;

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "mnm_perfbench: %s\nusage: mnm_perfbench --workload "
                 "<func-hit|func-miss|timing|sweep> --seed <n> --seconds "
                 "<s> --trace <0|1> [--inject-slowdown <frac>] "
                 "[--out-dir <dir>] [--lockstep-in <fd> --lockstep-out "
                 "<fd>] [--prof-child]\n",
                 why);
    std::exit(2);
}

bool
optimisedBuild()
{
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    return true;
#else
    return false;
#endif
}

void
printFingerprint(const RunConfig &cfg, unsigned threads)
{
    std::printf("fingerprint: nproc=%u simd_native=%s simd_used=%s "
                "overlap_threaded=%s compiler=\"%s\" build=%s "
                "optimised=%s git=%s workload=%s threads=%u seed=%llu "
                "trace=%d\n",
                std::thread::hardware_concurrency(),
                mnm::simdBackendName(mnm::nativeSimdBackend()),
                mnm::simdBackendName(mnm::simdBackendFromEnv()),
                pipelineThreaded() ? "yes" : "no", PERFBENCH_CXX_ID,
                PERFBENCH_BUILD_TYPE, optimisedBuild() ? "yes" : "no",
                mnm::gitDescribe(), cfg.workload.c_str(), threads,
                static_cast<unsigned long long>(cfg.seed), cfg.trace);
    if (!optimisedBuild())
        std::printf("WARNING: non-optimised build; host times are not "
                    "comparable with a Release build\n");
}

/** JSON number with every digit of @p v. */
std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    bool have_seed = false, have_seconds = false, have_trace = false;
    bool prof_child = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--prof-child") {
            prof_child = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value after " + arg).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            cfg.workload = val;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(val, &end, 10);
            have_seed = end && *end == '\0' && *val;
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(val, &end);
            have_seconds =
                end && *end == '\0' && cfg.seconds > 0.0 && cfg.seconds <= 600.0;
        } else if (arg == "--trace") {
            have_trace = !std::strcmp(val, "0") || !std::strcmp(val, "1");
            cfg.trace = !std::strcmp(val, "1");
        } else if (arg == "--inject-slowdown") {
            cfg.inject_slowdown = std::strtod(val, &end);
            if (!end || *end || cfg.inject_slowdown < 0.0 ||
                cfg.inject_slowdown > 1.0)
                usage("--inject-slowdown takes a fraction in [0, 1]");
        } else if (arg == "--out-dir") {
            cfg.out_dir = val;
        } else if (arg == "--lockstep-in" || arg == "--lockstep-out") {
            const long fd = std::strtol(val, &end, 10);
            if (!end || *end || fd < 0 || fd > 1023)
                usage((arg + " takes a file descriptor").c_str());
            (arg == "--lockstep-in" ? cfg.lockstep_in : cfg.lockstep_out) =
                static_cast<int>(fd);
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (cfg.workload != "func-hit" && cfg.workload != "func-miss" &&
        cfg.workload != "timing" && cfg.workload != "sweep")
        usage("--workload must be func-hit, func-miss, timing or sweep");
    if (!have_seed || !have_seconds)
        usage("--seed and --seconds are required");
    if (prof_child)
        return runProfChild(cfg);
    if (!have_trace)
        usage("--trace must be 0 or 1");
    if ((cfg.lockstep_in < 0) != (cfg.lockstep_out < 0))
        usage("--lockstep-in and --lockstep-out go together");
    // A partner that exits first closes its pipe; see that as EPIPE.
    std::signal(SIGPIPE, SIG_IGN);

    // Fixed malloc thresholds. glibc otherwise raises its mmap threshold
    // as large blocks are freed and trims the heap as it sees fit, which
    // moved one sweep set-up between 1.8 ms (memory reused) and 5.5 ms
    // (fresh pages faulted in) from one round to the next.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    // Every simulator runs on one thread: with the overlap pipeline's
    // producer thread on a second CPU, func-hit's calibrated windows
    // read 20 ms in one set of runs and 28 ms in the next, as the two
    // CPUs' co-tenants came and went. Set before anything reads the
    // knob, which the simulator latches.
    setenv("MNM_OVERLAP", "off", 1);

    Outcome out;
    printFingerprint(cfg, workloadThreads(cfg.workload));
    std::fflush(stdout);
    if (cfg.trace)
        runLayers(cfg, out);
    else if (cfg.workload == "timing")
        runTiming(cfg, out);
    else if (cfg.workload == "sweep")
        runSweepWorkload(cfg, out);
    else
        runFunc(cfg, out);

    for (auto &[name, m] : out.metrics) {
        if (!std::isfinite(m.value)) {
            out.fail("metric " + name + " is not finite");
            m.value = 0.0;
        }
    }
    for (const std::string &line : out.report)
        std::printf("%s\n", line.c_str());
    for (const auto &[name, m] : out.metrics)
        std::printf("  %-32s %16.6g %s\n", name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("failed_frac: %s (%llu of %llu checks)\n",
                jsonNumber(out.attempted
                               ? static_cast<double>(out.failed) /
                                     static_cast<double>(out.attempted)
                               : 0.0)
                    .c_str(),
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));

    std::string json = "{\"correct\": ";
    json += out.failed ? "false" : "true";
    json += ", \"attempted\": " + std::to_string(out.attempted);
    json += ", \"failed\": " + std::to_string(out.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : out.metrics) {
        json += first ? "" : ", ";
        first = false;
        json += "\"" + name + "\": {\"value\": " + jsonNumber(m.value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return out.failed ? 1 : 0;
}
