#include "sim/experiment.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "obs/manifest.hh"
#include "sim/runner.hh"
#include "trace/spec2000.hh"
#include "util/logging.hh"

namespace mnm
{

unsigned long long
parseEnvU64(const char *name, const char *env, unsigned long long min,
            unsigned long long max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || errno != 0 ||
        std::isspace(static_cast<unsigned char>(env[0])) ||
        env[0] == '-') {
        fatal("%s='%s' is not an unsigned integer", name, env);
    }
    if (v < min || v > max) {
        fatal("%s=%llu is out of range [%llu, %llu]", name, v, min, max);
    }
    return v;
}

namespace
{

/** Parse @p env as exactly "0" or "1". */
bool
parseEnvBool(const char *name, const char *env)
{
    if (env[0] != '\0' && env[1] == '\0' &&
        (env[0] == '0' || env[0] == '1')) {
        return env[0] == '1';
    }
    fatal("%s='%s' must be 0 or 1", name, env);
    return false; // unreachable; fatal() exits
}

} // anonymous namespace

ExperimentOptions
ExperimentOptions::fromEnv()
{
    ExperimentOptions opts;
    if (const char *env = std::getenv("MNM_INSTRUCTIONS")) {
        opts.instructions =
            parseEnvU64("MNM_INSTRUCTIONS", env, 1,
                        std::numeric_limits<unsigned long long>::max());
    }
    if (const char *env = std::getenv("MNM_APPS")) {
        std::stringstream stream(env);
        std::string app;
        while (std::getline(stream, app, ',')) {
            if (app.empty())
                continue;
            // Accept both "164.gzip" and "gzip".
            bool found = false;
            for (const std::string &full : specAllNames()) {
                if (full == app || shortName(full) == app) {
                    opts.apps.push_back(full);
                    found = true;
                    break;
                }
            }
            if (!found)
                fatal("MNM_APPS: unknown workload '%s'", app.c_str());
        }
    }
    if (opts.apps.empty())
        opts.apps = specAllNames();
    if (const char *env = std::getenv("MNM_CSV"))
        opts.csv = parseEnvBool("MNM_CSV", env);
    opts.jobs = jobsFromEnv();
    if (const char *env = std::getenv("MNM_PROGRESS"))
        opts.progress = parseEnvBool("MNM_PROGRESS", env);
    if (const char *env = std::getenv("MNM_STATS_JSON"))
        opts.stats_json = env;
    if (const char *env = std::getenv("MNM_TRACE_FILE"))
        opts.trace_file = env;
    if (const char *env = std::getenv("MNM_CHECKPOINT"))
        opts.checkpoint = env;
    if (const char *env = std::getenv("MNM_WORKERS")) {
        opts.workers = static_cast<unsigned>(
            parseEnvU64("MNM_WORKERS", env, 0, 1024));
    }
    if (const char *env = std::getenv("MNM_POISON_LIMIT")) {
        opts.poison_limit = static_cast<unsigned>(
            parseEnvU64("MNM_POISON_LIMIT", env, 1, 1000));
    }
    if (const char *env = std::getenv("MNM_WORKER_BACKOFF_MS")) {
        opts.worker_backoff_ms = static_cast<unsigned>(
            parseEnvU64("MNM_WORKER_BACKOFF_MS", env, 0, 60000));
    }
    if (const char *env = std::getenv("MNM_RETRIES")) {
        opts.retries = static_cast<unsigned>(
            parseEnvU64("MNM_RETRIES", env, 0, 100));
    }
    if (const char *env = std::getenv("MNM_CELL_TIMEOUT_S")) {
        char *end = nullptr;
        errno = 0;
        double v = std::strtod(env, &end);
        if (end == env || *end != '\0' || errno != 0 ||
            !std::isfinite(v) || v <= 0.0 || v > 86400.0) {
            fatal("MNM_CELL_TIMEOUT_S='%s' must be a number of seconds "
                  "in (0, 86400]",
                  env);
        }
        opts.cell_timeout_s = v;
    }
    if (const char *env = std::getenv("MNM_FAIL_CELL"))
        opts.fail_cell = parseCellFaultSpec(env);
    // Arm the exit-time manifest/trace writers and echo the resolved
    // configuration into the manifest. Inert when both knobs are unset.
    initRunTelemetry();
    setRunConfig(opts.instructions, opts.apps, opts.jobs, opts.workers,
                 opts.csv);
    return opts;
}

std::string
ExperimentOptions::shortName(const std::string &app)
{
    auto dot = app.find('.');
    return dot == std::string::npos ? app : app.substr(dot + 1);
}

bool
referenceKernelFromEnv()
{
    static const bool reference_kernel = [] {
        const char *env = std::getenv("MNM_REFERENCE_KERNEL");
        return env && parseEnvBool("MNM_REFERENCE_KERNEL", env);
    }();
    return reference_kernel;
}

MemSimResult
runFunctional(const HierarchyParams &hierarchy,
              const std::optional<MnmSpec> &mnm, const std::string &app,
              std::uint64_t instructions)
{
    MemorySimulator sim(hierarchy, mnm);
    // CI escape hatch: run every cell through the single-step virtual
    // reference kernel so stdout can be byte-diffed against the
    // batched verdict-plan path.
    if (referenceKernelFromEnv())
        sim.setReferenceKernel(true);
    // Same escape hatch for the update side: interpret the MNM's event
    // ring through the virtual per-filter calls so stdout can be
    // byte-diffed against the update-kernel path.
    static const bool reference_feed = [] {
        const char *env = std::getenv("MNM_REFERENCE_FEED");
        return env && parseEnvBool("MNM_REFERENCE_FEED", env);
    }();
    if (reference_feed)
        sim.setReferenceFeed(true);
    auto workload = makeSpecWorkload(app);
    std::uint64_t warmup = instructions / 10;
    if (warmup)
        sim.run(*workload, warmup); // discard accounting; warm state
    return sim.run(*workload, instructions);
}

} // namespace mnm
