/**
 * @file
 * Run configuration helpers shared by the end-to-end and traced runs.
 */

#include "common.hh"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <thread>

#include "trace/batch_pipeline.hh"
#include "trace/spec2000.hh"

namespace perfbench
{

mnm::SyntheticParams
appParams(const std::string &app, std::uint64_t run_seed, unsigned stream)
{
    mnm::SyntheticParams p = mnm::specWorkloadParams(app);
    p.seed = mix64(run_seed ^ mix64(p.seed + stream));
    return p;
}

void
Lockstep::acquire()
{
    if (in_ < 0)
        return;
    char token = 0;
    ssize_t n;
    while ((n = read(in_, &token, 1)) < 0 && errno == EINTR) {
    }
    if (n != 1)
        alone();
}

void
Lockstep::release()
{
    if (out_ < 0)
        return;
    const char token = 't';
    ssize_t n;
    while ((n = write(out_, &token, 1)) < 0 && errno == EINTR) {
    }
    if (n != 1)
        alone();
}

void
Lockstep::alone()
{
    for (int *fd : {&in_, &out_}) {
        if (*fd >= 0)
            close(*fd);
        *fd = -1;
    }
}

namespace
{

// The calibration kernel's shape (see Calibrator): sets x ways of the
// tag table, interleaved address streams, and lookups per pass.
constexpr std::size_t cal_sets = 4096;
constexpr std::size_t cal_ways = 8;
constexpr unsigned cal_streams = 4;
constexpr unsigned cal_lookups = 80'000;

} // anonymous namespace

Calibrator::Calibrator()
    : tags_(cal_sets * cal_ways, ~std::uint64_t{0}),
      stamps_(cal_sets * cal_ways, 0)
{
}

double
Calibrator::pass()
{
    // Each stream walks a 4 KiB region at random and jumps to a new one
    // every 16 lookups on average; every pass draws fresh addresses, so
    // passes see the same mix of hits and misses.
    std::uint64_t rng[cal_streams], base[cal_streams];
    for (unsigned j = 0; j < cal_streams; ++j) {
        rng[j] = mix64(seed_++) | 1;
        base[j] = std::uint64_t{j} << 20;
    }
    const double t0 = nowS();
    for (unsigned i = 0; i < cal_lookups / cal_streams; ++i) {
        for (unsigned j = 0; j < cal_streams; ++j) {
            std::uint64_t &r = rng[j];
            r ^= r << 13;
            r ^= r >> 7;
            r ^= r << 17;
            if ((r & 15) == 0)
                base[j] = (r >> 8) & ((std::uint64_t{1} << 27) - 1);
            const std::uint64_t block = (base[j] + ((r >> 32) & 4095)) >> 6;
            const std::size_t set = (block % cal_sets) * cal_ways;
            const std::uint64_t tag = block / cal_sets;
            std::size_t way = cal_ways, victim = 0;
            std::uint32_t oldest = ~std::uint32_t{0};
            for (std::size_t w = 0; w < cal_ways; ++w) {
                if (tags_[set + w] == tag) {
                    way = w;
                    break;
                }
                if (stamps_[set + w] < oldest) {
                    oldest = stamps_[set + w];
                    victim = w;
                }
            }
            if (way == cal_ways) {
                tags_[set + victim] = tag;
                way = victim;
            }
            stamps_[set + way] = ++clock_;
        }
    }
    return (nowS() - t0) * 1e3;
}

double
Calibrator::sample(double budget_s)
{
    std::vector<double> ms;
    const double end = nowS() + budget_s;
    do {
        ms.push_back(pass());
    } while (nowS() < end);
    return median(ms);
}

Calibration::Calibration(std::vector<int> cpus)
    : cpus_(std::move(cpus)), per_cpu_(std::max<std::size_t>(1, cpus_.size()))
{
}

double
Calibration::sample(double budget_s)
{
    if (cpus_.empty())
        return per_cpu_[0].sample(budget_s);
    std::vector<double> ms(cpus_.size());
    {
        std::vector<std::jthread> threads;
        for (std::size_t i = 0; i < cpus_.size(); ++i) {
            threads.emplace_back([&, i] {
                cpu_set_t set;
                CPU_ZERO(&set);
                CPU_SET(cpus_[i], &set);
                sched_setaffinity(0, sizeof set, &set);
                ms[i] = per_cpu_[i].sample(budget_s);
            });
        }
    }
    double sum = 0.0;
    for (double v : ms)
        sum += v;
    return sum / static_cast<double>(ms.size());
}

std::vector<int>
pinToFirstCpus(unsigned n)
{
    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return {};
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c = 0; c < CPU_SETSIZE && cpus.size() < n; ++c) {
        if (CPU_ISSET(c, &allowed)) {
            cpus.push_back(c);
            CPU_SET(c, &set);
        }
    }
    if (cpus.size() < n || sched_setaffinity(0, sizeof set, &set) != 0)
        return {};
    return cpus;
}

std::vector<double>
calibrated(const std::vector<double> &raw, const std::vector<double> &pass_ms,
           std::size_t reach)
{
    std::vector<double> out, near;
    for (std::size_t i = 0; i < raw.size() && i < pass_ms.size(); ++i) {
        const std::size_t lo = i >= reach ? i - reach : 0;
        const std::size_t hi = std::min(pass_ms.size(), i + reach + 1);
        near.assign(pass_ms.begin() + static_cast<std::ptrdiff_t>(lo),
                    pass_ms.begin() + static_cast<std::ptrdiff_t>(hi));
        out.push_back(raw[i] * reference_pass_ms / median(near));
    }
    return out;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::vector<std::string>
workloadApps(const std::string &workload, std::uint64_t run_seed)
{
    if (workload == "func-hit")
        return {"200.sixtrack", "252.eon"};
    if (workload == "func-miss")
        return {"181.mcf", "176.gcc"};
    if (workload == "timing")
        return {"200.sixtrack", "181.mcf"};
    // sweep: all twenty, dealt in a seed-dependent order. runSweep builds
    // each cell's generator from the app name alone, so the order (and
    // with it the pool's schedule) is what the seed can reach there.
    std::vector<std::string> apps = mnm::specAllNames();
    std::uint64_t s = run_seed;
    for (std::size_t i = apps.size(); i > 1; --i) {
        s = mix64(s);
        std::swap(apps[i - 1], apps[s % i]);
    }
    return apps;
}

std::vector<StreamSpec>
workloadStreams(const std::string &workload, std::uint64_t run_seed)
{
    std::vector<StreamSpec> out;
    for (const std::string &app : workloadApps(workload, run_seed)) {
        for (unsigned s = 0; s < streams_per_app; ++s) {
            out.push_back({app + "#" + std::to_string(s),
                           appParams(app, run_seed, s)});
        }
    }
    return out;
}

unsigned
sweepJobs()
{
    return std::max(1u, std::thread::hardware_concurrency() / 2);
}

bool
pipelineThreaded()
{
    // The rule PipelineBase applies in PipelineMode::Auto.
    return mnm::overlapFromEnv() &&
           std::thread::hardware_concurrency() >= 2;
}

unsigned
workloadThreads(const std::string &workload)
{
    const unsigned per_sim = pipelineThreaded() ? 2 : 1;
    if (workload == "timing")
        return 1; // OooCore::run pulls single-step next()
    if (workload == "sweep")
        return sweepJobs() * per_sim;
    return per_sim;
}

} // namespace perfbench
