/**
 * @file
 * CPU-side helpers: the fast phase-profiler timestamp, plus the
 * one-value verdict-backend identity the benchmark fingerprint prints.
 *
 * The SoA verdict program (core/soa_state.hh) has exactly one
 * implementation, the scalar pass. Vector passes were measured and
 * removed: on sound plans every verdict is computed for one address at
 * a time (the L1-peek lane queue and computeBypass both ask for n = 1),
 * so an 8-wide pass never had a full group to work on.
 */

#ifndef MNM_UTIL_CPU_HH
#define MNM_UTIL_CPU_HH

#include <cstdint>

namespace mnm
{

/** The verdict-kernel implementation: only the scalar SoA pass. */
enum class SimdBackend
{
    ScalarSoa, //!< SoA program, scalar loops
};

/** Always ScalarSoa; kept because the benchmark fingerprint prints
 *  these three. */
inline SimdBackend
nativeSimdBackend()
{
    return SimdBackend::ScalarSoa;
}
inline SimdBackend
simdBackendFromEnv()
{
    return SimdBackend::ScalarSoa;
}
inline const char *
simdBackendName(SimdBackend)
{
    return "scalar-soa";
}

/**
 * Monotonic fast timestamp for phase attribution (obs/phase_profiler):
 * the TSC on x86-64, CNTVCT_EL0 on AArch64, steady_clock nanoseconds
 * elsewhere. A read is tens of cycles -- cheap enough to bracket
 * sub-microsecond phases -- but the unit is source-dependent; divide by
 * profTickHz() for seconds, or compare ticks against ticks for shares.
 */
std::uint64_t profFastTick();

/** Measured profFastTick rate in ticks per second. Calibrated against
 *  steady_clock on first call (~5 ms, off every hot path -- only the
 *  profiling fold asks). */
double profTickHz();

} // namespace mnm

#endif // MNM_UTIL_CPU_HH
