/**
 * @file
 * Cooperative per-cell watchdog deadlines for long-running simulations.
 *
 * runSweep's thread pool arms a deadline around each cell's
 * runFunctional() call (sim/runner.cc, MNM_CELL_TIMEOUT_S), and
 * MemorySimulator::run polls it: once per instruction on the
 * single-step reference engine, once per request batch on the fast
 * path. Nothing else arms or polls one; the timing cores run unwatched.
 * The per-instruction poll is a thread-local flag test when no
 * deadline is armed and consults the clock only every 8192 calls when
 * one is, so the cost is noise against even the fastest
 * functional-simulation loop. When the
 * deadline has passed, the poll throws CellTimeoutError: the cell's
 * stack unwinds cleanly (simulator state is all stack-owned), the
 * worker records the failure in its slot, and the pool keeps draining
 * -- a runaway cell is contained without killing the process or
 * detaching a thread.
 */

#ifndef MNM_UTIL_DEADLINE_HH
#define MNM_UTIL_DEADLINE_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace mnm
{

/** Thrown by pollCellDeadline() when the armed deadline has passed. */
class CellTimeoutError : public std::runtime_error
{
  public:
    explicit CellTimeoutError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace detail
{

/** Per-thread watchdog state. */
struct DeadlineState
{
    bool armed = false;
    /** steady-clock expiry, microseconds since epoch. */
    std::uint64_t deadline_us = 0;
    /** Configured budget, for the timeout message. */
    double seconds = 0.0;
    /** Poll counter; the clock is read every 8192 polls. */
    std::uint32_t tick = 0;
};

inline DeadlineState &
deadlineState()
{
    thread_local DeadlineState state;
    return state;
}

/** Clock check; throws CellTimeoutError when the deadline has passed. */
void pollDeadlineSlow();

} // namespace detail

/** Arm the calling thread's deadline @p seconds from now (> 0). */
void armCellDeadline(double seconds);

/** Disarm the calling thread's deadline. */
void disarmCellDeadline();

/** True when the calling thread has an armed deadline. */
bool cellDeadlineArmed();

/**
 * Cheap cooperative check, called per simulated instruction. Throws
 * CellTimeoutError once the armed deadline has passed; a no-op when no
 * deadline is armed.
 */
inline void
pollCellDeadline()
{
    detail::DeadlineState &state = detail::deadlineState();
    if (!state.armed)
        return;
    if (++state.tick & 0x1fffu)
        return;
    detail::pollDeadlineSlow();
}

/**
 * Batch-granularity check: consults the clock on every call when a
 * deadline is armed. For loops where one call already covers thousands
 * of simulated instructions (MemorySimulator's batched kernel), where
 * the per-instruction tick divider above would make expiry detection
 * needlessly lazy. One clock read per ~4096 instructions is noise.
 */
inline void
pollCellDeadlineBatch()
{
    if (detail::deadlineState().armed)
        detail::pollDeadlineSlow();
}

} // namespace mnm

#endif // MNM_UTIL_DEADLINE_HH
