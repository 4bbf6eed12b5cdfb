/**
 * @file
 * A one-value stub: MemorySimulator::run always fills a request batch
 * with nextRequests() and then consumes it (DESIGN.md decision 24).
 * overlapFromEnv() survives only because the benchmark fingerprint
 * prints it.
 */

#ifndef MNM_TRACE_BATCH_PIPELINE_HH
#define MNM_TRACE_BATCH_PIPELINE_HH

namespace mnm
{

/** Always false: generation never overlaps consumption. */
inline bool
overlapFromEnv()
{
    return false;
}

} // namespace mnm

#endif // MNM_TRACE_BATCH_PIPELINE_HH
