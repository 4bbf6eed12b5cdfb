/**
 * @file
 * The devirtualized update-side mirror of the verdict plan
 * (core/verdict_plan.hh).
 *
 * The hierarchy batches its fill/eviction reports, each with the line
 * it concerns, into a per-access event ring (cache/hierarchy.hh) and
 * delivers them through one onEventBatch() call. MnmUnit drains that
 * ring through an array of
 * per-cache UpdateSteps compiled at construction: each step carries the
 * cache's contiguous FilterKernel slice plus the RMNM routing constants,
 * so applying an event is a switch-dispatched loop over non-virtual
 * *Hot methods -- no per-event virtual calls, no per_cache_ re-lookup,
 * no hierarchy deref to recover the byte address.
 *
 * The kernels write the live filter tables in place; the SoA verdict
 * programs borrow those same tables (core/soa_state.hh), so every
 * mutation the drain applies is visible to the next verdict batch by
 * construction. A second interpreter of the same ring, through the
 * virtual MissFilter interface of the same filter objects, is the
 * equivalence reference (MNM_REFERENCE_FEED=1), which
 * kernel_equivalence_test holds to bit-identical results.
 */

#ifndef MNM_CORE_UPDATE_PLAN_HH
#define MNM_CORE_UPDATE_PLAN_HH

#include <cstdint>

#include "cache/hierarchy.hh"
#include "core/verdict_plan.hh"
#include "util/types.hh"

namespace mnm
{

/** One cache's compiled update routing: everything the event-ring
 *  drain needs to apply a placement/replacement to that cache's
 *  filters, resolved once at plan-compile time. Indexed by CacheId. */
struct UpdateStep
{
    /** The cache's slice of the flat kernel array. */
    const FilterKernel *kernels = nullptr;
    std::uint32_t kernel_count = 0;
    /** Hot accounting sink (PerCache::update_events). */
    std::uint64_t *update_events = nullptr;
    /** Index into the RMNM bit vector; -1 if untracked (L1). */
    int rmnm_index = -1;
    /** Recovers the byte address: block << block_bits. */
    unsigned block_bits = 0;
};

/** Apply one event's filter updates through the kernel slice and count
 *  it. RMNM routing and energy bursts stay with the caller (they need
 *  MnmUnit state). */
inline void
updateStepApply(const UpdateStep &st, const CacheEvent &ev)
{
    const FilterKernel *k = st.kernels;
    const FilterKernel *end = k + st.kernel_count;
    if (ev.kind == CacheEventKind::Placement) {
        for (; k != end; ++k)
            kernelOnPlacement(*k, ev.block, ev.line);
    } else {
        for (; k != end; ++k)
            kernelOnReplacement(*k, ev.block, ev.line);
    }
    ++*st.update_events;
}

} // namespace mnm

#endif // MNM_CORE_UPDATE_PLAN_HH
