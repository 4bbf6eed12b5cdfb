/**
 * @file
 * The one batched access engine: consumes a pre-derived RequestBatch
 * through the MNM and the cache hierarchy, in request order, and hands
 * each request's outcome to a caller-supplied sink. Both the
 * functional simulator (sim/memory_sim) and the timing core
 * (cpu/ooo_core) run their fast paths through it; only what they do
 * with an outcome differs.
 *
 * Two consumption loops, chosen once per batch:
 *  - No MNM, or a guarded plan (unsound ablations, oracle checking,
 *    where every verdict is consumed because guards record
 *    violations): request() one access at a time -- verdict, full
 *    hierarchy walk -- exactly the single-step reference order.
 *  - Guard-free plans (every sound config): the L1 peek. A request
 *    that hits its level-1 cache never consults the bypass mask, and a
 *    guard-free verdict carries no per-verdict statistics, so the
 *    verdict is dead data; the L1 is probed directly and only the
 *    L1-missing minority pays a verdict and the below-L1 walk, queued
 *    in a 32-lane descent queue (see run()).
 *
 * The sink is a template parameter, so its calls inline into the loop:
 *
 *   void hitL1(std::size_t k, CacheId l1, Cycles latency);
 *       request k hit level-1 cache @p l1 and completed in @p latency
 *       cycles; nothing below L1 was walked and no AccessResult exists
 *       (the MNM's per-access bookkeeping has already been done).
 *   void walked(std::size_t k, const AccessResult &access);
 *       request k walked the hierarchy; @p access is its full record.
 *       Placement costs are the sink's to apply (applyPlacementCosts).
 *
 * Sink calls arrive in request order except that queued lanes report
 * after the L1 hits that overtook them; every sink in the tree is a
 * pure per-request sum or a per-request slot write, which that
 * reordering cannot change.
 */

#ifndef MNM_CORE_ACCESS_ENGINE_HH
#define MNM_CORE_ACCESS_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/mnm_unit.hh"
#include "obs/phase_profiler.hh"
#include "trace/request_batch.hh"

namespace mnm
{

/** The batched consumer; borrows the hierarchy and the (optional) MNM
 *  shielding it, which must outlive the engine. */
class AccessEngine
{
  public:
    AccessEngine(CacheHierarchy &hierarchy, MnmUnit *mnm)
        : hierarchy_(hierarchy), mnm_(mnm)
    {
    }

    /** One request through MNM + hierarchy: the verdict (when an MNM
     *  is set), the full walk, then @p sink.walked(k, ...). The
     *  with_prof instantiation brackets the verdict and the walk in
     *  Verdict / HierWalk scopes; the other compiles with zero
     *  profiler code. */
    template <bool with_prof, typename Sink>
    void
    request(AccessType type, Addr addr, std::size_t k, Sink &sink)
    {
        BypassMask mask;
        if (mnm_) {
            ProfScope<with_prof> prof(Phase::Verdict);
            mask = mnm_->computeBypass(type, addr);
        }
        walk<with_prof>(type, addr, mask, k, sink);
    }

    /** Consume @p batch in request order, reporting request k of it to
     *  @p sink as k. Templated on profiling like request(). */
    template <bool with_prof, typename Sink>
    void run(const RequestBatch &batch, Sink &sink);

  private:
    /** The hierarchy walk behind request(), taking the verdict as
     *  input, then @p sink.walked(k, ...). With below_l1 the caller
     *  already probed level 1 itself and saw a miss (the L1 peek), so
     *  the walk resumes below it via accessBelowL1(). */
    template <bool with_prof, bool below_l1 = false, typename Sink>
    void
    walk(AccessType type, Addr addr, const BypassMask &mask, std::size_t k,
         Sink &sink)
    {
        // Self time here is the hierarchy walk + the sink; the MnmUnit
        // event-ring drain fired at the end of the walk opens its own
        // FeedDrain scope inside this one (UpdateFeed on the per-event
        // reference path).
        ProfScope<with_prof> prof(Phase::HierWalk);
        sink.walked(k, below_l1 ? hierarchy_.accessBelowL1(type, addr, mask)
                                : hierarchy_.access(type, addr, mask));
    }

    CacheHierarchy &hierarchy_;
    MnmUnit *mnm_;
    /** Lane-queue pending-set conflict bitmaps, one bit per L1 set
     *  ([0] = I-side, [1] = D-side; one shared vector when level 1 is
     *  unified). Sized lazily by the L1-peek path; bits live only
     *  between a lane's enqueue and its flush. */
    std::vector<std::uint64_t> pending_sets_[2];
};

template <bool with_prof, typename Sink>
void
AccessEngine::run(const RequestBatch &batch, Sink &sink)
{
    const std::size_t n = batch.size;
    const Addr *const req_addr = batch.addr;
    const std::uint8_t *const req_type = batch.kind;
    constexpr std::size_t prefetch_requests = 12;

    // The per-request loop. Hint the filter-table lines a fixed
    // request distance ahead -- far enough to cover the tables' miss
    // latency, near enough that the lines survive until use. Table
    // indices are pure in the address, so state churn between hint and
    // verdict cannot misdirect them.
    if (!mnm_ || mnm_->planGuarded(AccessType::InstFetch) ||
        mnm_->planGuarded(AccessType::Load)) {
        for (std::size_t k = 0; k < n; ++k) {
            if (mnm_ && k + prefetch_requests < n) {
                mnm_->prefetchCandidates(
                    static_cast<AccessType>(
                        req_type[k + prefetch_requests]),
                    req_addr[k + prefetch_requests]);
            }
            request<with_prof>(static_cast<AccessType>(req_type[k]),
                               req_addr[k], k, sink);
        }
        return;
    }

    // The L1 peek. Probing L1 before the verdict changes no verdict
    // (the verdict reads only filter state, never level-1 replacement
    // state); a hit completes the whole access right here -- hitL1 plus
    // the MNM bookkeeping below are the walk on an L1 hit, term for
    // term -- and only the L1-missing minority pays a verdict and the
    // below-L1 walk.
    //
    // L1Peek self time = the lookahead peeks, prefetch hints, and
    // loop control; Verdict, HierWalk, and LaneDescent open nested
    // scopes.
    ProfScope<with_prof> prof(Phase::L1Peek);
    Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);
    Cache &l1d = hierarchy_.cacheAt(1, AccessType::Load);
    const CacheId l1i_id = hierarchy_.path(AccessType::InstFetch)[0];
    const CacheId l1d_id = hierarchy_.path(AccessType::Load)[0];
    const Cycles l1i_hit_latency = l1i.params().hit_latency;
    const Cycles l1d_hit_latency = l1d.params().hit_latency;
    // applyPlacementCosts() on an L1 hit: Parallel charges its
    // always-on lookup, Serial and Distributed add nothing.
    const bool charge_parallel =
        !mnm_->spec().perfect &&
        mnm_->spec().placement == MnmPlacement::Parallel;

    // Lane queue: an L1 miss is *queued* instead of walked on the
    // spot, and queued lanes descend together in descendLanes().
    // This is exactly the sequential semantics as long as nothing
    // reads state a queued lane's deferred walk would have written:
    //  - An L1 miss probe has no replacement side effects, and the
    //    deferred walk's only L1 mutation is the fill of the lane's
    //    own set -- so a pending-set bitmap per L1 structure guards
    //    every L1 probe, and a collision flushes the queue first.
    //  - Hit lanes between enqueue and flush touch only integer
    //    counters (noteLookup/chargeLookup/stats; the burst flag is
    //    re-reset by every access before use), all order-exact.
    //  - Verdicts and L2+ state move only inside the flush, lane by
    //    lane in request order -- each verdict sees every prior
    //    lane's fills and feed updates, exactly as sequentially.
    // Inclusive hierarchies break the first invariant (a deferred
    // walk can back-invalidate any L1 set), so they keep the
    // immediate walk. The win: enqueue-time prefetchDescent gives
    // the L2/L3 set rows the whole queue-residency distance to
    // arrive, where the immediate walk took their miss latency on
    // the critical path.
    const bool use_lanes = hierarchy_.params().inclusion ==
                           InclusionPolicy::NonInclusive;
    constexpr std::size_t lane_queue_capacity = 32;
    DescentLane lanes[lane_queue_capacity];
    std::uint64_t *lane_word[lane_queue_capacity];
    std::uint64_t lane_bit[lane_queue_capacity];
    std::size_t num_lanes = 0;
    if (use_lanes && pending_sets_[0].empty()) {
        pending_sets_[0].assign((l1i.numSets() + 63) / 64, 0);
        if (l1i_id != l1d_id)
            pending_sets_[1].assign((l1d.numSets() + 63) / 64, 0);
    }
    std::uint64_t *const pend_i = pending_sets_[0].data();
    std::uint64_t *const pend_d = l1i_id != l1d_id ? pending_sets_[1].data()
                                                   : pending_sets_[0].data();

    const auto flush_lanes = [&] {
        if (num_lanes == 0)
            return;
        // LaneDescent self time = the queued walks + the sink + loop;
        // each lane's verdict opens a nested Verdict scope.
        ProfScope<with_prof> prof_lanes(Phase::LaneDescent);
        hierarchy_.descendLanes(
            lanes, num_lanes,
            [&](const DescentLane &lane) {
                ProfScope<with_prof> prof_verdict(Phase::Verdict);
                return mnm_->computeBypass(lane.type, lane.addr);
            },
            [&](const DescentLane &lane, const AccessResult &access) {
                sink.walked(lane.index, access);
            });
        for (std::size_t i = 0; i < num_lanes; ++i)
            *lane_word[i] &= ~lane_bit[i];
        num_lanes = 0;
    };

    for (std::size_t k = 0; k < n; ++k) {
        const AccessType type = static_cast<AccessType>(req_type[k]);
        const bool is_instr = type == AccessType::InstFetch;
        // Lookahead: hint the filter tables a fixed request distance
        // ahead, gated on an L1 peek -- hints for L1-hitting requests
        // would be dead weight. The peek against current state is only
        // a heuristic for future state; a wrong guess costs a missed
        // hint, never correctness.
        if (k + prefetch_requests < n) {
            const std::size_t f = k + prefetch_requests;
            const AccessType ftype = static_cast<AccessType>(req_type[f]);
            const Cache &fl1 = ftype == AccessType::InstFetch ? l1i : l1d;
            if (!fl1.contains(fl1.blockAddr(req_addr[f])))
                mnm_->prefetchCandidates(ftype, req_addr[f]);
        }
        Cache &l1 = is_instr ? l1i : l1d;
        const BlockAddr block = l1.blockAddr(req_addr[k]);
        std::uint64_t *word = nullptr;
        std::uint64_t bit = 0;
        if (use_lanes && num_lanes > 0) {
            // A queued lane's deferred walk will fill its own L1
            // set; a probe of that set must not run ahead of it.
            const std::uint32_t set = l1.setIndex(block);
            word = (is_instr ? pend_i : pend_d) + (set >> 6);
            bit = std::uint64_t{1} << (set & 63);
            if (*word & bit)
                flush_lanes();
        }
        bool hit;
        {
            ProfScope<with_prof> prof_walk(Phase::HierWalk);
            hit = l1.probe(block, type == AccessType::Store);
            if (hit) {
                sink.hitL1(k, is_instr ? l1i_id : l1d_id,
                           is_instr ? l1i_hit_latency : l1d_hit_latency);
            }
        }
        if (hit) {
            mnm_->noteLookup();
            if (charge_parallel)
                mnm_->chargeLookup();
            continue;
        }
        if (use_lanes) {
            if (!word) {
                const std::uint32_t set = l1.setIndex(block);
                word = (is_instr ? pend_i : pend_d) + (set >> 6);
                bit = std::uint64_t{1} << (set & 63);
            }
            lanes[num_lanes] = DescentLane{req_addr[k], type,
                                           static_cast<std::uint32_t>(k)};
            lane_word[num_lanes] = word;
            lane_bit[num_lanes] = bit;
            *word |= bit;
            ++num_lanes;
            hierarchy_.prefetchDescent(type, req_addr[k]);
            if (num_lanes == lane_queue_capacity)
                flush_lanes();
            continue;
        }
        BypassMask mask;
        {
            ProfScope<with_prof> prof_verdict(Phase::Verdict);
            mask = mnm_->computeBypass(type, req_addr[k]);
        }
        walk<with_prof, true>(type, req_addr[k], mask, k, sink);
    }
    flush_lanes();
}

} // namespace mnm

#endif // MNM_CORE_ACCESS_ENGINE_HH
