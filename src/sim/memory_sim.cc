#include "sim/memory_sim.hh"

#include <type_traits>

#include "obs/phase_profiler.hh"
#include "util/bits.hh"
#include "util/deadline.hh"
#include "util/logging.hh"

namespace mnm
{

namespace
{

/** The profiling-off stand-in for PhaseScope: compiles to nothing, so
 *  the with_prof=false instantiations of the hot path below carry no
 *  profiler code at all -- not even the profActive() load. */
struct NoPhaseScope
{
    explicit NoPhaseScope(Phase) {}
};

} // anonymous namespace

/** PhaseScope or nothing, selected by the hot-path template flag. */
template <bool with_prof>
using ProfScope =
    std::conditional_t<with_prof, PhaseScope, NoPhaseScope>;

MemorySimulator::MemorySimulator(const HierarchyParams &hierarchy_params,
                                 std::optional<MnmSpec> mnm_spec,
                                 std::uint64_t seed)
    : hierarchy_(hierarchy_params, seed)
{
    if (mnm_spec)
        mnm_ = std::make_unique<MnmUnit>(*mnm_spec, hierarchy_);

    // Pre-compute every cache's probe/fill energy.
    SramModel sram;
    for (CacheId id = 0; id < hierarchy_.numCaches(); ++id) {
        const CacheParams &cp = hierarchy_.cache(id).params();
        CacheGeometry geom;
        geom.capacity_bytes = cp.capacity_bytes;
        geom.block_bytes = cp.block_bytes;
        geom.associativity = cp.associativity;
        std::uint64_t blocks = cp.capacity_bytes / cp.block_bytes;
        std::uint32_t ways =
            cp.associativity ? cp.associativity
                             : static_cast<std::uint32_t>(blocks);
        unsigned set_bits = exactLog2(blocks / ways);
        unsigned block_bits = exactLog2(cp.block_bytes);
        // 32-bit paper addresses: tag = addr minus index minus offset,
        // plus valid/dirty state.
        geom.tag_bits = 32u - set_bits - block_bits + 2u;
        cache_power_.push_back(sram.cache(geom));
    }
}

template <bool with_prof>
void
MemorySimulator::request(AccessType type, Addr addr, MemSimResult &result)
{
    BypassMask mask;
    if (mnm_) {
        ProfScope<with_prof> prof(Phase::Verdict);
        mask = mnm_->computeBypass(type, addr);
    }
    performAccess<with_prof>(type, addr, mask, result);
}

template <bool with_prof, bool below_l1>
void
MemorySimulator::performAccess(AccessType type, Addr addr,
                               const BypassMask &mask,
                               MemSimResult &result)
{
    // Self time here is the hierarchy walk + accounting; the MnmUnit
    // event-ring drain fired at the end of the walk opens its own
    // FeedDrain scope inside this one (UpdateFeed on the per-event
    // reference path).
    ProfScope<with_prof> prof(Phase::HierWalk);
    AccessResult access =
        below_l1 ? hierarchy_.accessBelowL1(type, addr, mask)
                 : hierarchy_.access(type, addr, mask);
    accountAccess(access, result);
}

inline void
MemorySimulator::accountAccess(const AccessResult &access,
                               MemSimResult &result)
{
    ++result.requests;
    if (mnm_) {
        result.coverage.record(access);
        result.decisions.recordAccess(access);
    }

    Cycles latency = access.latency;
    if (access.from_memory)
        ++result.memory_accesses;
    // The walk plan recorded the supplier's hit latency (memory latency
    // when from_memory), so no cacheAt() re-walk per request.
    const Cycles supply_cost = access.supply_latency;

    if (mnm_)
        latency += mnm_->applyPlacementCosts(access);

    result.total_access_cycles += latency;
    result.miss_cycles += latency - supply_cost;

    // Energy: probes split hit/miss; every level under the supplier was
    // (re)filled on the way back. The hot path only counts events; the
    // per-event energies are multiplied out once at the end of run().
    for (std::uint8_t i = 0; i < access.num_probes; ++i) {
        const ProbeRecord &probe = access.probes[i];
        CacheEventCounts &ec = event_counts_[probe.cache];
        if (!probe.bypassed) {
            if (probe.hit) {
                ++ec.probe_hit;
            } else {
                ++ec.probe_miss;
            }
        }
        if (probe.level < access.supply_level)
            ++ec.fill;
    }
    for (std::uint16_t i = 0; i < access.num_writebacks; ++i) {
        const WritebackRecord &wb = access.writebacks[i];
        // Absorbing dirties a resident copy (a write); passing through
        // still paid a tag probe (charged as a read).
        if (wb.absorbed) {
            ++event_counts_[wb.cache].wb_absorbed;
        } else {
            ++event_counts_[wb.cache].wb_forwarded;
        }
    }
}

template <bool with_prof>
void
MemorySimulator::runBatchRequests(const RequestBatch &batch,
                                  const Cache &l1i, MemSimResult &result)
{
    // The request stream arrives already derived (generation and
    // stage-1 derivation are fused in nextRequests()); only the
    // per-window counts fold in here. Same stream, same counts as
    // deriving on the spot.
    const std::size_t n = batch.size;
    const Addr *const req_addr = batch.addr;
    const std::uint8_t *const req_type = batch.kind;
    result.fetch_requests += batch.fetch_requests;
    result.data_requests += batch.data_requests;
    constexpr std::size_t prefetch_requests = 12;

    // No MNM, or a guarded plan (unsound ablations, oracle checking,
    // where every verdict is consumed because guards record
    // violations): one request at a time, exactly the reference
    // engine's order. Hint the filter-table lines a fixed request
    // distance ahead -- far enough to cover the tables' miss latency,
    // near enough that the lines survive until use. Table indices are
    // pure in the address, so state churn between hint and verdict
    // cannot misdirect them.
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
                               req_addr[k], result);
        }
        return;
    }

    // Guard-free plans (every sound config): a request that hits its
    // level-1 cache never consults the bypass mask -- the walk stops
    // before the first planned level -- and a guard-free verdict
    // carries no per-verdict statistics, so the verdict is provably
    // dead data. Probe L1 directly (the verdict reads only filter
    // state, never level-1 replacement state, so probing first changes
    // no verdict): a hit completes the whole access right here -- the
    // L1-hit accounting below is performAccess() on an L1 hit, term
    // for term -- and only the L1-missing minority pays a verdict and
    // the below-L1 walk.
    //
    // L1Peek self time = the lookahead peeks, prefetch hints, and
    // loop control; Verdict, HierWalk, and LaneDescent open nested
    // scopes.
    ProfScope<with_prof> prof(Phase::L1Peek);
    const Cache &l1d = hierarchy_.cacheAt(1, AccessType::Load);
    Cache &l1i_mut = hierarchy_.cacheAt(1, AccessType::InstFetch);
    Cache &l1d_mut = hierarchy_.cacheAt(1, AccessType::Load);
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
        // LaneDescent self time = the queued walks + accounting +
        // loop; each lane's verdict opens a nested Verdict scope.
        ProfScope<with_prof> prof_lanes(Phase::LaneDescent);
        hierarchy_.descendLanes(
            lanes, num_lanes,
            [&](const DescentLane &lane) {
                ProfScope<with_prof> prof_verdict(Phase::Verdict);
                return mnm_->computeBypass(lane.type, lane.addr);
            },
            [&](const DescentLane &, const AccessResult &access) {
                accountAccess(access, result);
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
        Cache &l1 = is_instr ? l1i_mut : l1d_mut;
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
                ++result.requests;
                result.total_access_cycles +=
                    is_instr ? l1i_hit_latency : l1d_hit_latency;
                ++event_counts_[is_instr ? l1i_id : l1d_id].probe_hit;
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
            lanes[num_lanes] = DescentLane{req_addr[k], type};
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
        performAccess<with_prof, true>(type, req_addr[k], mask, result);
    }
    flush_lanes();
}

MemSimResult
MemorySimulator::run(WorkloadGenerator &workload,
                     std::uint64_t instructions)
{
    MemSimResult result;
    result.instructions = instructions;
    event_counts_.assign(hierarchy_.numCaches(), CacheEventCounts());

    // Root phase: self time is whatever the nested scopes below do not
    // claim (reference-kernel stepping, loop overhead).
    PhaseScope prof_run(Phase::Run);

    const Cache &l1i = hierarchy_.cacheAt(1, AccessType::InstFetch);

    // One mode check for the whole window: the profiling-off
    // instantiations of the step and batch paths carry zero per-access
    // profiler code (the mode cannot change mid-process).
    const bool with_prof = profActive();

    if (reference_kernel_) {
        // Single-step reference path: one virtual next() per
        // instruction, exactly the pre-batching kernel.
        Instruction inst;
        for (std::uint64_t i = 0; i < instructions; ++i) {
            pollCellDeadline();
            workload.next(inst);
            if (with_prof)
                step<true>(inst, l1i, result);
            else
                step<false>(inst, l1i, result);
        }
    } else {
        // The fast path: generate one request batch, consume it,
        // repeat. The consumption unit is the derived request stream
        // itself (nextRequests() fuses generation with stage-1
        // derivation), and the fetch-line dedup carries the
        // simulator's persistent line from window to window. The
        // watchdog polls per batch: at most ~4096 instructions of
        // extra latency before a cell deadline is noticed, well inside
        // the second-scale timeouts MNM_CELL_TIMEOUT_S expresses.
        FetchDedup dedup{l1i.blockBits(), cur_fetch_line_};
        if (!req_batch_)
            req_batch_ = std::make_unique<RequestBatch>();
        std::uint64_t remaining = instructions;
        while (remaining > 0) {
            {
                PhaseScope prof(Phase::BatchGen);
                pollCellDeadlineBatch();
                workload.nextRequests(*req_batch_, dedup, remaining);
            }
            if (with_prof)
                runBatchRequests<true>(*req_batch_, l1i, result);
            else
                runBatchRequests<false>(*req_batch_, l1i, result);
            remaining -= req_batch_->instructions;
        }
        cur_fetch_line_ = dedup.cur_line;
    }

    // Fold the per-cache event counts into the energy breakdown, one
    // multiply per counter instead of one add per event.
    PhaseScope prof_cold(Phase::Cold);
    for (CacheId id = 0; id < hierarchy_.numCaches(); ++id) {
        const PowerDelay &pd = cache_power_[id];
        const CacheEventCounts &ec = event_counts_[id];
        result.energy.probe_hit_pj +=
            static_cast<double>(ec.probe_hit) * pd.read_energy_pj;
        result.energy.probe_miss_pj +=
            static_cast<double>(ec.probe_miss) * pd.read_energy_pj;
        result.energy.fill_pj +=
            static_cast<double>(ec.fill) * pd.write_energy_pj;
        result.energy.writeback_pj +=
            static_cast<double>(ec.wb_absorbed) * pd.write_energy_pj +
            static_cast<double>(ec.wb_forwarded) * pd.read_energy_pj;
    }

    if (mnm_) {
        // Drain the MNM's internally-accumulated energy (lookups charged
        // above plus bookkeeping updates) incrementally per run() call.
        PicoJoules now = mnm_->consumedEnergyPj();
        result.energy.mnm_pj = now - mnm_energy_seen_;
        mnm_energy_seen_ = now;
        result.soundness_violations = mnm_->soundnessViolations();
        result.filter_anomalies = mnm_->filterAnomalies();
        result.mnm_storage_bits = mnm_->storageBits();
        for (std::uint32_t l = 0; l < mnm_->violationLevels(); ++l)
            result.decisions.setForbidden(l, mnm_->violationsAtLevel(l));
    }

    for (CacheId id = 0; id < hierarchy_.numCaches(); ++id) {
        const Cache &c = hierarchy_.cache(id);
        CacheSnapshot snap;
        snap.name = c.params().name;
        snap.level = hierarchy_.levelOf(id);
        snap.accesses = c.stats().accesses.value();
        snap.hits = c.stats().hits.value();
        snap.mru_hits = c.stats().mru_hits.value();
        snap.misses = c.stats().misses.value();
        snap.bypasses = c.stats().bypasses.value();
        snap.hit_rate = c.stats().hitRate();
        result.caches.push_back(snap);
    }
    return result;
}

void
MemorySimulator::setReferenceKernel(bool on)
{
    reference_kernel_ = on;
    if (mnm_)
        mnm_->setReferenceDispatch(on);
}

void
MemorySimulator::setReferenceFeed(bool on)
{
    if (mnm_)
        mnm_->setReferenceFeed(on);
}

} // namespace mnm
