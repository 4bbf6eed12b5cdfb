#include "sim/memory_sim.hh"

#include "obs/phase_profiler.hh"
#include "util/bits.hh"
#include "util/deadline.hh"
#include "util/logging.hh"

namespace mnm
{

MemorySimulator::MemorySimulator(const HierarchyParams &hierarchy_params,
                                 std::optional<MnmSpec> mnm_spec,
                                 std::uint64_t seed)
    : hierarchy_(hierarchy_params, seed),
      mnm_(mnm_spec ? std::make_unique<MnmUnit>(*mnm_spec, hierarchy_)
                    : nullptr),
      engine_(hierarchy_, mnm_.get())
{
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

inline void
MemorySimulator::Accounting::walked(std::size_t, const AccessResult &access)
{
    MnmUnit *const mnm = sim.mnm_.get();
    ++result.requests;
    if (mnm)
        result.decisions.record(access);

    Cycles latency = access.latency;
    if (access.from_memory)
        ++result.memory_accesses;
    // The walk plan recorded the supplier's hit latency (memory latency
    // when from_memory), so no cacheAt() re-walk per request.
    const Cycles supply_cost = access.supply_latency;

    if (mnm)
        latency += mnm->applyPlacementCosts(access);

    result.total_access_cycles += latency;
    result.miss_cycles += latency - supply_cost;

    // Energy: probes split hit/miss; every level under the supplier was
    // (re)filled on the way back. The hot path only counts events; the
    // per-event energies are multiplied out once at the end of run().
    for (std::uint8_t i = 0; i < access.num_probes; ++i) {
        const ProbeRecord &probe = access.probes[i];
        CacheEventCounts &ec = sim.event_counts_[probe.cache];
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
            ++sim.event_counts_[wb.cache].wb_absorbed;
        } else {
            ++sim.event_counts_[wb.cache].wb_forwarded;
        }
    }
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
    Accounting sink{*this, result};

    if (reference_kernel_) {
        // Single-step reference path: one virtual next() per
        // instruction, exactly the pre-batching kernel.
        Instruction inst;
        for (std::uint64_t i = 0; i < instructions; ++i) {
            pollCellDeadline();
            workload.next(inst);
            if (with_prof)
                step<true>(inst, l1i, sink);
            else
                step<false>(inst, l1i, sink);
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
            // The request stream arrives already derived; only the
            // per-window counts fold in here.
            result.fetch_requests += req_batch_->fetch_requests;
            result.data_requests += req_batch_->data_requests;
            if (with_prof)
                engine_.run<true>(*req_batch_, sink);
            else
                engine_.run<false>(*req_batch_, sink);
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
    result.coverage = result.decisions;

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
