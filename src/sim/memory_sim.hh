/**
 * @file
 * Fast functional-mode memory-system simulator.
 *
 * Streams a workload's instruction-fetch and data requests through a
 * hierarchy (optionally shielded by an MNM) and accounts for:
 *  - data access time per request (paper Section 1.1) and the portion
 *    spent probing caches that missed (Figure 2's metric);
 *  - dynamic energy split into hit probes, miss probes, fills, and MNM
 *    structures (Figure 3's and Figure 16's metrics);
 *  - MNM coverage (Figures 10-14).
 *
 * No core timing is modelled here; use OooCore (cpu/) for execution
 * cycles (Figure 15). This mode is an order of magnitude faster, which
 * is what lets the benches sweep 20 workloads x many configurations.
 */

#ifndef MNM_SIM_MEMORY_SIM_HH
#define MNM_SIM_MEMORY_SIM_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/access_engine.hh"
#include "core/mnm_unit.hh"
#include "obs/confusion.hh"
#include "power/sram_model.hh"
#include "trace/workload.hh"

namespace mnm
{

/** Dynamic-energy breakdown of a run, picojoules. */
struct EnergyBreakdown
{
    PicoJoules probe_hit_pj = 0.0;  //!< probes that hit
    PicoJoules probe_miss_pj = 0.0; //!< probes that missed (wasted)
    PicoJoules fill_pj = 0.0;       //!< allocations on the fill path
    PicoJoules writeback_pj = 0.0;  //!< dirty-victim drain traffic
    PicoJoules mnm_pj = 0.0;        //!< MNM lookups + updates

    PicoJoules cacheTotal() const
    {
        return probe_hit_pj + probe_miss_pj + fill_pj + writeback_pj;
    }
    PicoJoules total() const { return cacheTotal() + mnm_pj; }
    double missFraction() const
    {
        double t = cacheTotal();
        return t > 0.0 ? probe_miss_pj / t : 0.0;
    }
};

/** Snapshot of one cache's counters after a run. */
struct CacheSnapshot
{
    std::string name;
    std::uint32_t level = 0;
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t mru_hits = 0; //!< hits a way predictor would guess
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;
    double hit_rate = 0.0;
};

/** Everything a functional run produces. */
struct MemSimResult
{
    std::uint64_t instructions = 0;
    std::uint64_t requests = 0; //!< fetch-line + load/store accesses
    std::uint64_t data_requests = 0;
    std::uint64_t fetch_requests = 0;
    Cycles total_access_cycles = 0;
    Cycles miss_cycles = 0; //!< spent probing caches that missed
    std::uint64_t memory_accesses = 0;

    EnergyBreakdown energy;
    /** Per-level MNM decision confusion matrix, the run's one decision
     *  ledger (coverage is derived from its cells). The three sound
     *  cells cover this run() call's measured window; the forbidden
     *  cell mirrors soundness_violations (cumulative over the
     *  simulator's lifetime, warm-up included -- it must be zero
     *  anyway). */
    DecisionMatrix decisions;
    /** Copy of decisions, set once at the end of run(); kept because
     *  perfbench/cc/ reads coverage through this name. */
    DecisionMatrix coverage;
    std::uint64_t soundness_violations = 0;
    std::uint64_t filter_anomalies = 0;
    std::uint64_t mnm_storage_bits = 0;
    std::vector<CacheSnapshot> caches;

    /** Set by runSweep() when this cell's simulation failed (after all
     *  retries). Every counter above is then meaningless; benches must
     *  print a gap marker instead of the cell's value. */
    bool failed = false;
    /** Human-readable reason when failed (exception what()). */
    std::string fail_reason;

    double avgAccessTime() const
    {
        return requests ? static_cast<double>(total_access_cycles) /
                              static_cast<double>(requests)
                        : 0.0;
    }
    /** Figure 2's metric. */
    double missTimeFraction() const
    {
        return total_access_cycles
                   ? static_cast<double>(miss_cycles) /
                         static_cast<double>(total_access_cycles)
                   : 0.0;
    }
};

/** The functional simulator. */
class MemorySimulator
{
  public:
    /**
     * @param hierarchy_params machine configuration
     * @param mnm_spec         optional MNM shielding the hierarchy
     * @param seed             replacement-policy randomness seed
     */
    explicit MemorySimulator(const HierarchyParams &hierarchy_params,
                             std::optional<MnmSpec> mnm_spec = std::nullopt,
                             std::uint64_t seed = 1);

    /**
     * Stream @p instructions instructions from @p workload. Repeatable:
     * each call continues from the current (warm) state; accounting is
     * per call.
     */
    MemSimResult run(WorkloadGenerator &workload,
                     std::uint64_t instructions);

    /**
     * Route run() through the single-step workload API and the MNM's
     * virtual-dispatch reference path instead of the batched verdict
     * plan. Slow; exists so kernel_equivalence_test can prove the two
     * kernels produce bit-identical results.
     */
    void setReferenceKernel(bool on);
    bool referenceKernel() const { return reference_kernel_; }

    /**
     * Route the MNM's update feed through the per-event virtual
     * listener path instead of the batched event ring + update kernels
     * (the MNM_REFERENCE_FEED=1 knob). Slow; exists so
     * kernel_equivalence_test and the CI byte-diff can prove both feeds
     * produce bit-identical results. No-op without an MNM.
     */
    void setReferenceFeed(bool on);
    bool referenceFeed() const { return mnm_ && mnm_->referenceFeed(); }

    CacheHierarchy &hierarchy() { return hierarchy_; }
    MnmUnit *mnm() { return mnm_ ? mnm_.get() : nullptr; }

  private:
    /** Per-cache hot event counts for one run() window; the per-event
     *  energies are multiplied out once at the end of run(). */
    struct CacheEventCounts
    {
        std::uint64_t probe_hit = 0;
        std::uint64_t probe_miss = 0;
        std::uint64_t fill = 0;
        std::uint64_t wb_absorbed = 0;  //!< writeback dirtied a copy
        std::uint64_t wb_forwarded = 0; //!< writeback probed and passed
    };

    /** The access engine's sink (core/access_engine.hh): folds each
     *  request's outcome into one run() window's result. Pure sums
     *  over the record, so the lane queue's reordering cannot change
     *  any total. Force-inlined: every call site is on the per-access
     *  hot path. */
    struct Accounting
    {
        MemorySimulator &sim;
        MemSimResult &result;

        /** An L1 hit completed by the engine's L1 peek: the walk on an
         *  L1 hit, term for term. */
        __attribute__((always_inline)) void
        hitL1(std::size_t, CacheId l1, Cycles latency)
        {
            ++result.requests;
            result.total_access_cycles += latency;
            ++sim.event_counts_[l1].probe_hit;
        }

        /** Decisions, latency and energy-event counts: everything an
         *  access adds to the result once its AccessResult exists. */
        __attribute__((always_inline)) void
        walked(std::size_t, const AccessResult &access);
    };

    /** One instruction of the reference engine: fetch-line dedup plus
     *  the data request. */
    template <bool with_prof>
    void
    step(const Instruction &inst, const Cache &l1i, Accounting &sink)
    {
        Addr line = l1i.blockAddr(inst.pc);
        if (line != cur_fetch_line_) {
            cur_fetch_line_ = line;
            ++sink.result.fetch_requests;
            engine_.request<with_prof>(AccessType::InstFetch, inst.pc, 0,
                                       sink);
        }
        if (inst.isMem()) {
            ++sink.result.data_requests;
            engine_.request<with_prof>(inst.cls == InstClass::Load
                                           ? AccessType::Load
                                           : AccessType::Store,
                                       inst.mem_addr, 0, sink);
        }
    }

    CacheHierarchy hierarchy_;
    std::unique_ptr<MnmUnit> mnm_;
    /** The batched consumer both run modes share (the reference mode
     *  uses only its per-request step). */
    AccessEngine engine_;
    /** Per-cache probe/fill energies from the analytical model. */
    std::vector<PowerDelay> cache_power_;
    std::vector<CacheEventCounts> event_counts_;
    /** The fast path's request batch, refilled by nextRequests() and
     *  consumed in place; heap-allocated lazily (72KB is unkind to
     *  stacks when runSweep's worker threads run many simulators). */
    std::unique_ptr<RequestBatch> req_batch_;
    bool reference_kernel_ = false;
    PicoJoules mnm_energy_seen_ = 0.0; //!< consumed total at last drain
    Addr cur_fetch_line_ = invalid_addr;
};

} // namespace mnm

#endif // MNM_SIM_MEMORY_SIM_HH
