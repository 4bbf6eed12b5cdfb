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
#include "core/coverage.hh"
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
    CoverageTracker coverage;
    /** Per-level MNM decision confusion matrix. The three sound cells
     *  cover this run() call's measured window; the forbidden cell
     *  mirrors soundness_violations (cumulative over the simulator's
     *  lifetime, warm-up included -- it must be zero anyway). */
    DecisionMatrix decisions;
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

    /** Post-walk accounting shared by performAccess() and the lane
     *  queue's descendLanes consume callback: coverage, decisions,
     *  latency/energy-event counts -- everything an access adds to the
     *  result once its AccessResult exists. Pure sums over the record,
     *  so invocation order across accesses cannot change any total.
     *  Force-inlined: it was part of the performAccess template body
     *  before the lane queue split it out, and every call site is on
     *  the per-access hot path. */
    __attribute__((always_inline)) void
    accountAccess(const AccessResult &access, MemSimResult &result);

    /** One request through MNM + hierarchy with full accounting: the
     *  reference engine's step and the fast path's per-request loop.
     *  Templated on profiling like the batch path: run() selects the
     *  instantiation once per window, so with MNM_PROF off it carries
     *  zero profiler code per access. */
    template <bool with_prof>
    void request(AccessType type, Addr addr, MemSimResult &result);

    /** The hierarchy walk and accounting behind request(), taking the
     *  verdict as input (the batch path precomputes verdicts). The
     *  with_prof instantiation brackets the walk in a HierWalk phase
     *  scope; the other compiles with zero profiler code -- not even
     *  the profActive() load -- because a per-access check is what the
     *  MNM_PROF-off <2% overhead budget cannot afford. Callers select
     *  an instantiation once per run/batch window (the mode cannot
     *  change mid-process). With below_l1 the caller already probed
     *  level 1 itself and saw a miss (the batch path's L1 fast path),
     *  so the walk resumes below it via accessBelowL1(). */
    template <bool with_prof, bool below_l1 = false>
    void performAccess(AccessType type, Addr addr,
                       const BypassMask &mask, MemSimResult &result);

    /** The fast path: consume one pre-derived request batch. Guard-free
     *  plans take the L1 peek + lane queue; no-MNM runs and guarded
     *  plans take request() one access at a time. The request stream
     *  arrives already derived (the generators' nextRequests() fuses
     *  derivation into generation), so this is pure consumption.
     *  Templated like performAccess: run() picks the instantiation
     *  once, so the off path stays scope-free per access. */
    template <bool with_prof>
    void runBatchRequests(const RequestBatch &batch, const Cache &l1i,
                          MemSimResult &result);

    /** One instruction of the reference engine: fetch-line dedup plus
     *  the data request. */
    template <bool with_prof>
    void
    step(const Instruction &inst, const Cache &l1i, MemSimResult &result)
    {
        Addr line = l1i.blockAddr(inst.pc);
        if (line != cur_fetch_line_) {
            cur_fetch_line_ = line;
            ++result.fetch_requests;
            request<with_prof>(AccessType::InstFetch, inst.pc, result);
        }
        if (inst.isMem()) {
            ++result.data_requests;
            request<with_prof>(inst.cls == InstClass::Load
                                   ? AccessType::Load
                                   : AccessType::Store,
                               inst.mem_addr, result);
        }
    }

    CacheHierarchy hierarchy_;
    std::unique_ptr<MnmUnit> mnm_;
    /** Per-cache probe/fill energies from the analytical model. */
    std::vector<PowerDelay> cache_power_;
    std::vector<CacheEventCounts> event_counts_;
    /** The fast path's request batch, refilled by nextRequests() and
     *  consumed in place; heap-allocated lazily (72KB is unkind to
     *  stacks when runSweep's worker threads run many simulators). */
    std::unique_ptr<RequestBatch> req_batch_;
    bool reference_kernel_ = false;
    /** Lane-queue pending-set conflict bitmaps, one bit per L1 set
     *  ([0] = I-side, [1] = D-side; one shared vector when level 1 is
     *  unified). Sized lazily by the L1-peek fast path; bits live
     *  only between a lane's enqueue and its flush. */
    std::vector<std::uint64_t> pending_sets_[2];
    PicoJoules mnm_energy_seen_ = 0.0; //!< consumed total at last drain
    Addr cur_fetch_line_ = invalid_addr;
};

} // namespace mnm

#endif // MNM_SIM_MEMORY_SIM_HH
