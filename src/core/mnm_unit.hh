/**
 * @file
 * The Mostly No Machine: binds per-cache miss filters and the shared
 * RMNM to a concrete cache hierarchy (paper Section 2).
 *
 * The unit registers itself as the hierarchy's event listener so it sees
 * every placement and replacement (the paper's bookkeeping buses), and
 * produces a BypassMask per access: the "miss" tags that travel with the
 * request and make downstream caches skip their probe.
 *
 * Placement (paper Figure 1):
 *  - Parallel: the MNM is probed alongside the L1 caches. Its delay is
 *    hidden under the L1 access (verified in the Table 3 bench), so no
 *    latency is added; its energy is charged on every access.
 *  - Serial: the MNM is probed only after an L1 miss. Accesses that miss
 *    L1 pay the MNM delay; the MNM energy is charged only on L1 misses.
 *
 * The caller drives the charging via chargeLookup() after it knows the
 * L1 outcome; update energy is accrued automatically from the event feed.
 *
 * Verdicts have two implementations: the SoA verdict program's scalar
 * pass (core/soa_state.hh), the fast path, and the virtual MissFilter
 * walk under setReferenceDispatch(), the reference the tests compare
 * against. The simulators ask for one verdict per access, so the fast
 * path needs no vector pass.
 */

#ifndef MNM_CORE_MNM_UNIT_HH
#define MNM_CORE_MNM_UNIT_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/miss_filter.hh"
#include "core/rmnm.hh"
#include "core/soa_state.hh"
#include "core/update_plan.hh"
#include "core/verdict_plan.hh"
#include "util/types.hh"

namespace mnm
{

/** Where the MNM sits relative to the caches (paper Figure 1 and the
 *  Section 2 discussion).
 *
 *  Parallel:    probed alongside the L1 caches; no added latency, full
 *               structure energy on every request.
 *  Serial:      probed once after an L1 miss; +delay on L1 misses,
 *               energy only on L1 misses.
 *  Distributed: each cache level's filter sits in front of that cache;
 *               the walk pays the filter delay at every level it
 *               reaches but only consults the structures it actually
 *               needs -- the paper's "better power consumption, but
 *               will increase the access times" variant. */
enum class MnmPlacement
{
    Parallel,
    Serial,
    Distributed,
};

/** Filters applied to every cache within a level range. */
struct LevelFilters
{
    std::uint32_t min_level = 2;
    std::uint32_t max_level = 99;
    std::vector<FilterSpec> filters;
};

/** Complete configuration of one MNM. */
struct MnmSpec
{
    std::string name = "MNM";
    MnmPlacement placement = MnmPlacement::Parallel;
    /** MNM probe delay in cycles (paper Section 4.1 uses 2). */
    Cycles delay = 2;
    /** Oracle mode: "perfect MNM" that knows where every block lives
     *  and consumes no power (paper Sections 4.3/4.4). */
    bool perfect = false;
    /** Optional shared replacement tracker. */
    std::optional<RmnmSpec> rmnm;
    /** Per-level technique assignment. */
    std::vector<LevelFilters> level_filters;
    /** Force oracle-checking of every verdict (testing aid). */
    bool oracle_check = false;
};

/** The Mostly No Machine. */
class MnmUnit : public CacheEventListener
{
  public:
    /**
     * Builds all structures and attaches to @p hierarchy as its event
     * listener. The hierarchy must outlive the unit, be cold (empty) at
     * attach time, and have no other listener.
     */
    MnmUnit(const MnmSpec &spec, CacheHierarchy &hierarchy);
    ~MnmUnit() override;

    MnmUnit(const MnmUnit &) = delete;
    MnmUnit &operator=(const MnmUnit &) = delete;

    /**
     * Produce the per-cache bypass verdicts for one access. Pure with
     * respect to filter state; verdict statistics are recorded.
     * Evaluates the SoA verdict program by default (computeCandidates
     * for one address + finishBypass), or the single-step virtual
     * reference path under setReferenceDispatch().
     */
    BypassMask computeBypass(AccessType type, Addr addr);

    /**
     * Split verdict interface (the SoA fast path; sim/memory_sim).
     *
     * computeCandidates() fills @p cand with one raw candidate mask per
     * address: the pre-guard "definite miss" bits the compiled plan
     * would produce against CURRENT filter state. It is pure -- no
     * statistics, no energy, no guard checks. The simulators ask for
     * one address at a time and consume the candidate at once; a
     * candidate is stale as soon as any placement, replacement, flush
     * or fault has touched level >= 2 state.
     *
     * finishBypass() then turns one candidate into the final verdict
     * exactly as computeBypass() would have: it performs the per-access
     * bookkeeping, applies oracle guards against live cache contents,
     * and records violations. computeBypass(type, addr) is exactly
     * computeCandidates(..1..) + finishBypass.
     */
    void computeCandidates(AccessType type, const Addr *addrs,
                           std::uint32_t *cand, std::size_t n);
    BypassMask finishBypass(AccessType type, Addr addr,
                            std::uint32_t cand);

    /** Whether @p type's plan has any oracle-guarded step. Guard-free
     *  verdicts are pure data with no per-verdict statistics, so a
     *  caller that can prove a verdict will go unread (the access hits
     *  before the first planned level) may skip producing it -- after
     *  noteLookup() for the per-access bookkeeping. */
    bool
    planGuarded(AccessType type) const
    {
        return type == AccessType::InstFetch ? instr_guards_
                                             : data_guards_;
    }

    /** The per-access bookkeeping finishBypass performs, for accesses
     *  whose verdict is provably unread. Keeping the counts identical
     *  to the verdict path keeps the L1-peek path's outputs identical
     *  to the per-access one. */
    void
    noteLookup()
    {
        ++lookups_;
        rmnm_burst_charged_ = false;
    }

    /** Hint the filter-table lines a future computeCandidates for
     *  @p addr will read (soaPrefetch; index locations are pure in the
     *  address, so state churn cannot stale the hint). */
    void
    prefetchCandidates(AccessType type, Addr addr) const
    {
        soaPrefetch(type == AccessType::InstFetch ? soa_instr_
                                                  : soa_data_,
                    addr);
    }

    /** Charge one structure probe (caller decides per placement). */
    void chargeLookup() { ++lookup_charges_; }

    /**
     * Apply the configured placement's latency and energy costs for one
     * completed access: the single source of truth shared by the
     * functional and timing simulators.
     *
     * @return extra latency (cycles) the MNM adds to this access.
     */
    Cycles applyPlacementCosts(const AccessResult &result);

    /** CacheEventListener interface (the bookkeeping feed). The
     *  hierarchy's event ring lands in onEventBatch, which drains
     *  through the compiled per-cache update plan (core/update_plan.hh)
     *  or, under setReferenceFeed/setReferenceDispatch, through the
     *  virtual per-filter interpreter. The block-only virtuals panic:
     *  the CMNM keys its placement record by line, so an event without
     *  one cannot be applied. */
    void onPlacement(CacheId id, BlockAddr block) override;
    void onReplacement(CacheId id, BlockAddr block) override;
    void onFlush(CacheId id) override;
    void onEventBatch(const CacheEvent *events, std::size_t n) override;

    /** Per-probe energy of all structures together, pJ. */
    PicoJoules lookupEnergyPerAccess() const { return lookup_energy_pj_; }

    /**
     * Total energy consumed so far (lookups + updates), pJ. The hot
     * paths count integer events; the per-event energies are multiplied
     * out here, once per query, so the total is independent of event
     * interleaving (no per-access floating-point accumulation order to
     * worry about).
     */
    PicoJoules consumedEnergyPj() const;

    /** Worst-case structure delay under the analytical model, ns. */
    Nanoseconds probeDelayNs() const { return probe_delay_ns_; }

    /** Configured pipeline delay in cycles. */
    Cycles delayCycles() const { return spec_.delay; }

    /** Total storage across all structures, bits. */
    std::uint64_t storageBits() const;

    /** "Miss" verdicts that an oracle check had to overturn. Always 0
     *  for sound configurations; nonzero only in PaperReset ablations
     *  (or if a filter's bookkeeping broke, which tests would catch). */
    std::uint64_t soundnessViolations() const { return violations_; }

    /** Caught violations at one cache level (1-based); the
     *  observability layer's forbidden confusion-matrix cell
     *  (predicted-miss on a resident block). The per-level counters are
     *  sized from the attached hierarchy, so every level it can name is
     *  tracked; levels beyond it report 0. */
    std::uint64_t
    violationsAtLevel(std::uint32_t level) const
    {
        return level < violations_at_.size() ? violations_at_[level] : 0;
    }

    /** Number of tracked violation levels (hierarchy levels + 1; level
     *  indices are 1-based). */
    std::uint32_t violationLevels() const
    {
        return static_cast<std::uint32_t>(violations_at_.size());
    }

    /**
     * Route computeBypass and the event feed through the single-step
     * virtual MissFilter interface instead of the compiled plan. Slow;
     * exists so kernel_equivalence_test can prove both dispatch styles
     * produce bit-identical results.
     */
    void setReferenceDispatch(bool on) { reference_dispatch_ = on; }
    bool referenceDispatch() const { return reference_dispatch_; }

    /**
     * Interpret the event ring through the virtual per-filter
     * MissFilter calls instead of the compiled update plan (the
     * MNM_REFERENCE_FEED=1 knob). Slow; exists so the update kernels
     * can be byte-diffed against an independent interpreter.
     */
    void setReferenceFeed(bool on) { reference_feed_ = on; }
    bool referenceFeed() const { return reference_feed_; }

    /** Number of verdict computations performed. */
    std::uint64_t lookups() const { return lookups_; }

    /** Sum of per-filter bookkeeping anomalies (should stay 0). */
    std::uint64_t filterAnomalies() const;

    const MnmSpec &spec() const { return spec_; }
    const Rmnm *rmnm() const { return rmnm_.get(); }

    /** Filters attached to cache @p id (empty for L1 caches). */
    const std::vector<std::unique_ptr<MissFilter>> &
    filtersOf(CacheId id) const
    {
        return per_cache_[id].filters;
    }

    /** Multi-line configuration summary. */
    std::string describe() const;

  private:
    /** The fault-injection harness flips bits in the private
     *  structures directly (core/fault_inject.hh). */
    friend class FaultInjector;

    struct PerCache
    {
        std::vector<std::unique_ptr<MissFilter>> filters;
        /** Index into the RMNM bit vector; -1 if untracked (L1). */
        int rmnm_index = -1;
        unsigned block_bits = 0;
        bool any_unsound = false;
        /** Energy to update this cache's filters once, pJ. */
        PicoJoules update_pj = 0.0;
        /** Energy to probe this cache's filters once, pJ. */
        PicoJoules lookup_pj = 0.0;
        /** This cache's slice of the flat kernel array:
         *  kernels_[kernel_first .. kernel_first + kernel_count). */
        std::uint32_t kernel_first = 0;
        std::uint32_t kernel_count = 0;
        /** Hot accounting: filter-update events (placements plus
         *  replacements) and distributed-placement probe events.
         *  Multiplied by update_pj / lookup_pj in consumedEnergyPj(). */
        std::uint64_t update_events = 0;
        std::uint64_t dist_lookup_events = 0;
    };

    /** One compiled step of a per-path verdict plan: everything the
     *  hot loop needs for a level >= 2 cache, resolved at construction
     *  so computeBypass touches no per-access indirection beyond it. */
    struct VerdictStep
    {
        const Cache *cache = nullptr;
        const PerCache *pc = nullptr;
        CacheId id = 0;
        std::uint32_t level = 0;
        /** Oracle-check every "miss" verdict at this cache. */
        bool oracle_guard = false;
    };

    /** Reference (virtual-dispatch) application of one event. */
    void applyEventReference(const CacheEvent &ev);

    /** Reference (virtual-dispatch) verdict for one cache. */
    bool cacheVerdict(CacheId id, Addr addr) const;

    /** The single-step reference walk computeBypass falls back to. */
    BypassMask computeBypassReference(AccessType type, Addr addr);

    /** Flatten the filter fan-out and the per-path walks into plans. */
    void compilePlans();

    /** Lower one walk plan into its SoA program (borrowing the live
     *  filter tables; core/soa_state.hh). */
    void lowerPlan(const std::vector<VerdictStep> &plan,
                   SoaProgram &program) const;

    MnmSpec spec_;
    CacheHierarchy &hierarchy_;
    std::vector<PerCache> per_cache_;
    std::unique_ptr<Rmnm> rmnm_;

    /** The flat verdict plan: every filter of every cache, contiguous,
     *  type-tagged (cache c owns the slice described by its PerCache). */
    std::vector<FilterKernel> kernels_;
    /** Per-path walk plans (level >= 2 caches in path order). */
    std::vector<VerdictStep> instr_plan_;
    std::vector<VerdictStep> data_plan_;
    /** The update-side mirror: one compiled step per cache id, driven
     *  by the drained event ring (core/update_plan.hh). */
    std::vector<UpdateStep> update_plan_;
    bool reference_dispatch_ = false;
    bool reference_feed_ = false;

    /** SoA lowerings of the walk plans (the verdict fast path). */
    SoaProgram soa_instr_;
    SoaProgram soa_data_;
    /** Any oracle-guarded step on the path? Guard-free plans turn a
     *  candidate mask into the final BypassMask with no per-step loop. */
    bool instr_guards_ = false;
    bool data_guards_ = false;

    PicoJoules lookup_energy_pj_ = 0.0;
    /** RMNM write energy, charged once per access burst: the fill
     *  path's placement/replacement report traverses the MNM as one
     *  message (paper Section 2), so the RMNM performs one batched
     *  update per access rather than one per cache event. */
    PicoJoules rmnm_update_pj_ = 0.0;
    bool rmnm_burst_charged_ = false;
    PicoJoules rmnm_lookup_pj_ = 0.0;
    Nanoseconds probe_delay_ns_ = 0.0;

    /** Hot accounting: integer event counts behind consumedEnergyPj(). */
    std::uint64_t lookup_charges_ = 0;
    std::uint64_t rmnm_burst_events_ = 0;
    std::uint64_t rmnm_lookup_events_ = 0;

    std::uint64_t lookups_ = 0;
    std::uint64_t violations_ = 0;
    /** Sized from the attached hierarchy (levels + 1, 1-based). */
    std::vector<std::uint64_t> violations_at_;
};

} // namespace mnm

#endif // MNM_CORE_MNM_UNIT_HH
