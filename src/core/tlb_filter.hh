/**
 * @file
 * MNM-style filtering for TLBs (the paper's Section 4.5 extension).
 *
 * Exactly the cache story transplanted to page granularity: a small
 * sound filter observes TLB installs/evictions and, on a lookup, either
 * says "the page is definitely not in the TLB" (skip the CAM probe,
 * start the page walk immediately -- saving the probe energy AND the
 * probe latency on the miss path) or "maybe" (probe normally).
 */

#ifndef MNM_CORE_TLB_FILTER_HH
#define MNM_CORE_TLB_FILTER_HH

#include <memory>

#include "cache/tlb.hh"
#include "core/miss_filter.hh"

namespace mnm
{

/** One filter shielding one TLB. */
class TlbFilterUnit : public Tlb::Listener
{
  public:
    /**
     * Attach to @p tlb (must be cold and outlive the unit). The filter
     * spec works at page granularity; TMNM with ~entries-sized tables
     * is the natural choice.
     */
    TlbFilterUnit(const FilterSpec &spec, Tlb &tlb);
    ~TlbFilterUnit() override;

    TlbFilterUnit(const TlbFilterUnit &) = delete;
    TlbFilterUnit &operator=(const TlbFilterUnit &) = delete;

    /**
     * Translate through filter + TLB with full accounting.
     * @return translation latency.
     */
    Cycles translate(Addr addr);

    /** Tlb::Listener (the bookkeeping feed). */
    void onTlbPlacement(std::uint64_t page, std::uint32_t line) override;
    void onTlbReplacement(std::uint64_t page, std::uint32_t line) override;

    /** Probes skipped / total misses seen (the coverage metric). */
    double coverage() const;

    std::uint64_t identified() const { return identified_; }
    std::uint64_t unidentified() const { return unidentified_; }

    /** Oracle-checked unsound verdicts (always 0 for sound filters). */
    std::uint64_t soundnessViolations() const { return violations_; }

    /** Per-probe filter energy under the analytical model, pJ. */
    PicoJoules filterProbePj() const { return filter_probe_pj_; }

    /** Total filter energy consumed, pJ. */
    PicoJoules consumedEnergyPj() const { return energy_pj_; }

    const MissFilter &filter() const { return *filter_; }

  private:
    std::unique_ptr<MissFilter> filter_;
    Tlb &tlb_;
    std::uint64_t identified_ = 0;
    std::uint64_t unidentified_ = 0;
    std::uint64_t violations_ = 0;
    PicoJoules filter_probe_pj_ = 0.0;
    PicoJoules filter_update_pj_ = 0.0;
    PicoJoules energy_pj_ = 0.0;
};

} // namespace mnm

#endif // MNM_CORE_TLB_FILTER_HH
