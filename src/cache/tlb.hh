/**
 * @file
 * A translation lookaside buffer model.
 *
 * Substrate for the paper's Section 4.5 suggestion that the MNM idea
 * "might be used to reduce the power consumption of other caching
 * structures such as the TLBs". The model is translation-free (flat
 * identity mapping): only page-number presence, replacement, and the
 * probe/walk costs matter for the filtering study.
 */

#ifndef MNM_CACHE_TLB_HH
#define MNM_CACHE_TLB_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cache/cache.hh"
#include "util/types.hh"

namespace mnm
{

/** Static configuration of one TLB. */
struct TlbParams
{
    std::string name = "tlb";
    /** Number of entries (power of two). */
    std::uint32_t entries = 64;
    /** Associativity; 0 = fully associative (the common choice). */
    std::uint32_t associativity = 0;
    /** log2 of the page size (4 KB pages -> 12). */
    unsigned page_bits = 12;
    /** Probe latency in cycles. */
    Cycles probe_latency = 1;
    /** Page-walk latency on a miss, cycles. */
    Cycles walk_latency = 30;
};

/** Event counts for one TLB. */
struct TlbStats
{
    Counter accesses;
    Counter hits;
    Counter misses;
    Counter bypasses; //!< probes skipped on filter "miss" verdicts
    Counter walks;

    double hitRate() const
    {
        return ratio(static_cast<double>(hits.value()),
                     static_cast<double>(accesses.value()));
    }
};

/**
 * The TLB. Built on the same set-associative machinery as the caches,
 * keyed by virtual page number. The filter bookkeeping hooks
 * (placement/replacement of page numbers) mirror the cache hierarchy's
 * listener feed.
 */
class Tlb
{
  public:
    /** Listener for page-number placement/replacement (filter feed).
     *  @p line is the entry's flat index, below params().entries. */
    class Listener
    {
      public:
        virtual ~Listener() = default;
        virtual void onTlbPlacement(std::uint64_t page,
                                    std::uint32_t line) = 0;
        virtual void onTlbReplacement(std::uint64_t page,
                                      std::uint32_t line) = 0;
    };

    explicit Tlb(const TlbParams &params, std::uint64_t seed = 1);

    std::uint64_t pageOf(Addr addr) const
    {
        return addr >> params_.page_bits;
    }

    /**
     * Translate @p addr. On a miss the page is walked and installed
     * (evictions notify the listener).
     *
     * @param bypass_probe the filter said "definitely not resident":
     *        skip the probe and go straight to the walk.
     * @return latency of the translation.
     */
    Cycles translate(Addr addr, bool bypass_probe = false);

    /** Side-effect-free residency check (oracle for soundness tests). */
    bool contains(Addr addr) const;

    void setListener(Listener *listener) { listener_ = listener; }

    const TlbParams &params() const { return params_; }
    const TlbStats &stats() const { return stats_; }

  private:
    TlbParams params_;
    Cache entries_; //!< page-number presence tracking
    TlbStats stats_;
    Listener *listener_ = nullptr;
};

} // namespace mnm

#endif // MNM_CACHE_TLB_HH
