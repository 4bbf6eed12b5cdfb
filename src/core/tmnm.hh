/**
 * @file
 * Table MNM (paper Section 3.3).
 *
 * The least significant N bits of the block address index a 2^N-entry
 * table of 3-bit saturating counters (a counting Bloom filter with a
 * single trivial hash). A counter of zero means no resident block maps
 * there: definite miss. Placement increments, replacement decrements --
 * except that a counter which ever saturates becomes untrustworthy and
 * stays saturated ("sticky") until the cache is flushed, exactly as the
 * paper prescribes. A configuration "TMNM_NxR" runs R tables over
 * address windows at bit offsets 0, 6, 12, ...; a zero counter in ANY
 * table bypasses the access.
 */

#ifndef MNM_CORE_TMNM_HH
#define MNM_CORE_TMNM_HH

#include <cstdint>
#include <vector>

#include "core/miss_filter.hh"
#include "util/bits.hh"

namespace mnm
{

/** The TMNM filter for one cache. */
class Tmnm : public MissFilter
{
  public:
    explicit Tmnm(const TmnmSpec &spec);

    /** Non-virtual hot-path bodies; the verdict plan dispatches to
     *  these directly (core/verdict_plan.hh). The virtual overrides
     *  forward here so both paths share one implementation. */
    bool
    missHot(BlockAddr block) const
    {
        for (std::uint32_t t = 0; t < spec_.replication; ++t) {
            if (counters_[cellIndex(t, block)] == 0)
                return true;
        }
        return false;
    }

    void
    placeHot(BlockAddr block)
    {
        for (std::uint32_t t = 0; t < spec_.replication; ++t) {
            std::uint8_t &c = counters_[cellIndex(t, block)];
            if (c < saturation_)
                ++c;
            // A saturated counter stays saturated: once 2^bits or more
            // blocks have mapped here we can no longer track the count.
        }
    }

    void
    replaceHot(BlockAddr block)
    {
        for (std::uint32_t t = 0; t < spec_.replication; ++t) {
            std::uint8_t &c = counters_[cellIndex(t, block)];
            if (c == saturation_) {
                // Sticky: decrementing a saturated counter could let it
                // reach zero while blocks remain resident, breaking
                // soundness (paper Section 3.3).
                continue;
            }
            if (c == 0) {
                ++anomalies_;
                continue;
            }
            --c;
        }
    }

    bool definitelyMiss(BlockAddr block) const override
    {
        return missHot(block);
    }
    /** The TMNM keys nothing by line: the line is ignored. */
    void
    onPlacement(BlockAddr block, std::uint32_t) override
    {
        placeHot(block);
    }
    void
    onReplacement(BlockAddr block, std::uint32_t) override
    {
        replaceHot(block);
    }
    void onFlush() override;
    std::string name() const override;
    std::uint64_t storageBits() const override;
    PowerDelay power(const SramModel &sram,
                     const CheckerModel &checker) const override;
    std::uint64_t anomalies() const override { return anomalies_; }

    /** Fault surface: counter_bits bits per saturating counter. */
    std::uint64_t faultBitCount() const override
    {
        return static_cast<std::uint64_t>(counters_.size()) *
               spec_.counter_bits;
    }
    void flipFaultBit(std::uint64_t bit) override
    {
        counters_[bit / spec_.counter_bits] ^= static_cast<std::uint8_t>(
            1u << (bit % spec_.counter_bits));
    }

    const TmnmSpec &spec() const { return spec_; }

    /** Number of saturated (permanently "maybe") counters right now. */
    std::uint64_t saturatedCounters() const;

    /** SoA-program views (core/soa_state.hh): the live counter table
     *  and its geometry. Borrowed, never copied -- updates and
     *  injected faults are visible to the kernels by construction. */
    const std::uint8_t *countersData() const { return counters_.data(); }
    std::uint32_t tableEntries() const { return table_entries_; }

  private:
    unsigned tableOffset(std::uint32_t i) const { return 6 * i; }

    std::size_t
    cellIndex(std::uint32_t table, BlockAddr block) const
    {
        std::uint64_t idx =
            bitSlice(block, tableOffset(table), spec_.index_bits);
        return static_cast<std::size_t>(table) * table_entries_ +
               static_cast<std::size_t>(idx);
    }

    TmnmSpec spec_;
    std::uint32_t table_entries_;
    std::uint8_t saturation_;
    std::vector<std::uint8_t> counters_;
    std::uint64_t anomalies_ = 0;
};

} // namespace mnm

#endif // MNM_CORE_TMNM_HH
