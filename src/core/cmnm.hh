/**
 * @file
 * Common-Address MNM (paper Section 3.4).
 *
 * Exploits spatial locality in the upper address bits. A "virtual-tag
 * finder" of k registers remembers the distinct upper-bit patterns
 * ((32 - m) most significant bits of the block address) seen among
 * cached blocks; each register's match can be coarsened by a left-
 * shifting mask. On an access:
 *
 *   1. if no register matches the upper bits -> definite miss
 *      (no cached block shares this address region);
 *   2. otherwise the matching register's index (the "virtual tag") is
 *      concatenated with the m least significant bits and used to index
 *      a table of 3-bit sticky saturating counters (as in TMNM);
 *      a zero counter -> definite miss.
 *
 * Mask policy (see DESIGN.md decision 4): the paper's literal behaviour
 * ("shift the masks left until a match is found, then reset the others")
 * can orphan earlier placements and emit unsound verdicts. The default
 * Monotone policy widens masks monotonically and remembers, per line of
 * the host cache, which register the resident block's placement
 * incremented -- the virtual tag stored with the line's metadata --
 * making the filter provably sound. PaperReset implements the literal
 * text as an ablation; it reports maybeUnsound() so the MnmUnit
 * oracle-guards its verdicts and counts the violations.
 */

#ifndef MNM_CORE_CMNM_HH
#define MNM_CORE_CMNM_HH

#include <cstdint>
#include <vector>

#include "core/miss_filter.hh"

namespace mnm
{

/** The CMNM filter for one cache. */
class Cmnm : public MissFilter
{
  public:
    /** @p host_lines bounds the line indices the feed will carry (the
     *  host cache's line count). */
    Cmnm(const CmnmSpec &spec, std::uint32_t host_lines);

    /** Non-virtual hot-path bodies; the verdict plan dispatches to
     *  these directly (core/verdict_plan.hh). Out of line -- the CAM
     *  walk dominates, so inlining buys nothing here -- but still a
     *  direct call instead of a virtual one. @p line is the host
     *  cache's flat line index the block enters or leaves. */
    bool missHot(BlockAddr block) const;
    void placeHot(BlockAddr block, std::uint32_t line);
    void replaceHot(BlockAddr block, std::uint32_t line);

    bool definitelyMiss(BlockAddr block) const override
    {
        return missHot(block);
    }
    void
    onPlacement(BlockAddr block, std::uint32_t line) override
    {
        placeHot(block, line);
    }
    void
    onReplacement(BlockAddr block, std::uint32_t line) override
    {
        replaceHot(block, line);
    }
    void onFlush() override;
    std::string name() const override;
    std::uint64_t storageBits() const override;
    PowerDelay power(const SramModel &sram,
                     const CheckerModel &checker) const override;
    bool maybeUnsound() const override
    {
        return spec_.policy == CmnmMaskPolicy::PaperReset;
    }
    std::uint64_t anomalies() const override { return anomalies_; }

    /** Fault surface: every counter bit, then per register 16 low
     *  prefix bits plus the valid bit. The per-line placement record
     *  is cache metadata, not MNM storage, so it is not exposed. */
    std::uint64_t faultBitCount() const override
    {
        return static_cast<std::uint64_t>(counters_.size()) *
                   spec_.counter_bits +
               static_cast<std::uint64_t>(registers_.size()) *
                   register_fault_bits;
    }
    void flipFaultBit(std::uint64_t bit) override
    {
        std::uint64_t counter_bits =
            static_cast<std::uint64_t>(counters_.size()) *
            spec_.counter_bits;
        if (bit < counter_bits) {
            counters_[bit / spec_.counter_bits] ^=
                static_cast<std::uint8_t>(1u
                                          << (bit % spec_.counter_bits));
            return;
        }
        bit -= counter_bits;
        VtagRegister &reg = registers_[bit / register_fault_bits];
        std::uint64_t within = bit % register_fault_bits;
        if (within < 16) {
            reg.prefix ^= std::uint64_t{1} << within;
        } else {
            reg.valid = !reg.valid;
        }
    }

    const CmnmSpec &spec() const { return spec_; }

    /** Number of virtual-tag registers currently allocated. */
    std::uint32_t registersInUse() const;

    /** Total mask widenings performed (diagnostic). */
    std::uint64_t maskWidenings() const { return widenings_; }

    /** One virtual-tag register. Public so the SoA verdict program can
     *  borrow the live register file and run the Monotone CAM walk
     *  inline (core/soa_state.hh) instead of calling back in here per
     *  lane. */
    struct VtagRegister
    {
        /** Upper bits of the block address at allocation (block >> m). */
        std::uint64_t prefix = 0;
        /** How many low prefix bits the mask currently ignores. */
        std::uint32_t widen = 0;
        bool valid = false;
    };

    /** widen can legitimately reach 64; plain >> would be UB there. */
    static std::uint64_t
    shiftRight(std::uint64_t v, std::uint32_t s)
    {
        return s >= 64 ? 0 : v >> s;
    }

    /** Live register file / counter table, borrowed by the SoA
     *  program. Neither reallocates after construction (onFlush
     *  rewrites in place), so the pointers are stable. */
    const VtagRegister *registerTable() const { return registers_.data(); }
    const std::uint8_t *counterTable() const { return counters_.data(); }

  private:
    /** Injectable bits per virtual-tag register (16 prefix + valid). */
    static constexpr std::uint64_t register_fault_bits = 17;

    std::uint64_t prefixOf(BlockAddr block) const
    {
        return block >> spec_.table_index_bits;
    }

    std::uint64_t lowBitsOf(BlockAddr block) const
    {
        return block & ((std::uint64_t{1} << spec_.table_index_bits) - 1);
    }

    bool regMatches(const VtagRegister &reg, std::uint64_t prefix) const
    {
        return reg.valid && shiftRight(prefix, reg.widen) ==
                                shiftRight(reg.prefix, reg.widen);
    }

    /**
     * Most specific (narrowest-mask) matching register, or -1. Ties go
     * to the lowest index. Specificity spreads placements across the
     * register file instead of letting a fully-widened low register
     * absorb everything.
     */
    int bestMatch(std::uint64_t prefix) const;

    /** Find/allocate/widen to produce a register for a placement. */
    std::uint32_t registerForPlacement(std::uint64_t prefix);

    std::size_t
    cellIndex(std::uint32_t reg, BlockAddr block) const
    {
        return (static_cast<std::size_t>(reg)
                << spec_.table_index_bits) |
               static_cast<std::size_t>(lowBitsOf(block));
    }

    void stickyIncrement(std::size_t cell);
    void stickyDecrement(std::size_t cell);

    CmnmSpec spec_;
    std::uint8_t saturation_;
    std::vector<VtagRegister> registers_;
    std::vector<std::uint8_t> counters_; //!< k * 2^m sticky counters
    /** Monotone policy: per host-cache line, the register the resident
     *  block's placement incremented, or no_reg for an empty line. */
    std::vector<std::uint8_t> line_reg_;
    static constexpr std::uint8_t no_reg = 0xff;
    std::uint64_t anomalies_ = 0;
    std::uint64_t widenings_ = 0;
};

} // namespace mnm

#endif // MNM_CORE_CMNM_HH
