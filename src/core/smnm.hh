/**
 * @file
 * Sum MNM (paper Section 3.2).
 *
 * Each "checker" hashes a sum_width-bit window of the block address with
 * the paper's sum-of-squares function (Figure 5):
 *
 *     sum = 0;
 *     for (i = 1; i <= SUM_WIDTH; i++) {
 *         if (addr & 0x1) sum += i * i;
 *         addr >>= 1;
 *     }
 *
 * and keeps one presence flag per possible sum value (the flip-flops at
 * the bottom of Figure 6; their count is paper Equation 3). An access
 * whose sum value has no resident block is a definite miss. A
 * configuration "SMNM_WxR" runs R parallel checkers over address windows
 * starting at bits 0, 6, 12, ... (Section 3.2's checker offsets); a miss
 * from ANY checker bypasses the access (Figure 7).
 */

#ifndef MNM_CORE_SMNM_HH
#define MNM_CORE_SMNM_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "core/miss_filter.hh"
#include "util/bits.hh"

namespace mnm
{

/** The SMNM filter for one cache. */
class Smnm : public MissFilter
{
  public:
    /** Figure 5's hash evaluated by table lookup: the window is split
     *  into segments of <= seg_bits bits and each segment's
     *  contribution (sum of (global_pos+1)^2 over its set bits) comes
     *  from one shared LUT. The decomposition is exact -- the hash is
     *  a plain sum over bit positions -- so sumHashFast() equals
     *  sumHash() bit-for-bit while replacing the per-set-bit loop with
     *  two or three loads. The SoA verdict kernels
     *  (core/soa_state.hh) run the same segments 8-wide. */
    static constexpr unsigned seg_bits = 11;
    static constexpr unsigned max_segments = 3; // ceil(32 / seg_bits)

    /** One LUT-backed window segment: sum += lut[(addr >> shift) & mask]. */
    struct SumSegment
    {
        unsigned shift = 0;
        std::uint32_t mask = 0;
        const std::uint32_t *lut = nullptr;
    };

    /** The segments of one checker's window. Segments whose shift
     *  would reach past bit 63 are dropped at build time: the original
     *  window sees only zeros there, so they contribute nothing. */
    struct CheckerSegments
    {
        SumSegment seg[max_segments];
        unsigned count = 0;
    };

    explicit Smnm(const SmnmSpec &spec);

    /** The paper's Figure 5 hash over a window of @p addr. Iterates
     *  only the set bits of the window -- bit p (0-based) contributes
     *  (p+1)^2 -- which is exactly the Figure 5 loop's result. */
    static std::uint32_t
    sumHash(std::uint64_t addr, unsigned first_bit,
            std::uint32_t sum_width)
    {
        std::uint64_t window = (addr >> first_bit) & lowMask(sum_width);
        std::uint32_t sum = 0;
        while (window) {
            unsigned p = static_cast<unsigned>(std::countr_zero(window));
            sum += (p + 1) * (p + 1);
            window &= window - 1;
        }
        return sum;
    }

    /** Number of distinct sum values for a width (Eq. 3 + 1 for zero). */
    static std::uint32_t sumValues(std::uint32_t sum_width);

    /** sumHash() by segment LUTs; identical result, no per-bit loop. */
    std::uint32_t
    sumHashFast(BlockAddr block, std::uint32_t checker) const
    {
        const CheckerSegments &cs = checker_segs_[checker];
        std::uint32_t sum = 0;
        for (unsigned s = 0; s < cs.count; ++s) {
            const SumSegment &seg = cs.seg[s];
            sum += seg.lut[(block >> seg.shift) & seg.mask];
        }
        return sum;
    }

    /** Non-virtual hot-path bodies; the verdict plan dispatches to
     *  these directly (core/verdict_plan.hh) so the per-access work
     *  inlines into the simulators' inner loops. The virtual overrides
     *  below forward here, keeping both paths behaviourally one. */
    bool
    missHot(BlockAddr block) const
    {
        for (std::uint32_t c = 0; c < spec_.replication; ++c) {
            std::uint32_t sum = sumHashFast(block, c);
            if (state_[static_cast<std::size_t>(c) * values_per_checker_ +
                       sum] == 0) {
                return true;
            }
        }
        return false;
    }

    void
    placeHot(BlockAddr block)
    {
        for (std::uint32_t c = 0; c < spec_.replication; ++c) {
            std::uint32_t sum = sumHashFast(block, c);
            std::uint32_t &cell =
                state_[static_cast<std::size_t>(c) * values_per_checker_ +
                       sum];
            if (spec_.mode == SmnmUpdateMode::Counting) {
                ++cell;
            } else {
                cell = 1;
            }
        }
    }

    void
    replaceHot(BlockAddr block)
    {
        if (spec_.mode != SmnmUpdateMode::Counting)
            return; // the literal circuit ignores replacements
        for (std::uint32_t c = 0; c < spec_.replication; ++c) {
            std::uint32_t sum = sumHashFast(block, c);
            std::uint32_t &cell =
                state_[static_cast<std::size_t>(c) * values_per_checker_ +
                       sum];
            if (cell == 0) {
                // Replacement of a block we never saw placed: only
                // possible if we were attached to a warm cache.
                ++anomalies_;
            } else {
                --cell;
            }
        }
    }

    bool definitelyMiss(BlockAddr block) const override
    {
        return missHot(block);
    }
    /** The SMNM keys nothing by line: the line is ignored. */
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

    /** Fault surface: every bit of the per-sum state words (presence
     *  flip-flops in SetOnly mode, count bits in Counting mode). */
    std::uint64_t faultBitCount() const override
    {
        return static_cast<std::uint64_t>(state_.size()) * 32u;
    }
    void flipFaultBit(std::uint64_t bit) override
    {
        state_[bit / 32u] ^= std::uint32_t{1} << (bit % 32u);
    }

    const SmnmSpec &spec() const { return spec_; }

    /** SoA-program views (core/soa_state.hh): the live state table and
     *  the compiled segments. The kernels borrow this storage rather
     *  than copying it, so every update and every injected fault is
     *  visible to them by construction. */
    const std::uint32_t *stateData() const { return state_.data(); }
    std::uint32_t valuesPerChecker() const { return values_per_checker_; }
    const CheckerSegments &
    checkerSegments(std::uint32_t checker) const
    {
        return checker_segs_[checker];
    }

  private:
    /** Bit offset of checker @p i's address window. */
    unsigned checkerOffset(std::uint32_t i) const { return 6 * i; }

    SmnmSpec spec_;
    std::uint32_t values_per_checker_;
    /** Counting mode: per-checker, per-sum resident counts.
     *  SetOnly mode: 0/1 flags with no decrement. */
    std::vector<std::uint32_t> state_;
    /** Per-checker LUT segments behind sumHashFast(). */
    std::vector<CheckerSegments> checker_segs_;
    std::uint64_t anomalies_ = 0;
};

} // namespace mnm

#endif // MNM_CORE_SMNM_HH
