/**
 * @file
 * Per-level MNM decision accounting: the confusion matrix of verdicts
 * ("miss" vs. "maybe") crossed with ground truth (the block was absent
 * vs. resident). Every headline metric of the paper is a derived
 * quantity of these cells -- coverage (Figures 10-14) is
 * predicted-miss/actual-miss over all actual misses -- so tracking the
 * raw cells makes coverage regressions and soundness near-misses
 * visible instead of folded away.
 *
 * The four cells per cache level:
 *  - predicted_miss_actual_miss: the MNM said "miss" and the block was
 *    absent; the probe was bypassed. The win the paper is about.
 *  - maybe_actual_miss: the MNM said "maybe" but the probe missed; a
 *    bypass opportunity not taken (the coverage denominator's gap).
 *  - maybe_actual_hit: the MNM said "maybe" and the probe hit; the
 *    mandatory cautious answer.
 *  - predicted_miss_actual_hit: the forbidden cell. A "miss" verdict
 *    for a resident block is a soundness violation (paper Section 3.6):
 *    acting on it would skip a hit and corrupt architectural state.
 *    The MnmUnit's oracle check counts and suppresses these; for sound
 *    configurations the cell must be zero, and the tier-1 tests assert
 *    it (see assertSound() and DESIGN.md).
 *
 * Coverage (paper Section 4.2: "the fraction of the misses
 * identified by the technique over all cache misses") is a view of two
 * of these cells: identified = predicted_miss_actual_miss, missed =
 * maybe_actual_miss. Only bypassable misses count -- level-1 outcomes
 * are never predicted -- and coverage is a property of the verdicts
 * alone, independent of the MNM's serial or parallel placement.
 *
 * An acted-upon forbidden decision cannot even be represented: a
 * bypassed probe that claims to have hit trips an MNM_ASSERT in
 * record().
 */

#ifndef MNM_OBS_CONFUSION_HH
#define MNM_OBS_CONFUSION_HH

#include <array>
#include <cstdint>

#include "cache/hierarchy.hh"
#include "obs/registry.hh"

namespace mnm
{

/** Confusion matrix of one run's MNM decisions, per cache level. */
class DecisionMatrix
{
  public:
    /** One-based level slots (0 and 1 stay empty): one for every level
     *  a CacheHierarchy accepts, so no verdict is ever dropped. */
    static constexpr std::size_t max_levels = CacheHierarchy::max_levels + 1;

    /** One level's decision counts. */
    struct Cells
    {
        std::uint64_t predicted_miss_actual_miss = 0;
        std::uint64_t maybe_actual_miss = 0;
        std::uint64_t maybe_actual_hit = 0;
        /** The forbidden cell: caught-and-suppressed unsound verdicts. */
        std::uint64_t predicted_miss_actual_hit = 0;

        std::uint64_t
        decisions() const
        {
            return predicted_miss_actual_miss + maybe_actual_miss +
                   maybe_actual_hit + predicted_miss_actual_hit;
        }

        /** Actual misses = the coverage denominator at this level. */
        std::uint64_t
        actualMisses() const
        {
            return predicted_miss_actual_miss + maybe_actual_miss;
        }
    };

    /**
     * Fold one completed access into the matrix: every probed or
     * bypassed cache at level >= 2 contributes one decision (level-1
     * outcomes are never predicted). The forbidden cell is not touched
     * here -- a suppressed unsound verdict leaves no trace in the
     * AccessResult; it is reported by the MnmUnit and folded in via
     * setForbidden().
     */
    void record(const AccessResult &result);

    /** Overwrite the forbidden-cell count for @p level (cumulative
     *  totals from MnmUnit::violationsAtLevel). */
    void setForbidden(std::uint32_t level, std::uint64_t count);

    const Cells &at(std::uint32_t level) const;
    Cells totals() const;

    /** Forbidden-cell sum across levels (0 for sound configs). */
    std::uint64_t forbidden() const;

    /** Misses the MNM identified (accesses actually bypassed). */
    std::uint64_t identified() const
    {
        return totals().predicted_miss_actual_miss;
    }
    /** Misses that were probed in full (opportunity not taken). */
    std::uint64_t unidentified() const
    {
        return totals().maybe_actual_miss;
    }
    /** All bypassable misses seen. */
    std::uint64_t opportunities() const { return totals().actualMisses(); }
    std::uint64_t identifiedAt(std::uint32_t level) const
    {
        return at(level).predicted_miss_actual_miss;
    }
    std::uint64_t unidentifiedAt(std::uint32_t level) const
    {
        return at(level).maybe_actual_miss;
    }

    /** The paper's coverage metric in [0,1]: identified/opportunities. */
    double coverage() const;
    double coverageAt(std::uint32_t level) const;

    /** Cell-wise sum for cross-cell aggregation. */
    void merge(const DecisionMatrix &other);

    void reset();

    /** Overwrite one level's cells (checkpoint journal replay). */
    void setCells(std::uint32_t level, const Cells &cells);

    /**
     * Fold the non-empty levels into @p registry as counters named
     * "<prefix>.l<level>.<cell>".
     */
    void registerInto(StatsRegistry &registry,
                      const std::string &prefix) const;

    /** MNM_ASSERT that the forbidden cell is zero at every level. */
    void assertSound(const char *context) const;

  private:
    std::array<Cells, max_levels> levels_{};
};

/** The coverage ledger is the decision matrix; the old name stays only
 *  because perfbench/cc/ spells it. */
using CoverageTracker = DecisionMatrix;

} // namespace mnm

#endif // MNM_OBS_CONFUSION_HH
