/**
 * @file
 * The per-cache miss-filter interface shared by the SMNM, TMNM and CMNM
 * techniques, plus the declarative FilterSpec used to configure them.
 *
 * A MissFilter is attached to exactly one cache structure and observes
 * that cache's placement/replacement stream (the bookkeeping feed the MNM
 * receives, paper Section 2). On a lookup it answers either "the block is
 * DEFINITELY not in the cache" (true) or "maybe present" (false).
 *
 * The contract every implementation must honour is the paper's soundness
 * property (Section 3.6): a true ("miss") answer must never be produced
 * for a block that is actually resident, provided the filter observed
 * every placement and replacement since the cache was last empty.
 * Implementations that can violate this under the paper's literal
 * description (CMNM's PaperReset mask policy) must return true from
 * maybeUnsound() so the MnmUnit can guard their verdicts with an oracle
 * check and count the violations.
 */

#ifndef MNM_CORE_MISS_FILTER_HH
#define MNM_CORE_MISS_FILTER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "power/checker_model.hh"
#include "power/sram_model.hh"
#include "util/types.hh"

namespace mnm
{

/** Abstract per-cache miss filter. Addresses are at the granularity of
 *  the attached cache's block size. */
class MissFilter
{
  public:
    virtual ~MissFilter() = default;

    /** @return true iff the block is definitely NOT in the cache. */
    virtual bool definitelyMiss(BlockAddr block) const = 0;

    /** A block was placed into line @p line (flat set * ways + way
     *  index) of the attached cache. */
    virtual void onPlacement(BlockAddr block, std::uint32_t line) = 0;

    /** A block was replaced (evicted) from line @p line of the attached
     *  cache. */
    virtual void onReplacement(BlockAddr block, std::uint32_t line) = 0;

    /** The attached cache was flushed; reset all bookkeeping. */
    virtual void onFlush() = 0;

    /** Short configuration name, e.g. "TMNM_12x3". */
    virtual std::string name() const = 0;

    /** Storage bits the structure requires. */
    virtual std::uint64_t storageBits() const = 0;

    /** Per-access energy/delay under the analytical power model. */
    virtual PowerDelay power(const SramModel &sram,
                             const CheckerModel &checker) const = 0;

    /**
     * True when the configuration can emit unsound verdicts (see file
     * comment); the MnmUnit then oracle-checks every "miss" verdict.
     */
    virtual bool maybeUnsound() const { return false; }

    /** Bookkeeping anomalies observed (e.g. replacement never placed). */
    virtual std::uint64_t anomalies() const { return 0; }

    /**
     * Fault-injection surface (core/fault_inject.hh): the number of
     * physical state bits a particle strike could flip. 0 (the
     * default) means the structure exposes no injection surface.
     */
    virtual std::uint64_t faultBitCount() const { return 0; }

    /**
     * Flip state bit @p bit (< faultBitCount()), simulating a single-
     * event upset. Flipping the same bit twice restores the original
     * state. Used only by the fault-injection harness; never called
     * during normal simulation.
     */
    virtual void flipFaultBit(std::uint64_t bit) { (void)bit; }
};

/** How the SMNM presence state is maintained (DESIGN.md decision 1). */
enum class SmnmUpdateMode
{
    /** Per-sum counters driven by placements AND replacements (sound,
     *  steady-state; the default). */
    Counting,
    /** The literal circuit: set-only flip-flops, cleared on flush. Sound
     *  but decays towards all-"maybe". Ablation mode. */
    SetOnly,
};

/** Configuration of one SMNM instance (sumwidth x replication). */
struct SmnmSpec
{
    std::uint32_t sum_width = 10;
    std::uint32_t replication = 1;
    SmnmUpdateMode mode = SmnmUpdateMode::Counting;
};

/** Configuration of one TMNM instance (index bits x replication). */
struct TmnmSpec
{
    std::uint32_t index_bits = 10;
    std::uint32_t replication = 1;
    std::uint32_t counter_bits = 3;
};

/** CMNM virtual-tag-finder mask policy (DESIGN.md decision 4). */
enum class CmnmMaskPolicy
{
    /** Masks only widen; placements remember their register. Sound. */
    Monotone,
    /** The paper's literal "reset the other masks" behaviour. May emit
     *  unsound verdicts, which the MnmUnit detects and counts. */
    PaperReset,
};

/** Configuration of one CMNM instance (registers, table index bits). */
struct CmnmSpec
{
    std::uint32_t num_registers = 4;
    std::uint32_t table_index_bits = 10;
    std::uint32_t counter_bits = 3;
    CmnmMaskPolicy policy = CmnmMaskPolicy::Monotone;
};

/** Any one per-cache technique. */
using FilterSpec = std::variant<SmnmSpec, TmnmSpec, CmnmSpec>;

/** Instantiate the filter described by @p spec for a host structure
 *  of @p host_lines lines (the bound of the line indices its feed will
 *  carry; only the CMNM keeps per-line state). */
std::unique_ptr<MissFilter> makeFilter(const FilterSpec &spec,
                                       std::uint32_t host_lines);

/** Canonical display name of a spec (e.g. "CMNM_8_10"). */
std::string filterSpecName(const FilterSpec &spec);

} // namespace mnm

#endif // MNM_CORE_MISS_FILTER_HH
