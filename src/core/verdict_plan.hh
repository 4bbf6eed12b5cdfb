/**
 * @file
 * The devirtualized filter kernel used by the MnmUnit's verdict plan.
 *
 * At construction the MnmUnit flattens every cache's
 * std::vector<std::unique_ptr<MissFilter>> fan-out into one contiguous
 * array of FilterKernel records: a type tag plus a pointer to the
 * concrete filter object. The event-ring drain (core/update_plan.hh)
 * dispatches through a switch on the tag and calls the filters'
 * non-virtual *Hot methods, which inline into the simulators' inner
 * loops; verdicts run through the SoA program lowered from the same
 * records (core/soa_state.hh). The virtual MissFilter interface on the
 * very same objects remains the reference and cold-path surface (the
 * reference feed interpreter, naming, power, storage bits, anomaly
 * counts, fault injection, tests).
 *
 * Both dispatch styles run the same member-function bodies, so the
 * plan is behaviourally identical to the virtual walk -- a property
 * kernel_equivalence_test checks rather than assumes.
 */

#ifndef MNM_CORE_VERDICT_PLAN_HH
#define MNM_CORE_VERDICT_PLAN_HH

#include <cstdint>
#include <variant>

#include "core/cmnm.hh"
#include "core/miss_filter.hh"
#include "core/smnm.hh"
#include "core/tmnm.hh"
#include "util/logging.hh"

namespace mnm
{

/** Concrete technique behind a MissFilter pointer. */
enum class FilterKind : std::uint8_t
{
    Smnm,
    Tmnm,
    Cmnm,
};

/** Kind the spec will instantiate; mirrors makeFilter's mapping. */
inline FilterKind
filterKindOf(const FilterSpec &spec)
{
    if (std::holds_alternative<SmnmSpec>(spec))
        return FilterKind::Smnm;
    if (std::holds_alternative<TmnmSpec>(spec))
        return FilterKind::Tmnm;
    return FilterKind::Cmnm;
}

/** One entry of the flat verdict plan: a type-tagged, non-owning view
 *  of a filter whose concrete type was pinned at plan-compile time. */
struct FilterKernel
{
    FilterKind kind;
    MissFilter *filter;
};

/** Hot-path event feed: @p block was placed into line @p line of the
 *  attached cache. */
inline void
kernelOnPlacement(const FilterKernel &k, BlockAddr block,
                  std::uint32_t line)
{
    switch (k.kind) {
      case FilterKind::Smnm:
        static_cast<Smnm *>(k.filter)->placeHot(block);
        return;
      case FilterKind::Tmnm:
        static_cast<Tmnm *>(k.filter)->placeHot(block);
        return;
      case FilterKind::Cmnm:
        static_cast<Cmnm *>(k.filter)->placeHot(block, line);
        return;
    }
    panic("unreachable filter kind");
}

/** Hot-path event feed: @p block was replaced (evicted) from line
 *  @p line. */
inline void
kernelOnReplacement(const FilterKernel &k, BlockAddr block,
                    std::uint32_t line)
{
    switch (k.kind) {
      case FilterKind::Smnm:
        static_cast<Smnm *>(k.filter)->replaceHot(block);
        return;
      case FilterKind::Tmnm:
        static_cast<Tmnm *>(k.filter)->replaceHot(block);
        return;
      case FilterKind::Cmnm:
        static_cast<Cmnm *>(k.filter)->replaceHot(block, line);
        return;
    }
    panic("unreachable filter kind");
}

} // namespace mnm

#endif // MNM_CORE_VERDICT_PLAN_HH
