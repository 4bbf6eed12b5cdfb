#include "obs/confusion.hh"

#include "util/logging.hh"

namespace mnm
{

// record() indexes levels_ by ProbeRecord::level without a range test.
static_assert(DecisionMatrix::max_levels > CacheHierarchy::max_levels,
              "every level a CacheHierarchy accepts needs a slot");

void
DecisionMatrix::record(const AccessResult &result)
{
    for (std::uint8_t i = 0; i < result.num_probes; ++i) {
        const ProbeRecord &probe = result.probes[i];
        if (probe.level < 2)
            continue; // level-1 outcomes are never predicted
        Cells &cells = levels_[probe.level];
        if (probe.bypassed) {
            // A bypassed cache was never probed, so it cannot have hit:
            // an acted-upon predicted-miss/actual-hit would mean the
            // hierarchy skipped a resident block -- architectural
            // corruption, not a statistic.
            MNM_ASSERT(!probe.hit,
                       "bypassed probe reports a hit (acted-upon "
                       "soundness violation)");
            ++cells.predicted_miss_actual_miss;
        } else if (probe.hit) {
            ++cells.maybe_actual_hit;
        } else {
            ++cells.maybe_actual_miss;
        }
    }
}

void
DecisionMatrix::setForbidden(std::uint32_t level, std::uint64_t count)
{
    MNM_ASSERT(level < max_levels, "decision-matrix level out of range");
    levels_[level].predicted_miss_actual_hit = count;
}

const DecisionMatrix::Cells &
DecisionMatrix::at(std::uint32_t level) const
{
    MNM_ASSERT(level < max_levels, "decision-matrix level out of range");
    return levels_[level];
}

DecisionMatrix::Cells
DecisionMatrix::totals() const
{
    Cells sum;
    for (const Cells &cells : levels_) {
        sum.predicted_miss_actual_miss += cells.predicted_miss_actual_miss;
        sum.maybe_actual_miss += cells.maybe_actual_miss;
        sum.maybe_actual_hit += cells.maybe_actual_hit;
        sum.predicted_miss_actual_hit += cells.predicted_miss_actual_hit;
    }
    return sum;
}

std::uint64_t
DecisionMatrix::forbidden() const
{
    return totals().predicted_miss_actual_hit;
}

double
DecisionMatrix::coverage() const
{
    Cells sum = totals();
    return ratio(static_cast<double>(sum.predicted_miss_actual_miss),
                 static_cast<double>(sum.actualMisses()));
}

double
DecisionMatrix::coverageAt(std::uint32_t level) const
{
    const Cells &cells = at(level);
    return ratio(static_cast<double>(cells.predicted_miss_actual_miss),
                 static_cast<double>(cells.actualMisses()));
}

void
DecisionMatrix::merge(const DecisionMatrix &other)
{
    for (std::size_t i = 0; i < max_levels; ++i) {
        levels_[i].predicted_miss_actual_miss +=
            other.levels_[i].predicted_miss_actual_miss;
        levels_[i].maybe_actual_miss += other.levels_[i].maybe_actual_miss;
        levels_[i].maybe_actual_hit += other.levels_[i].maybe_actual_hit;
        levels_[i].predicted_miss_actual_hit +=
            other.levels_[i].predicted_miss_actual_hit;
    }
}

void
DecisionMatrix::reset()
{
    *this = DecisionMatrix();
}

void
DecisionMatrix::setCells(std::uint32_t level, const Cells &cells)
{
    MNM_ASSERT(level < max_levels, "decision-matrix level out of range");
    levels_[level] = cells;
}

void
DecisionMatrix::registerInto(StatsRegistry &registry,
                             const std::string &prefix) const
{
    for (std::uint32_t level = 0; level < max_levels; ++level) {
        const Cells &cells = levels_[level];
        if (cells.decisions() == 0)
            continue;
        std::string base = prefix + ".l" + std::to_string(level) + ".";
        registry.counter(base + "predicted_miss_actual_miss") +=
            cells.predicted_miss_actual_miss;
        registry.counter(base + "maybe_actual_miss") +=
            cells.maybe_actual_miss;
        registry.counter(base + "maybe_actual_hit") +=
            cells.maybe_actual_hit;
        registry.counter(base + "predicted_miss_actual_hit") +=
            cells.predicted_miss_actual_hit;
    }
}

void
DecisionMatrix::assertSound(const char *context) const
{
    for (std::uint32_t level = 0; level < max_levels; ++level) {
        if (levels_[level].predicted_miss_actual_hit != 0) {
            panic("soundness violation: %llu predicted-miss/actual-hit "
                  "decisions at level %u (%s)",
                  static_cast<unsigned long long>(
                      levels_[level].predicted_miss_actual_hit),
                  level, context);
        }
    }
}

} // namespace mnm
