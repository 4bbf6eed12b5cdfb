/**
 * @file
 * Exact CMNM results pinned from the block-keyed placement record the
 * per-line record replaced. The update kernels, the reference feed
 * interpreter and the reference verdict kernel all read the same
 * line-keyed record, so the equivalence tests cannot see a replacement
 * that names the wrong line; these recorded values can. The inclusive
 * machine makes back-invalidations reach the CMNM levels, so their
 * events must carry the invalidated line too.
 */

#include <array>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "sim/config.hh"
#include "sim/memory_sim.hh"
#include "trace/spec2000.hh"

namespace mnm
{
namespace
{

constexpr char workload_name[] = "181.mcf";
constexpr std::uint64_t run_instructions = 200000;

/** Four counters compared as one value, so a failure prints all four. */
using Quad = std::array<std::uint64_t, 4>;

Quad
quad(const std::uint64_t (&row)[4])
{
    return {row[0], row[1], row[2], row[3]};
}

/** What one run must reproduce. */
struct Pinned
{
    const char *config;
    bool inclusive;
    std::uint64_t filter_anomalies;
    std::uint64_t soundness_violations;
    /** DecisionMatrix cells per level 0..5: predicted-miss/actual-miss,
     *  maybe/actual-miss, maybe/actual-hit, predicted-miss/actual-hit.
     *  Deeper levels must stay empty. */
    std::uint64_t cells[6][4];
    /** Per cache id: hits, misses, bypasses, fills. */
    std::uint64_t caches[7][4];
};

const Pinned pinned[] = {
    {"CMNM_8_12", false, 0, 0,
     {{0, 0, 0, 0},
      {0, 0, 0, 0},
      {28302, 204, 228, 0},
      {25172, 2570, 764, 0},
      {21677, 3690, 2375, 0},
      {6655, 10654, 8058, 0}},
     {{25467, 1124, 0, 1124},
      {30216, 56090, 0, 56090},
      {162, 0, 962, 962},
      {242, 458, 55390, 55848},
      {1696, 5202, 49912, 55114},
      {4623, 7229, 43262, 50491},
      {12131, 18215, 20145, 38360}}},
    {"CMNM_8_12", true, 0, 0,
     {{0, 0, 0, 0},
      {0, 0, 0, 0},
      {28466, 204, 103, 0},
      {25253, 2574, 843, 0},
      {21720, 3688, 2419, 0},
      {6673, 10653, 8082, 0}},
     {{25323, 1268, 0, 1268},
      {30216, 56090, 0, 56090},
      {1, 0, 1267, 1267},
      {242, 458, 55390, 55848},
      {1835, 5203, 50077, 55280},
      {4732, 7225, 43323, 50548},
      {12168, 18214, 20166, 38380}}},
    {"HMNM4", false, 0, 0,
     {{0, 0, 0, 0},
      {0, 0, 0, 0},
      {28315, 191, 228, 0},
      {7699, 20043, 764, 0},
      {21699, 3668, 2375, 0},
      {6765, 10544, 8058, 0}},
     {{25467, 1124, 0, 1124},
      {30216, 56090, 0, 56090},
      {162, 68, 894, 962},
      {242, 318, 55530, 55848},
      {1696, 38303, 16811, 55114},
      {4623, 7179, 43312, 50491},
      {12131, 18061, 20299, 38360}}},
    {"HMNM4", true, 0, 0,
     {{0, 0, 0, 0},
      {0, 0, 0, 0},
      {28529, 141, 103, 0},
      {7728, 20099, 843, 0},
      {21741, 3667, 2419, 0},
      {6783, 10543, 8082, 0}},
     {{25323, 1268, 0, 1268},
      {30216, 56090, 0, 56090},
      {1, 2, 1265, 1267},
      {242, 318, 55530, 55848},
      {1835, 38361, 16919, 55280},
      {4732, 7176, 43372, 50548},
      {12168, 18058, 20322, 38380}}}
};

void
PrintTo(const Pinned &p, std::ostream *os)
{
    *os << p.config << (p.inclusive ? " inclusive" : " non-inclusive");
}

class CmnmPinnedTest : public ::testing::TestWithParam<Pinned>
{
};

TEST_P(CmnmPinnedTest, BothFeedsReproduceRecordedResults)
{
    const Pinned &p = GetParam();
    for (bool reference_feed : {false, true}) {
        SCOPED_TRACE(reference_feed ? "reference-feed" : "update-kernels");
        HierarchyParams machine = paperHierarchy(5);
        if (p.inclusive)
            machine.inclusion = InclusionPolicy::Inclusive;
        MemorySimulator sim(machine, mnmSpecByName(p.config));
        sim.setReferenceFeed(reference_feed);
        auto workload = makeSpecWorkload(workload_name);
        // Two windows: the second starts warm and its ledger covers
        // only itself, while the cache stats below accumulate.
        sim.run(*workload, run_instructions / 2);
        const MemSimResult r = sim.run(*workload, run_instructions / 2);

        EXPECT_EQ(r.filter_anomalies, p.filter_anomalies);
        EXPECT_EQ(r.soundness_violations, p.soundness_violations);
        for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
            const DecisionMatrix::Cells &c = r.decisions.at(l);
            const Quad got = {c.predicted_miss_actual_miss,
                              c.maybe_actual_miss, c.maybe_actual_hit,
                              c.predicted_miss_actual_hit};
            const Quad want = l < std::size(p.cells) ? quad(p.cells[l])
                                                     : Quad{};
            EXPECT_EQ(got, want) << "level " << l;
        }
        ASSERT_EQ(sim.hierarchy().numCaches(), std::size(p.caches));
        for (CacheId id = 0; id < std::size(p.caches); ++id) {
            const CacheStats &s = sim.hierarchy().cache(id).stats();
            const Quad got = {s.hits.value(), s.misses.value(),
                              s.bypasses.value(), s.fills.value()};
            EXPECT_EQ(got, quad(p.caches[id]))
                << sim.hierarchy().cache(id).params().name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, CmnmPinnedTest, ::testing::ValuesIn(pinned),
    [](const auto &info) {
        return std::string(info.param.config) +
               (info.param.inclusive ? "_inclusive" : "_noninclusive");
    });

} // anonymous namespace
} // namespace mnm
