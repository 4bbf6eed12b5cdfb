/**
 * @file
 * The fast path -- batched request stream, SoA verdict program,
 * devirtualized update kernels -- against the single-step virtual
 * reference path (sim/memory_sim.hh setReferenceKernel). The contract
 * is *bit-identical* results -- every counter, the coverage and
 * confusion breakdowns, and the energy doubles -- across the preset
 * grid: the five techniques plus the perfect MNM and the bare
 * hierarchy, under all three placements, and with faults injected
 * mid-run through every kernel. The update side gets the same
 * treatment: the batched event ring drained through devirtualized
 * update kernels against the per-event virtual listener feed
 * (setReferenceFeed), faulted runs included.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/fault_inject.hh"
#include "core/presets.hh"
#include "sim/config.hh"
#include "sim/memory_sim.hh"
#include "trace/spec2000.hh"

namespace mnm
{
namespace
{

constexpr std::uint64_t run_instructions = 50000;
constexpr char workload_name[] = "164.gzip";

/** One grid cell: an MNM configuration (or none) under a label. */
struct KernelCase
{
    std::string label;
    std::optional<MnmSpec> spec;
};

std::vector<KernelCase>
presetGrid()
{
    std::vector<KernelCase> cases;
    cases.push_back({"no-MNM", std::nullopt});
    cases.push_back({"Perfect", mnmSpecByName("Perfect")});
    const char *techniques[] = {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                                "CMNM_8_10", "HMNM4"};
    const std::pair<const char *, MnmPlacement> placements[] = {
        {"parallel", MnmPlacement::Parallel},
        {"serial", MnmPlacement::Serial},
        {"distributed", MnmPlacement::Distributed},
    };
    for (const char *name : techniques) {
        for (const auto &[pname, placement] : placements) {
            MnmSpec spec = mnmSpecByName(name);
            spec.placement = placement;
            cases.push_back(
                {std::string(name) + "/" + pname, spec});
        }
    }
    return cases;
}

/** Every counter, breakdown, and energy double must match exactly.
 *  EXPECT_EQ on the doubles is deliberate: the batched kernel's
 *  event-count energy fold is only sound if it reproduces the same
 *  bits, not merely nearby values. */
void
expectIdenticalResults(const MemSimResult &batched,
                       const MemSimResult &reference)
{
    EXPECT_EQ(batched.instructions, reference.instructions);
    EXPECT_EQ(batched.requests, reference.requests);
    EXPECT_EQ(batched.data_requests, reference.data_requests);
    EXPECT_EQ(batched.fetch_requests, reference.fetch_requests);
    EXPECT_EQ(batched.total_access_cycles,
              reference.total_access_cycles);
    EXPECT_EQ(batched.miss_cycles, reference.miss_cycles);
    EXPECT_EQ(batched.memory_accesses, reference.memory_accesses);
    EXPECT_EQ(batched.soundness_violations,
              reference.soundness_violations);
    EXPECT_EQ(batched.filter_anomalies, reference.filter_anomalies);
    EXPECT_EQ(batched.mnm_storage_bits, reference.mnm_storage_bits);

    EXPECT_EQ(batched.energy.probe_hit_pj,
              reference.energy.probe_hit_pj);
    EXPECT_EQ(batched.energy.probe_miss_pj,
              reference.energy.probe_miss_pj);
    EXPECT_EQ(batched.energy.fill_pj, reference.energy.fill_pj);
    EXPECT_EQ(batched.energy.writeback_pj,
              reference.energy.writeback_pj);
    EXPECT_EQ(batched.energy.mnm_pj, reference.energy.mnm_pj);

    for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
        const DecisionMatrix::Cells &b = batched.decisions.at(l);
        const DecisionMatrix::Cells &r = reference.decisions.at(l);
        EXPECT_EQ(b.predicted_miss_actual_miss,
                  r.predicted_miss_actual_miss)
            << "level " << l;
        EXPECT_EQ(b.maybe_actual_miss, r.maybe_actual_miss)
            << "level " << l;
        EXPECT_EQ(b.maybe_actual_hit, r.maybe_actual_hit)
            << "level " << l;
        EXPECT_EQ(b.predicted_miss_actual_hit,
                  r.predicted_miss_actual_hit)
            << "level " << l;
    }

    ASSERT_EQ(batched.caches.size(), reference.caches.size());
    for (std::size_t i = 0; i < batched.caches.size(); ++i) {
        const CacheSnapshot &b = batched.caches[i];
        const CacheSnapshot &r = reference.caches[i];
        EXPECT_EQ(b.name, r.name);
        EXPECT_EQ(b.level, r.level);
        EXPECT_EQ(b.accesses, r.accesses) << b.name;
        EXPECT_EQ(b.hits, r.hits) << b.name;
        EXPECT_EQ(b.mru_hits, r.mru_hits) << b.name;
        EXPECT_EQ(b.misses, r.misses) << b.name;
        EXPECT_EQ(b.bypasses, r.bypasses) << b.name;
        EXPECT_EQ(b.hit_rate, r.hit_rate) << b.name;
    }
}

class KernelEquivalenceTest
    : public ::testing::TestWithParam<KernelCase>
{
};

TEST_P(KernelEquivalenceTest, BatchedMatchesReferenceOnPresetMachine)
{
    const KernelCase &c = GetParam();
    auto run_case = [&](bool reference) {
        MemorySimulator sim(paperHierarchy(5), c.spec);
        sim.setReferenceKernel(reference);
        auto workload = makeSpecWorkload(workload_name);
        // Two runs: the second starts warm, covering the carried
        // state (filters, coverage, cumulative violation counters).
        sim.run(*workload, run_instructions / 2);
        return sim.run(*workload, run_instructions / 2);
    };
    expectIdenticalResults(run_case(false), run_case(true));
}

TEST_P(KernelEquivalenceTest, BatchedFeedMatchesVirtualFeedOnPresetMachine)
{
    // The update-side axis: the batched event ring drained through the
    // devirtualized update kernels (default) against the per-event
    // virtual listener feed (MNM_REFERENCE_FEED=1). Both sides run the
    // batched verdict kernel, so any divergence is the feed's fault.
    const KernelCase &c = GetParam();
    auto run_case = [&](bool reference_feed) {
        MemorySimulator sim(paperHierarchy(5), c.spec);
        sim.setReferenceFeed(reference_feed);
        auto workload = makeSpecWorkload(workload_name);
        sim.run(*workload, run_instructions / 2);
        return sim.run(*workload, run_instructions / 2);
    };
    expectIdenticalResults(run_case(false), run_case(true));
}

INSTANTIATE_TEST_SUITE_P(
    PresetGrid, KernelEquivalenceTest,
    ::testing::ValuesIn(presetGrid()), [](const auto &info) {
        std::string n = info.param.label;
        for (char &c : n) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return n;
    });

TEST(KernelEquivalenceTest, FaultedFiltersMatchReferenceExactly)
{
    // Same contract with corrupted filter state: warm each kernel,
    // apply the identical deterministic flips (first/middle/last bit
    // of every surface), and the oracle-checked continuation must
    // still agree bit for bit -- violations included.
    for (const char *name : {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                             "CMNM_8_10", "HMNM4"}) {
        SCOPED_TRACE(name);
        MnmSpec spec = mnmSpecByName(name);
        spec.oracle_check = true;
        auto run_case = [&](bool reference) {
            MemorySimulator sim(paperHierarchy(5), spec);
            sim.setReferenceKernel(reference);
            auto workload = makeSpecWorkload(workload_name);
            sim.run(*workload, run_instructions / 2);
            auto surfaces = FaultInjector::faultSurfaces(*sim.mnm());
            EXPECT_FALSE(surfaces.empty());
            for (std::size_t s = 0; s < surfaces.size(); ++s) {
                for (std::uint64_t bit :
                     {std::uint64_t{0}, surfaces[s].bits / 2,
                      surfaces[s].bits - 1}) {
                    FaultInjector::flip(*sim.mnm(), s, bit);
                }
            }
            return sim.run(*workload, run_instructions / 2);
        };
        expectIdenticalResults(run_case(false), run_case(true));
    }
}

TEST(KernelEquivalenceTest, FaultedFiltersMatchVirtualFeedExactly)
{
    // The feed axis under corrupted filter state: deterministic bit
    // flips land between two windows, and the ring-drained update
    // kernels must rebuild exactly the state the virtual per-event
    // feed rebuilds -- oracle-checked violations included.
    for (const char *name : {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                             "CMNM_8_10", "HMNM4"}) {
        SCOPED_TRACE(name);
        MnmSpec spec = mnmSpecByName(name);
        spec.oracle_check = true;
        auto run_case = [&](bool reference_feed) {
            MemorySimulator sim(paperHierarchy(5), spec);
            sim.setReferenceFeed(reference_feed);
            auto workload = makeSpecWorkload(workload_name);
            sim.run(*workload, run_instructions / 2);
            auto surfaces = FaultInjector::faultSurfaces(*sim.mnm());
            EXPECT_FALSE(surfaces.empty());
            for (std::size_t s = 0; s < surfaces.size(); ++s) {
                for (std::uint64_t bit :
                     {std::uint64_t{0}, surfaces[s].bits / 2,
                      surfaces[s].bits - 1}) {
                    FaultInjector::flip(*sim.mnm(), s, bit);
                }
            }
            return sim.run(*workload, run_instructions / 2);
        };
        expectIdenticalResults(run_case(false), run_case(true));
    }
}

TEST(KernelEquivalenceTest, FastPathMatchesReferenceUnderBothFeeds)
{
    // The fast path under both update feeds against the single-step
    // reference engine, across two run() windows so the carried fetch
    // line and warm state are covered too. The cells cover both
    // consumers of the request batches: the L1-peek lane queue
    // (guard-free presets and Perfect), and the per-request loop (the
    // bare hierarchy and an oracle-checked plan).
    std::vector<KernelCase> cases = {
        {"no-MNM", std::nullopt}, {"Perfect", mnmSpecByName("Perfect")}};
    for (const char *name : {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                             "CMNM_8_10", "HMNM4"}) {
        cases.push_back({name, mnmSpecByName(name)});
    }
    MnmSpec checked = mnmSpecByName("HMNM4");
    checked.oracle_check = true;
    cases.push_back({"HMNM4/oracle-checked", checked});

    for (const KernelCase &c : cases) {
        SCOPED_TRACE(c.label);
        auto run_case = [&](bool reference_feed, bool reference_kernel) {
            MemorySimulator sim(paperHierarchy(5), c.spec);
            sim.setReferenceFeed(reference_feed);
            sim.setReferenceKernel(reference_kernel);
            auto workload = makeSpecWorkload(workload_name);
            sim.run(*workload, run_instructions / 2);
            return sim.run(*workload, run_instructions / 2);
        };
        const MemSimResult reference = run_case(false, true);
        for (bool reference_feed : {false, true}) {
            SCOPED_TRACE(reference_feed ? "reference-feed"
                                        : "batched-feed");
            expectIdenticalResults(run_case(reference_feed, false),
                                   reference);
        }
    }
}

} // anonymous namespace
} // namespace mnm
