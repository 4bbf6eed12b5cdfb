/**
 * @file
 * The timing core's two-pass fast path -- batched generation and
 * derivation, the access engine's per-request latencies, then the
 * recurrences -- against its single-step reference path
 * (OooCore::setReferenceKernel: one next() and one engine request
 * per access, virtual MNM dispatch). The contract is *bit-identical*
 * results: every CpuRunStats field of every window, the decision
 * ledger, every cache counter, the soundness violations and the MNM's
 * consumed energy, across the preset grid (no MNM, the five
 * techniques under all three placements, Perfect, an oracle-checked
 * HMNM4), the paper's 2/3/5/7-level machines plus an inclusive one
 * (whose L1 peek walks immediately instead of queueing lanes), and
 * back-to-back windows that straddle the fast path's chunks.
 */

#include <cctype>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "cpu/ooo_core.hh"
#include "sim/config.hh"
#include "trace/spec2000.hh"
#include "trace/workload.hh"

namespace mnm
{
namespace
{

/** Window lengths run back to back: a single instruction, the chunk
 *  size and its neighbours, a full InstructionBatch and its
 *  neighbours, and a window of many chunks. */
constexpr std::uint64_t chunk = OooCore::chunk_instructions;
constexpr std::uint64_t windows[] = {1,    chunk - 1, chunk, chunk + 1,
                                     4095, 4096,      4097,  15000};
constexpr char workload_name[] = "181.mcf";

/** One grid cell: a machine and an MNM configuration (or none). */
struct TimingCase
{
    std::string label;
    int levels = 5;
    bool inclusive = false;
    std::optional<MnmSpec> spec;
};

HierarchyParams
machine(const TimingCase &c)
{
    HierarchyParams h = paperHierarchy(c.levels);
    if (c.inclusive)
        h.inclusion = InclusionPolicy::Inclusive;
    return h;
}

std::vector<TimingCase>
timingGrid()
{
    struct Machine
    {
        const char *name;
        int levels;
        bool inclusive;
    };
    const Machine machines[] = {{"L2", 2, false},
                                {"L3", 3, false},
                                {"L5", 5, false},
                                {"L7", 7, false},
                                {"L5inclusive", 5, true}};
    const std::pair<const char *, MnmPlacement> placements[] = {
        {"parallel", MnmPlacement::Parallel},
        {"serial", MnmPlacement::Serial},
        {"distributed", MnmPlacement::Distributed},
    };
    std::vector<TimingCase> cases;
    for (const Machine &m : machines) {
        const std::string prefix = std::string(m.name) + "/";
        cases.push_back({prefix + "no-MNM", m.levels, m.inclusive,
                         std::nullopt});
        cases.push_back({prefix + "Perfect", m.levels, m.inclusive,
                         mnmSpecByName("Perfect")});
        for (const char *name : {"RMNM_512_2", "SMNM_13x2", "TMNM_12x3",
                                 "CMNM_8_10", "HMNM4"}) {
            for (const auto &[pname, placement] : placements) {
                MnmSpec spec = mnmSpecByName(name);
                spec.placement = placement;
                cases.push_back({prefix + name + "/" + pname, m.levels,
                                 m.inclusive, spec});
            }
        }
        MnmSpec checked = mnmSpecByName("HMNM4");
        checked.oracle_check = true;
        cases.push_back({prefix + "HMNM4/oracle-checked", m.levels,
                         m.inclusive, checked});
    }
    return cases;
}

void
expectIdenticalStats(const CpuRunStats &fast, const CpuRunStats &ref)
{
    EXPECT_EQ(fast.instructions, ref.instructions);
    EXPECT_EQ(fast.cycles, ref.cycles);
    EXPECT_EQ(fast.loads, ref.loads);
    EXPECT_EQ(fast.stores, ref.stores);
    EXPECT_EQ(fast.branches, ref.branches);
    EXPECT_EQ(fast.mispredicts, ref.mispredicts);
    EXPECT_EQ(fast.fetch_line_accesses, ref.fetch_line_accesses);
    EXPECT_EQ(fast.data_access_cycles, ref.data_access_cycles);
    EXPECT_EQ(fast.data_accesses, ref.data_accesses);
}

/** One core with its own machine, MNM and workload. */
struct TimedMachine
{
    CacheHierarchy hierarchy;
    std::unique_ptr<MnmUnit> mnm;
    OooCore core;

    TimedMachine(const HierarchyParams &h,
                 const std::optional<MnmSpec> &spec, int levels,
                 bool reference)
        : hierarchy(h),
          mnm(spec ? std::make_unique<MnmUnit>(*spec, hierarchy)
                   : nullptr),
          core(paperCpu(levels), hierarchy, mnm.get())
    {
        core.setReferenceKernel(reference);
    }
};

/** Everything but the per-window stats must match once both cores
 *  have run the same stream: the ledger, every cache counter, and the
 *  MNM's own accounting (the energy double compared exactly -- the
 *  fast path's integer event counts must reproduce the same bits). */
void
expectIdenticalMachines(const TimedMachine &fast, const TimedMachine &ref)
{
    for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
        const DecisionMatrix::Cells &f = fast.core.coverage().at(l);
        const DecisionMatrix::Cells &r = ref.core.coverage().at(l);
        EXPECT_EQ(f.predicted_miss_actual_miss,
                  r.predicted_miss_actual_miss)
            << "level " << l;
        EXPECT_EQ(f.maybe_actual_miss, r.maybe_actual_miss)
            << "level " << l;
        EXPECT_EQ(f.maybe_actual_hit, r.maybe_actual_hit)
            << "level " << l;
        EXPECT_EQ(f.predicted_miss_actual_hit,
                  r.predicted_miss_actual_hit)
            << "level " << l;
    }

    ASSERT_EQ(fast.hierarchy.numCaches(), ref.hierarchy.numCaches());
    for (CacheId id = 0; id < fast.hierarchy.numCaches(); ++id) {
        const CacheStats &f = fast.hierarchy.cache(id).stats();
        const CacheStats &r = ref.hierarchy.cache(id).stats();
        const std::string &name = fast.hierarchy.cache(id).params().name;
        EXPECT_EQ(f.accesses.value(), r.accesses.value()) << name;
        EXPECT_EQ(f.hits.value(), r.hits.value()) << name;
        EXPECT_EQ(f.mru_hits.value(), r.mru_hits.value()) << name;
        EXPECT_EQ(f.misses.value(), r.misses.value()) << name;
        EXPECT_EQ(f.bypasses.value(), r.bypasses.value()) << name;
        EXPECT_EQ(f.fills.value(), r.fills.value()) << name;
        EXPECT_EQ(f.evictions.value(), r.evictions.value()) << name;
        EXPECT_EQ(f.writebacks.value(), r.writebacks.value()) << name;
        EXPECT_EQ(f.writeback_probes.value(), r.writeback_probes.value())
            << name;
        EXPECT_EQ(f.writeback_absorbs.value(),
                  r.writeback_absorbs.value())
            << name;
    }

    ASSERT_EQ(fast.mnm == nullptr, ref.mnm == nullptr);
    if (fast.mnm) {
        EXPECT_EQ(fast.mnm->soundnessViolations(),
                  ref.mnm->soundnessViolations());
        for (std::uint32_t l = 0; l < fast.mnm->violationLevels(); ++l) {
            EXPECT_EQ(fast.mnm->violationsAtLevel(l),
                      ref.mnm->violationsAtLevel(l))
                << "level " << l;
        }
        EXPECT_EQ(fast.mnm->consumedEnergyPj(),
                  ref.mnm->consumedEnergyPj());
        EXPECT_EQ(fast.mnm->lookups(), ref.mnm->lookups());
        EXPECT_EQ(fast.mnm->filterAnomalies(), ref.mnm->filterAnomalies());
    }
}

class TimingEquivalenceTest : public ::testing::TestWithParam<TimingCase>
{
};

TEST_P(TimingEquivalenceTest, TwoPassMatchesReferenceWindowByWindow)
{
    const TimingCase &c = GetParam();
    const HierarchyParams h = machine(c);
    TimedMachine fast(h, c.spec, c.levels, false);
    TimedMachine ref(h, c.spec, c.levels, true);
    ASSERT_FALSE(fast.core.referenceKernel());
    ASSERT_TRUE(ref.core.referenceKernel());
    auto fast_workload = makeSpecWorkload(workload_name);
    auto ref_workload = makeSpecWorkload(workload_name);
    for (std::uint64_t n : windows) {
        SCOPED_TRACE("window of " + std::to_string(n));
        expectIdenticalStats(fast.core.run(*fast_workload, n),
                             ref.core.run(*ref_workload, n));
    }
    expectIdenticalMachines(fast, ref);
}

INSTANTIATE_TEST_SUITE_P(
    MachineGrid, TimingEquivalenceTest, ::testing::ValuesIn(timingGrid()),
    [](const auto &info) {
        std::string n = info.param.label;
        for (char &ch : n) {
            if (!std::isalnum(static_cast<unsigned char>(ch)))
                ch = '_';
        }
        return n;
    });

TEST(TimingEquivalenceTest, MispredictAtChunkEndRefetchesTheSameLine)
{
    // The fast path derives a whole chunk's requests before timing it,
    // so it must forget the fetch line after a mispredicted branch the
    // way the recurrences do -- also when the branch is the last
    // instruction of a chunk and the next chunk resumes on the very
    // same line. The script loops over one 16-byte code line, so the
    // only fetches after the first are redirects.
    std::vector<Instruction> script(4 * chunk + 1000);
    for (std::size_t i = 0; i < script.size(); ++i) {
        Instruction &inst = script[i];
        inst.pc = 0x10000 + 4 * (i % 4);
        if (i % 3 == 0) {
            inst.cls = InstClass::Load;
            inst.mem_addr = 0x40000000 + 64 * ((i * 37) % 5000);
            inst.dep1 = 1;
        }
    }
    for (std::size_t i : {std::size_t{4 * chunk - 1}, std::size_t{700},
                          std::size_t{4 * chunk + 500}}) {
        script[i].cls = InstClass::Branch;
        script[i].mispredicted = true;
    }
    ASSERT_EQ(script[4 * chunk - 1].pc >> 4, script[0].pc >> 4);

    MnmSpec spec = mnmSpecByName("HMNM4");
    const TimingCase c{"scripted", 5, false, spec};
    TimedMachine fast(machine(c), spec, 5, false);
    TimedMachine ref(machine(c), spec, 5, true);
    ScriptedWorkload fast_workload(script);
    ScriptedWorkload ref_workload(script);
    for (std::uint64_t n : {8 * chunk + 37, 4 * chunk}) {
        SCOPED_TRACE("window of " + std::to_string(n));
        const CpuRunStats f = fast.core.run(fast_workload, n);
        const CpuRunStats r = ref.core.run(ref_workload, n);
        expectIdenticalStats(f, r);
        EXPECT_GT(r.mispredicts, 0u);
        // Every mispredict refetches, plus the run's first fetch.
        EXPECT_EQ(r.fetch_line_accesses, r.mispredicts + 1);
    }
    expectIdenticalMachines(fast, ref);
}

TEST(TimingEquivalenceTest, ReferenceKernelAlsoRoutesTheMnmToReferenceDispatch)
{
    CacheHierarchy hierarchy(paperHierarchy(5));
    MnmUnit mnm(mnmSpecByName("HMNM4"), hierarchy);
    OooCore core(paperCpu(5), hierarchy, &mnm);
    EXPECT_FALSE(mnm.referenceDispatch());
    core.setReferenceKernel(true);
    EXPECT_TRUE(mnm.referenceDispatch());
    core.setReferenceKernel(false);
    EXPECT_FALSE(mnm.referenceDispatch());
}

} // anonymous namespace
} // namespace mnm
