/**
 * @file
 * The SoA verdict program's mirror contract (core/soa_state.hh): the
 * program BORROWS the live filter tables, so every filter mutation --
 * workload churn, flushes, injected faults -- must be visible to the
 * SoA kernel immediately and the program must verdict exactly as the
 * virtual-dispatch filter walk would, at any hierarchy depth.
 */

#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cmnm.hh"
#include "core/fault_inject.hh"
#include "core/mnm_unit.hh"
#include "core/presets.hh"
#include "core/soa_state.hh"
#include "sim/config.hh"
#include "sim/memory_sim.hh"
#include "trace/spec2000.hh"

namespace mnm
{
namespace
{

/** A deterministic probe stream: the workload's own fetch and data
 *  addresses, the traffic the filters were trained on. */
std::vector<std::pair<AccessType, Addr>>
probeStream(const char *app, std::uint64_t instructions)
{
    std::vector<std::pair<AccessType, Addr>> probes;
    auto workload = makeSpecWorkload(app);
    Instruction inst;
    for (std::uint64_t i = 0; i < instructions; ++i) {
        workload->next(inst);
        probes.emplace_back(AccessType::InstFetch, inst.pc);
        if (inst.isMem()) {
            probes.emplace_back(inst.cls == InstClass::Load
                                    ? AccessType::Load
                                    : AccessType::Store,
                                inst.mem_addr);
        }
    }
    return probes;
}

/** The SoA verdict for every probe must equal the reference (virtual
 *  MissFilter dispatch) verdict against the SAME state. */
void
expectSoaMatchesReference(
    MnmUnit &unit,
    const std::vector<std::pair<AccessType, Addr>> &probes,
    const char *when)
{
    for (const auto &[type, addr] : probes) {
        unit.setReferenceDispatch(true);
        const std::uint32_t reference =
            unit.computeBypass(type, addr).raw();
        unit.setReferenceDispatch(false);
        ASSERT_EQ(unit.computeBypass(type, addr).raw(), reference)
            << when << ": addr 0x" << std::hex << addr;
    }
}

/** Churn, flush, and corrupt the filters of a live simulator; after
 *  each mutation the SoA program must mirror the filters exactly. */
void
runMirrorCoherence(MemorySimulator &sim,
                   const std::vector<std::pair<AccessType, Addr>> &probes)
{
    auto workload = makeSpecWorkload("164.gzip");
    sim.run(*workload, 30000);
    MnmUnit &unit = *sim.mnm();
    expectSoaMatchesReference(unit, probes, "warm");

    // More churn between probe sweeps: placements and replacements
    // keep rewriting the borrowed tables in place.
    sim.run(*workload, 10000);
    expectSoaMatchesReference(unit, probes, "churned");

    // Flush events rewrite every filter's state wholesale (and reset
    // the shared RMNM); the mirror must follow without recompilation.
    for (CacheId id = 0; id < sim.hierarchy().numCaches(); ++id)
        unit.onFlush(id);
    expectSoaMatchesReference(unit, probes, "flushed");

    // Injected faults flip bits in the filters' private storage; the
    // borrowed-table contract makes them visible to the SoA kernel by
    // construction, with no notification channel to forget.
    sim.run(*workload, 10000);
    auto surfaces = FaultInjector::faultSurfaces(unit);
    ASSERT_FALSE(surfaces.empty());
    for (std::size_t s = 0; s < surfaces.size(); ++s) {
        for (std::uint64_t bit :
             {std::uint64_t{0}, surfaces[s].bits / 2,
              surfaces[s].bits - 1}) {
            FaultInjector::flip(unit, s, bit);
        }
    }
    expectSoaMatchesReference(unit, probes, "faulted");
}

TEST(SoaStateTest, MirrorCoherenceOnPaperMachine)
{
    // The headline hybrid: every filter kind (and the RMNM) at once,
    // plain and with every verdict oracle-guarded (the guarded plan
    // finishes each candidate against live cache contents).
    const auto probes = probeStream("164.gzip", 2000);
    for (bool oracle_check : {false, true}) {
        SCOPED_TRACE(oracle_check ? "oracle-checked" : "plain");
        MnmSpec spec = mnmSpecByName("HMNM4");
        spec.oracle_check = oracle_check;
        MemorySimulator sim(paperHierarchy(5), spec);
        runMirrorCoherence(sim, probes);
    }
}

/** An all-unified tower far past the paper's depths: tiny upper levels
 *  so blocks spill downward (mirrors deep_hierarchy_test's tower). */
HierarchyParams
towerHierarchy(std::uint32_t levels)
{
    HierarchyParams params;
    params.memory_latency = 400;
    for (std::uint32_t l = 1; l <= levels; ++l) {
        LevelParams lvl;
        lvl.data.name = "u" + std::to_string(l);
        lvl.data.capacity_bytes = l == levels ? 16 * 1024 : 2 * 1024;
        lvl.data.associativity = l == levels ? 4u : 1u;
        lvl.data.block_bytes = 32;
        lvl.data.hit_latency = static_cast<Cycles>(2 * l);
        params.levels.push_back(lvl);
    }
    return params;
}

TEST(SoaStateTest, MirrorCoherenceOnSeventeenLevelTower)
{
    // 16 filtered levels exercise the program's step loop well past
    // the common 1-4 steps (and the full width of the verdict mask).
    MnmSpec spec = makeUniformSpec(TmnmSpec{10, 2, 3});
    MemorySimulator sim(towerHierarchy(17), spec);
    runMirrorCoherence(sim, probeStream("181.mcf", 1500));
}

/** Two simulators under identical traffic, one draining the event
 *  ring through the devirtualized update kernels, one through the
 *  virtual per-filter interpreter: after every churn/flush stage the
 *  borrowed tables must hold bit-identical state, proven by verdict
 *  equality over the probe stream. */
void
runFeedCoherence(const HierarchyParams &hier, const MnmSpec &spec,
                 const char *app, std::uint64_t probe_instructions)
{
    auto probes = probeStream(app, probe_instructions);
    MemorySimulator batched(hier, spec);
    MemorySimulator reference(hier, spec);
    reference.setReferenceFeed(true);
    ASSERT_FALSE(batched.referenceFeed());
    ASSERT_TRUE(reference.referenceFeed());

    auto expect_same_state = [&](const char *when) {
        MnmUnit &b = *batched.mnm();
        MnmUnit &r = *reference.mnm();
        for (const auto &[type, addr] : probes) {
            ASSERT_EQ(b.computeBypass(type, addr).raw(),
                      r.computeBypass(type, addr).raw())
                << when << ": addr 0x" << std::hex << addr;
        }
    };

    auto wb = makeSpecWorkload(app);
    auto wr = makeSpecWorkload(app);
    batched.run(*wb, 30000);
    reference.run(*wr, 30000);
    expect_same_state("warm");

    batched.run(*wb, 10000);
    reference.run(*wr, 10000);
    expect_same_state("churned");

    // Flush is a per-cache onFlush call on both sides (the ring is
    // always empty between accesses); the rebuilt state must agree.
    batched.hierarchy().flushAll();
    reference.hierarchy().flushAll();
    expect_same_state("flushed");

    batched.run(*wb, 10000);
    reference.run(*wr, 10000);
    expect_same_state("re-warmed");
}

TEST(SoaStateTest, DrainedEventRingKeepsMirrorsCoherent)
{
    // The headline hybrid: placements and replacements for every
    // filter kind flow through the ring's update kernels.
    runFeedCoherence(paperHierarchy(5), mnmSpecByName("HMNM4"),
                     "164.gzip", 2000);
}

TEST(SoaStateTest, DrainedEventRingCoherentOnSeventeenLevelTower)
{
    // 16 filtered levels: one access can fill every level and
    // back-invalidate below it, overflowing the 64-entry ring so the
    // mid-access drain-if-full path runs -- order must still match the
    // virtual feed exactly.
    runFeedCoherence(towerHierarchy(17),
                     makeUniformSpec(TmnmSpec{10, 2, 3}), "181.mcf",
                     1500);
}

TEST(SoaStateTest, CmnmBorrowedTablesAreStableAndLive)
{
    // The SoA program captures Cmnm's register-file and counter-table
    // pointers once at plan-compile time; the mirror is only sound if
    // those pointers survive every mutation, including full flushes.
    Cmnm cmnm(CmnmSpec{4, 6, 3, CmnmMaskPolicy::Monotone}, 1000);
    const Cmnm::VtagRegister *regs = cmnm.registerTable();
    const std::uint8_t *counters = cmnm.counterTable();

    SoaOp op;
    op.kind = FilterKind::Cmnm;
    op.cm_regs = regs;
    op.cm_counters = counters;
    op.cm_num_regs = cmnm.spec().num_registers;
    op.cm_index_bits = cmnm.spec().table_index_bits;

    auto expect_mirrored = [&](const char *when) {
        EXPECT_EQ(cmnm.registerTable(), regs) << when;
        EXPECT_EQ(cmnm.counterTable(), counters) << when;
        for (BlockAddr block = 0; block < 4096; block += 7)
            ASSERT_EQ(soaOpMiss(op, block), cmnm.missHot(block)) << when;
    };

    // Block b sits in line b / 3 (then b / 5 after the flush).
    expect_mirrored("cold");
    for (BlockAddr block = 0; block < 3000; block += 3)
        cmnm.placeHot(block, static_cast<std::uint32_t>(block / 3));
    expect_mirrored("placed");
    for (BlockAddr block = 0; block < 3000; block += 9)
        cmnm.replaceHot(block, static_cast<std::uint32_t>(block / 3));
    expect_mirrored("replaced");
    cmnm.onFlush();
    expect_mirrored("flushed");
    for (BlockAddr block = 1; block < 1000; block += 5)
        cmnm.placeHot(block, static_cast<std::uint32_t>(block / 5));
    expect_mirrored("re-placed");
    EXPECT_EQ(cmnm.anomalies(), 0u);
}

} // anonymous namespace
} // namespace mnm
