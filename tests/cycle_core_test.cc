/**
 * @file
 * Tests for the cycle-driven core, including cross-validation against
 * the fast dataflow model (ooo_core): both must respect the same
 * throughput bounds and rank machine configurations identically.
 */

#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/presets.hh"
#include "cpu/cycle_core.hh"
#include "sim/config.hh"
#include "trace/spec2000.hh"
#include "trace/workload.hh"

namespace mnm
{
namespace
{

HierarchyParams
tinyParams(Cycles memory_latency = 100)
{
    HierarchyParams params;
    LevelParams l1;
    l1.data.name = "l1";
    l1.data.capacity_bytes = 1024;
    l1.data.associativity = 1;
    l1.data.block_bytes = 32;
    l1.data.hit_latency = 2;
    LevelParams l2;
    l2.data.name = "l2";
    l2.data.capacity_bytes = 8192;
    l2.data.associativity = 2;
    l2.data.block_bytes = 32;
    l2.data.hit_latency = 8;
    params.levels = {l1, l2};
    params.memory_latency = memory_latency;
    return params;
}

std::vector<Instruction>
independentAlus()
{
    Instruction alu;
    alu.cls = InstClass::IntAlu;
    alu.pc = 0x1000;
    return {alu};
}

TEST(CycleCoreTest, IpcBoundedByWidth)
{
    CacheHierarchy h(tinyParams());
    CycleOooCore core(CpuParams::eightWay(), h);
    ScriptedWorkload w(independentAlus());
    CpuRunStats stats = core.run(w, 50000);
    EXPECT_LE(stats.ipc(), 8.0 + 1e-9);
    EXPECT_GT(stats.ipc(), 5.0);
}

TEST(CycleCoreTest, SerialChainRunsNearOneIpc)
{
    CacheHierarchy h(tinyParams());
    CycleOooCore core(CpuParams::eightWay(), h);
    Instruction chained;
    chained.cls = InstClass::IntAlu;
    chained.pc = 0x1000;
    chained.dep1 = 1;
    ScriptedWorkload w({chained});
    CpuRunStats stats = core.run(w, 20000);
    EXPECT_LE(stats.ipc(), 1.0 + 1e-9);
    EXPECT_GT(stats.ipc(), 0.8);
}

TEST(CycleCoreTest, MispredictsCostCycles)
{
    CacheHierarchy ha(tinyParams());
    CacheHierarchy hb(tinyParams());
    CycleOooCore core_a(CpuParams::eightWay(), ha);
    CycleOooCore core_b(CpuParams::eightWay(), hb);
    Instruction good;
    good.cls = InstClass::Branch;
    good.pc = 0x1000;
    Instruction bad = good;
    bad.mispredicted = true;
    ScriptedWorkload wg({good});
    ScriptedWorkload wb({bad});
    CpuRunStats sg = core_a.run(wg, 5000);
    CpuRunStats sb = core_b.run(wb, 5000);
    EXPECT_GT(sb.cycles, sg.cycles * 2);
}

TEST(CycleCoreTest, MemoryLatencySensitivity)
{
    std::vector<Instruction> script;
    for (int i = 0; i < 2048; ++i) {
        Instruction l;
        l.cls = InstClass::Load;
        l.pc = 0x1000;
        l.mem_addr = 0x40000000ull + std::uint64_t(i) * 4096;
        l.dep1 = 1;
        script.push_back(l);
    }
    CacheHierarchy fast(tinyParams(50));
    CacheHierarchy slow(tinyParams(400));
    CycleOooCore cf(CpuParams::eightWay(), fast);
    CycleOooCore cs(CpuParams::eightWay(), slow);
    ScriptedWorkload wf(script);
    ScriptedWorkload ws(script);
    EXPECT_GT(cs.run(ws, 2048).cycles, cf.run(wf, 2048).cycles * 3);
}

TEST(CycleCoreTest, MshrsBoundMlp)
{
    std::vector<Instruction> script;
    for (int i = 0; i < 1024; ++i) {
        Instruction l;
        l.cls = InstClass::Load;
        l.pc = 0x1000;
        l.mem_addr = 0x40000000ull + std::uint64_t(i) * 4096;
        script.push_back(l);
    }
    CpuParams few = CpuParams::eightWay();
    few.mshrs = 1;
    CacheHierarchy h1(tinyParams());
    CacheHierarchy h2(tinyParams());
    CycleOooCore core_few(few, h1);
    CycleOooCore core_many(CpuParams::eightWay(), h2);
    ScriptedWorkload w1(script);
    ScriptedWorkload w2(script);
    EXPECT_GT(core_few.run(w1, 1024).cycles,
              core_many.run(w2, 1024).cycles * 3);
}

TEST(CycleCoreTest, WindowBoundsOverlap)
{
    std::vector<Instruction> script;
    for (int i = 0; i < 1024; ++i) {
        Instruction l;
        l.cls = InstClass::Load;
        l.pc = 0x1000;
        l.mem_addr = 0x40000000ull + std::uint64_t(i) * 4096;
        script.push_back(l);
    }
    CpuParams small = CpuParams::eightWay();
    small.window_size = 4;
    CacheHierarchy h1(tinyParams());
    CacheHierarchy h2(tinyParams());
    CycleOooCore cs(small, h1);
    CycleOooCore cb(CpuParams::eightWay(), h2);
    ScriptedWorkload w1(script);
    ScriptedWorkload w2(script);
    EXPECT_GT(cs.run(w1, 1024).cycles, cb.run(w2, 1024).cycles);
}

TEST(CycleCoreTest, MnmReducesCycles)
{
    auto run = [&](bool with_mnm) {
        CacheHierarchy h(paperHierarchy(5));
        std::unique_ptr<MnmUnit> mnm;
        if (with_mnm)
            mnm = std::make_unique<MnmUnit>(makePerfectSpec(), h);
        CycleOooCore core(paperCpu(5), h, mnm.get());
        auto w = makeSpecWorkload("181.mcf");
        return core.run(*w, 30000).cycles;
    };
    EXPECT_LT(run(true), run(false));
}

/** Cross-validation against the dataflow model. */
TEST(CycleCoreTest, AgreesWithDataflowModelWithinBand)
{
    for (const char *app : {"164.gzip", "181.mcf", "171.swim"}) {
        CacheHierarchy h1(paperHierarchy(5));
        CacheHierarchy h2(paperHierarchy(5));
        OooCore fast(paperCpu(5), h1);
        CycleOooCore slow(paperCpu(5), h2);
        auto w1 = makeSpecWorkload(app);
        auto w2 = makeSpecWorkload(app);
        double ipc_fast = fast.run(*w1, 30000).ipc();
        double ipc_slow = slow.run(*w2, 30000).ipc();
        EXPECT_GT(ipc_fast, ipc_slow * 0.5) << app;
        EXPECT_LT(ipc_fast, ipc_slow * 2.0) << app;
    }
}

TEST(CycleCoreTest, ModelsRankConfigurationsIdentically)
{
    // Both models must order {baseline, HMNM4, Perfect} the same way
    // (non-increasing cycles), for a miss-heavy app.
    auto run_both = [&](const std::string &config) {
        std::pair<Cycles, Cycles> out;
        {
            CacheHierarchy h(paperHierarchy(5));
            std::unique_ptr<MnmUnit> mnm;
            if (!config.empty())
                mnm = std::make_unique<MnmUnit>(mnmSpecByName(config), h);
            OooCore core(paperCpu(5), h, mnm.get());
            auto w = makeSpecWorkload("181.mcf");
            out.first = core.run(*w, 30000).cycles;
        }
        {
            CacheHierarchy h(paperHierarchy(5));
            std::unique_ptr<MnmUnit> mnm;
            if (!config.empty())
                mnm = std::make_unique<MnmUnit>(mnmSpecByName(config), h);
            CycleOooCore core(paperCpu(5), h, mnm.get());
            auto w = makeSpecWorkload("181.mcf");
            out.second = core.run(*w, 30000).cycles;
        }
        return out;
    };
    auto base = run_both("");
    auto hmnm = run_both("HMNM4");
    auto perfect = run_both("Perfect");
    EXPECT_LE(hmnm.first, base.first);
    EXPECT_LE(perfect.first, hmnm.first);
    EXPECT_LE(hmnm.second, base.second);
    EXPECT_LE(perfect.second, hmnm.second);
}

TEST(CycleCoreTest, SerialMnmAddsDelayOnMissyLoads)
{
    std::vector<Instruction> script;
    for (int i = 0; i < 512; ++i) {
        Instruction l;
        l.cls = InstClass::Load;
        l.pc = 0x1000;
        l.mem_addr = 0x40000000ull + std::uint64_t(i) * 4096;
        script.push_back(l);
    }
    auto run_with = [&](MnmPlacement placement) {
        CacheHierarchy h(tinyParams());
        MnmSpec spec = makeUniformSpec(TmnmSpec{4, 1, 3});
        spec.placement = placement;
        MnmUnit mnm(spec, h);
        CycleOooCore core(CpuParams::eightWay(), h, &mnm);
        ScriptedWorkload w(script);
        return core.run(w, 512).data_access_cycles;
    };
    EXPECT_GT(run_with(MnmPlacement::Serial),
              run_with(MnmPlacement::Parallel));
}

TEST(CycleCoreTest, DeterministicAcrossRuns)
{
    auto run_once = [] {
        CacheHierarchy h(paperHierarchy(5));
        CycleOooCore core(paperCpu(5), h);
        auto w = makeSpecWorkload("186.crafty");
        return core.run(*w, 20000).cycles;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(CycleCoreTest, StatsConsistent)
{
    CacheHierarchy h(paperHierarchy(5));
    CycleOooCore core(paperCpu(5), h);
    auto w = makeSpecWorkload("164.gzip");
    CpuRunStats stats = core.run(*w, 20000);
    EXPECT_EQ(stats.instructions, 20000u);
    EXPECT_GT(stats.cycles, 20000u / 8); // bounded by fetch width
    EXPECT_LE(stats.mispredicts, stats.branches);
    EXPECT_EQ(stats.data_accesses,
              stats.loads + stats.stores + stats.fetch_line_accesses);
}

/** A looping script with every kind of work the core times: loads
 *  over a 1.25 MiB footprint and over a 2 KiB hot set, stores into
 *  the hot set, dependences of both distances,
 *  FP latency, and taken and mispredicted branches over a code
 *  footprint of several fetch lines. Integer arithmetic only. */
std::vector<Instruction>
pinnedScript()
{
    std::vector<Instruction> script(3000);
    for (std::size_t i = 0; i < script.size(); ++i) {
        Instruction &inst = script[i];
        inst.pc = 0x10000 + 4 * (i % 600);
        inst.dep1 = static_cast<std::uint16_t>(i % 5);
        inst.dep2 = static_cast<std::uint16_t>(i % 7 == 0 ? 11 : 0);
        switch (i % 8) {
          case 0:
          case 5:
            inst.cls = InstClass::Load;
            inst.mem_addr = 0x40000000ull + 64 * ((i * 97) % 20000);
            break;
          case 3:
            inst.cls = InstClass::Load;
            inst.mem_addr = 0x48000000ull + 8 * ((i * 5) % 256);
            break;
          case 6:
            inst.cls = InstClass::Store;
            inst.mem_addr = 0x48000000ull + 8 * (i % 64);
            break;
          case 7:
            inst.cls = InstClass::Branch;
            inst.mispredicted = i % 56 == 7;
            break;
          case 4:
            inst.cls = InstClass::FpAlu;
            inst.exec_latency = 4;
            break;
          default:
            inst.cls = InstClass::IntAlu;
            break;
        }
    }
    return script;
}

/** Everything a run leaves behind, on one line: every CpuRunStats
 *  field; "L<n> a/b/c/d", the decision cells of each level that saw a
 *  verdict (predicted-miss/maybe on actual misses, then maybe/
 *  predicted-miss on actual hits); and "<cache> hits/misses/bypasses"
 *  for every cache. */
std::string
runSummary(const CpuRunStats &s, const CycleOooCore &core,
           const CacheHierarchy &h)
{
    std::ostringstream out;
    out << "instr " << s.instructions << " cycles " << s.cycles << " ld "
        << s.loads << " st " << s.stores << " br " << s.branches << " mp "
        << s.mispredicts << " fetch " << s.fetch_line_accesses << " dac "
        << s.data_access_cycles << " da " << s.data_accesses;
    for (std::uint32_t l = 0; l < DecisionMatrix::max_levels; ++l) {
        const DecisionMatrix::Cells &c = core.coverage().at(l);
        if (c.decisions() == 0)
            continue;
        out << " | L" << l << ' ' << c.predicted_miss_actual_miss << '/'
            << c.maybe_actual_miss << '/' << c.maybe_actual_hit << '/'
            << c.predicted_miss_actual_hit;
    }
    for (CacheId id = 0; id < h.numCaches(); ++id) {
        const CacheStats &st = h.cache(id).stats();
        out << " | " << h.cache(id).params().name << ' ' << st.hits.value()
            << '/' << st.misses.value() << '/' << st.bypasses.value();
    }
    return out.str();
}

TEST(CycleCoreTest, PinnedRunStats)
{
    // Exact results of the cycle-driven core on the paper's 5-level
    // machine, recorded before its memory accesses moved onto the
    // shared access engine. Only integer arithmetic feeds them (the
    // workloads draw no libm values), so they hold on every compiler
    // and ISA.
    struct Pinned
    {
        const char *config;
        const char *workload;
        const char *expected;
    };
    const Pinned pinned[] = {
        {"none", "scripted",
         "instr 20000 cycles 53352 ld 7500 st 2500 br 2500 mp 360"
         " fetch 2500 dac 634748 da 12500"
         " | il1 2425/75/0 | dl1 4968/5032/0 | il2 0/75/0"
         " | dl2 0/5032/0 | ul3 83/5024/0 | ul4 4239/785/0"
         " | ul5 0/785/0"},
        {"none", "uniform",
         "instr 20000 cycles 351345 ld 6076 st 2055 br 0 mp 0"
         " fetch 2501 dac 1536320 da 10632"
         " | il1 0/2501/0 | dl1 129/8002/0 | il2 0/2501/0"
         " | dl2 334/7668/0 | ul3 3654/6515/0"
         " | ul4 3883/2632/0 | ul5 0/2632/0"},
        {"HMNM4/parallel", "scripted",
         "instr 20000 cycles 36974 ld 7500 st 2500 br 2500 mp 360"
         " fetch 2500 dac 433610 da 12500"
         " | L2 5107/0/0/0 | L3 4369/655/83/0"
         " | L4 785/0/4239/0 | L5 785/0/0/0 | il1 2425/75/0"
         " | dl1 4968/5032/0 | il2 0/0/75 | dl2 0/0/5032"
         " | ul3 83/655/4369 | ul4 4239/0/785 | ul5 0/0/785"},
        {"HMNM4/parallel", "uniform",
         "instr 20000 cycles 261847 ld 6076 st 2055 br 0 mp 0"
         " fetch 2501 dac 1142966 da 10632"
         " | L2 8905/1264/334/0 | L3 2690/3826/3653/0"
         " | L4 2632/0/3884/0 | L5 2632/0/0/0 | il1 0/2501/0"
         " | dl1 129/8002/0 | il2 0/0/2501 | dl2 334/1264/6404"
         " | ul3 3653/3826/2690 | ul4 3884/0/2632"
         " | ul5 0/0/2632"},
        {"HMNM4/serial", "scripted",
         "instr 20000 cycles 37728 ld 7500 st 2500 br 2500 mp 360"
         " fetch 2500 dac 443824 da 12500"
         " | L2 5107/0/0/0 | L3 4369/655/83/0"
         " | L4 785/0/4239/0 | L5 785/0/0/0 | il1 2425/75/0"
         " | dl1 4968/5032/0 | il2 0/0/75 | dl2 0/0/5032"
         " | ul3 83/655/4369 | ul4 4239/0/785 | ul5 0/0/785"},
        {"HMNM4/serial", "uniform",
         "instr 20000 cycles 266851 ld 6076 st 2055 br 0 mp 0"
         " fetch 2501 dac 1163964 da 10632"
         " | L2 8906/1263/334/0 | L3 2690/3826/3653/0"
         " | L4 2632/0/3884/0 | L5 2632/0/0/0 | il1 0/2501/0"
         " | dl1 129/8002/0 | il2 0/0/2501 | dl2 334/1263/6405"
         " | ul3 3653/3826/2690 | ul4 3884/0/2632"
         " | ul5 0/0/2632"},
        {"Perfect", "scripted",
         "instr 20000 cycles 36144 ld 7500 st 2500 br 2500 mp 360"
         " fetch 2500 dac 421820 da 12500"
         " | L2 5107/0/0/0 | L3 5024/0/83/0 | L4 785/0/4239/0"
         " | L5 785/0/0/0 | il1 2425/75/0 | dl1 4968/5032/0"
         " | il2 0/0/75 | dl2 0/0/5032 | ul3 83/0/5024"
         " | ul4 4239/0/785 | ul5 0/0/785"},
        {"Perfect", "uniform",
         "instr 20000 cycles 243811 ld 6076 st 2055 br 0 mp 0"
         " fetch 2501 dac 1063970 da 10632"
         " | L2 10169/0/334/0 | L3 6515/0/3654/0"
         " | L4 2632/0/3883/0 | L5 2632/0/0/0 | il1 0/2501/0"
         " | dl1 129/8002/0 | il2 0/0/2501 | dl2 334/0/7668"
         " | ul3 3654/0/6515 | ul4 3883/0/2632 | ul5 0/0/2632"},
    };
    for (const Pinned &p : pinned) {
        SCOPED_TRACE(std::string(p.config) + " on " + p.workload);
        CacheHierarchy h(paperHierarchy(5));
        std::unique_ptr<MnmUnit> mnm;
        const std::string config = p.config;
        if (config != "none") {
            const auto slash = config.find('/');
            MnmSpec spec = mnmSpecByName(config.substr(0, slash));
            if (slash != std::string::npos) {
                spec.placement = config.substr(slash + 1) == "serial"
                                     ? MnmPlacement::Serial
                                     : MnmPlacement::Parallel;
            }
            mnm = std::make_unique<MnmUnit>(spec, h);
        }
        CycleOooCore core(paperCpu(5), h, mnm.get());
        std::unique_ptr<WorkloadGenerator> w;
        if (std::string(p.workload) == "scripted")
            w = std::make_unique<ScriptedWorkload>(pinnedScript());
        else
            w = std::make_unique<UniformRandomWorkload>(256u << 10, 0.3, 0.1,
                                                        7);
        const CpuRunStats stats = core.run(*w, 20000);
        EXPECT_EQ(runSummary(stats, core, h), p.expected);
    }
}

TEST(CycleCoreTest, RejectsZeroResources)
{
    CacheHierarchy h(tinyParams());
    CpuParams p = CpuParams::eightWay();
    p.commit_width = 0;
    EXPECT_EXIT(CycleOooCore(p, h), ::testing::ExitedWithCode(1),
                "zero-width");
}

} // anonymous namespace
} // namespace mnm
