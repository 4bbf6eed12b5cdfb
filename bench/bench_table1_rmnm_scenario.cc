/**
 * @file
 * Paper Table 1: the RMNM worked scenario, replayed on a real two-level
 * hierarchy with event-by-event narration. The same scenario is locked
 * down by the unit test RmnmTest.PaperTable1Scenario; this binary prints
 * it for inspection.
 */

#include <cstdio>

#include "cache/hierarchy.hh"
#include "core/mnm_unit.hh"
#include "core/presets.hh"
#include "obs/confusion.hh"
#include "obs/manifest.hh"
#include "obs/registry.hh"

using namespace mnm;

namespace
{

/** Narrating listener: prints each placement/replacement. */
class Narrator : public CacheEventListener
{
  public:
    Narrator(MnmUnit &mnm, CacheHierarchy &hierarchy)
        : mnm_(mnm), hierarchy_(hierarchy)
    {
    }

    void
    onPlacement(CacheId id, BlockAddr block) override
    {
        std::printf("    pl. 0x%llx into %s\n",
                    static_cast<unsigned long long>(
                        hierarchy_.cache(id).byteAddr(block)),
                    hierarchy_.cache(id).params().name.c_str());
        mnm_.onPlacement(id, block);
    }

    void
    onReplacement(CacheId id, BlockAddr block) override
    {
        std::printf("    repl. 0x%llx from %s -> recorded in RMNM\n",
                    static_cast<unsigned long long>(
                        hierarchy_.cache(id).byteAddr(block)),
                    hierarchy_.cache(id).params().name.c_str());
        mnm_.onReplacement(id, block);
    }

  private:
    MnmUnit &mnm_;
    CacheHierarchy &hierarchy_;
};

} // anonymous namespace

int
main()
{
    initRunTelemetry("table1_rmnm_scenario");
    std::puts("== Table 1: RMNM scenario (2-level hierarchy, "
              "direct-mapped 4-block L1 / 8-block L2) ==");

    HierarchyParams params;
    LevelParams l1;
    l1.data.name = "L1";
    l1.data.capacity_bytes = 4 * 32;
    l1.data.associativity = 1;
    l1.data.block_bytes = 32;
    l1.data.hit_latency = 1;
    LevelParams l2;
    l2.data.name = "L2";
    l2.data.capacity_bytes = 8 * 32;
    l2.data.associativity = 1;
    l2.data.block_bytes = 32;
    l2.data.hit_latency = 4;
    params.levels = {l1, l2};
    params.memory_latency = 50;

    CacheHierarchy hierarchy(params);
    MnmUnit mnm(makeRmnmSpec(128, 1), hierarchy);
    // Interpose the narrator between hierarchy and MNM.
    Narrator narrator(mnm, hierarchy);
    hierarchy.setListener(&narrator);

    DecisionMatrix decisions;
    auto access = [&](Addr addr) {
        BypassMask mask = mnm.computeBypass(AccessType::Load, addr);
        std::printf("  access 0x%llx\n",
                    static_cast<unsigned long long>(addr));
        AccessResult r = hierarchy.access(AccessType::Load, addr, mask);
        decisions.record(r);
        for (std::uint8_t i = 0; i < r.num_probes; ++i) {
            const ProbeRecord &p = r.probes[i];
            std::printf(
                "    L%u: %s\n", p.level,
                p.bypassed ? "BYPASSED (RMNM identified the miss)"
                           : (p.hit ? "hit" : "miss"));
        }
    };

    // The paper's sequence: conflicting block addresses march through
    // the shared set until the first block is evicted from L2 as well;
    // re-accessing it is then identified as an L2 miss.
    access(0x2f00);
    access(0x2c00);
    access(0x2800);
    access(0x2400);
    std::puts("  -- re-access the first block:");
    access(0x2f00);

    std::printf("soundness violations: %llu (must be 0)\n\n",
                static_cast<unsigned long long>(
                    mnm.soundnessViolations()));

    // Fold the scenario's decision matrix into the run manifest.
    for (std::uint32_t l = 0; l < mnm.violationLevels(); ++l)
        decisions.setForbidden(l, mnm.violationsAtLevel(l));
    decisions.registerInto(globalStats(), "table1.confusion");
    globalStats().addCounter("table1.soundness_violations",
                             mnm.soundnessViolations());
    return 0;
}
