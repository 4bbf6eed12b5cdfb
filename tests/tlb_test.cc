/**
 * @file
 * Tests for the TLB substrate and the Section 4.5 TLB-filter extension.
 */

#include <gtest/gtest.h>

#include "cache/tlb.hh"
#include "core/tlb_filter.hh"
#include "trace/spec2000.hh"
#include "util/random.hh"

namespace mnm
{
namespace
{

TlbParams
smallParams()
{
    TlbParams p;
    p.entries = 4;
    p.associativity = 0;
    p.page_bits = 12;
    p.probe_latency = 1;
    p.walk_latency = 30;
    return p;
}

TEST(TlbTest, MissWalksThenHits)
{
    Tlb tlb(smallParams());
    EXPECT_EQ(tlb.translate(0x1234), 31u); // probe + walk
    EXPECT_EQ(tlb.translate(0x1abc), 1u);  // same page: hit
    EXPECT_EQ(tlb.stats().hits.value(), 1u);
    EXPECT_EQ(tlb.stats().misses.value(), 1u);
    EXPECT_EQ(tlb.stats().walks.value(), 1u);
}

TEST(TlbTest, PageGranularity)
{
    Tlb tlb(smallParams());
    tlb.translate(0x0);
    EXPECT_TRUE(tlb.contains(0xfff));  // same 4KB page
    EXPECT_FALSE(tlb.contains(0x1000)); // next page
}

TEST(TlbTest, CapacityEviction)
{
    Tlb tlb(smallParams()); // 4 entries, fully associative, LRU
    for (Addr page = 0; page < 5; ++page)
        tlb.translate(page << 12);
    EXPECT_FALSE(tlb.contains(0x0)); // LRU evicted
    EXPECT_TRUE(tlb.contains(4ull << 12));
}

TEST(TlbTest, ListenerSeesInstallAndEvict)
{
    struct Event
    {
        bool placement;
        std::uint64_t page;
        std::uint32_t line;
    };
    struct Recorder : Tlb::Listener
    {
        std::vector<Event> events;
        void
        onTlbPlacement(std::uint64_t page, std::uint32_t line) override
        {
            events.push_back({true, page, line});
        }
        void
        onTlbReplacement(std::uint64_t page, std::uint32_t line) override
        {
            events.push_back({false, page, line});
        }
    } recorder;

    Tlb tlb(smallParams());
    tlb.setListener(&recorder);
    for (Addr page = 0; page < 5; ++page)
        tlb.translate(page << 12);
    ASSERT_EQ(recorder.events.size(), 6u); // 5 installs + 1 evict
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(recorder.events[i].line, i); // cold fills, way order
    EXPECT_FALSE(recorder.events[4].placement); // evict reported first
    EXPECT_EQ(recorder.events[4].page, 0u);
    EXPECT_TRUE(recorder.events[5].placement);
    // The new page takes the victim's entry.
    EXPECT_EQ(recorder.events[5].line, recorder.events[4].line);
    EXPECT_EQ(recorder.events[4].line, recorder.events[0].line);
}

TEST(TlbTest, BypassSkipsProbeLatency)
{
    Tlb tlb(smallParams());
    Cycles lat = tlb.translate(0x5000, /*bypass_probe=*/true);
    EXPECT_EQ(lat, 30u); // walk only, no probe
    EXPECT_EQ(tlb.stats().bypasses.value(), 1u);
    EXPECT_EQ(tlb.stats().accesses.value(), 0u);
}

TEST(TlbTest, RejectsNonPowerOfTwoEntries)
{
    TlbParams p = smallParams();
    p.entries = 48;
    EXPECT_EXIT(Tlb t(p), ::testing::ExitedWithCode(1),
                "power of two");
}

TEST(TlbTest, SetAssociativeConfiguration)
{
    TlbParams p = smallParams();
    p.entries = 8;
    p.associativity = 2; // 4 sets x 2 ways over page numbers
    Tlb tlb(p);
    // Pages 0 and 4 share a set; with 2 ways both fit, page 8 evicts.
    tlb.translate(0ull << 12);
    tlb.translate(4ull << 12);
    tlb.translate(8ull << 12);
    EXPECT_FALSE(tlb.contains(0ull << 12)); // LRU of set 0
    EXPECT_TRUE(tlb.contains(4ull << 12));
    EXPECT_TRUE(tlb.contains(8ull << 12));
}

TEST(TlbTest, HitRateComputation)
{
    Tlb tlb(smallParams());
    tlb.translate(0x0);
    tlb.translate(0x10);
    tlb.translate(0x20);
    EXPECT_NEAR(tlb.stats().hitRate(), 2.0 / 3.0, 1e-12);
}

TEST(TlbFilterTest, ColdMissesIdentified)
{
    Tlb tlb(smallParams());
    TlbFilterUnit filter(TmnmSpec{8, 2, 3}, tlb);
    // First touch of any page is a definite miss for a cold TMNM.
    Cycles lat = filter.translate(0x9000);
    EXPECT_EQ(lat, 30u); // bypassed probe
    EXPECT_EQ(filter.identified(), 1u);
    // Second touch: resident, filter must not bypass.
    lat = filter.translate(0x9000);
    EXPECT_EQ(lat, 1u);
    EXPECT_EQ(filter.soundnessViolations(), 0u);
}

TEST(TlbFilterTest, CoverageAndSoundnessUnderChurn)
{
    Tlb tlb(smallParams()); // tiny: constant churn
    TlbFilterUnit filter(TmnmSpec{6, 2, 3}, tlb);
    Rng rng(11);
    for (int i = 0; i < 50000; ++i) {
        Addr addr = (rng.nextBelow(64) << 12) | rng.nextBelow(4096);
        filter.translate(addr);
    }
    EXPECT_EQ(filter.soundnessViolations(), 0u);
    EXPECT_GT(filter.coverage(), 0.0);
    EXPECT_LE(filter.coverage(), 1.0);
    EXPECT_GT(filter.consumedEnergyPj(), 0.0);
}

TEST(TlbFilterTest, CmnmSoundUnderRandomPageStream)
{
    // The CMNM keeps its placement register per TLB entry. A
    // set-associative TLB under a seeded page stream spanning more
    // regions than the register file (so masks keep widening) must
    // stay sound, with every replacement finding its entry's record.
    TlbParams p = smallParams();
    p.entries = 16;
    p.associativity = 4;
    Tlb tlb(p);
    TlbFilterUnit filter(CmnmSpec{2, 4, 3, CmnmMaskPolicy::Monotone},
                         tlb);
    Rng rng(23);
    for (int i = 0; i < 50000; ++i) {
        // 4 regions x 64 pages: 16 distinct 4-bit-shifted prefixes.
        Addr page = (rng.nextBelow(4) << 10) | rng.nextBelow(64);
        filter.translate((page << 12) | rng.nextBelow(4096));
    }
    EXPECT_EQ(filter.soundnessViolations(), 0u);
    EXPECT_EQ(filter.filter().anomalies(), 0u);
    EXPECT_GT(filter.identified(), 0u);
    EXPECT_GT(filter.unidentified(), 0u);
}

TEST(TlbFilterTest, RealWorkloadEndToEnd)
{
    TlbParams params;
    params.entries = 64;
    params.associativity = 0;
    Tlb tlb(params);
    TlbFilterUnit filter(TmnmSpec{8, 2, 3}, tlb);
    auto workload = makeSpecWorkload("181.mcf");
    Instruction inst;
    for (int i = 0; i < 100000; ++i) {
        workload->next(inst);
        if (inst.isMem())
            filter.translate(inst.mem_addr);
    }
    EXPECT_EQ(filter.soundnessViolations(), 0u);
    // mcf's footprint dwarfs a 64-entry TLB: misses exist and a good
    // chunk should be identified.
    EXPECT_GT(filter.identified() + filter.unidentified(), 100u);
    EXPECT_GT(filter.coverage(), 0.1);
}

} // anonymous namespace
} // namespace mnm
