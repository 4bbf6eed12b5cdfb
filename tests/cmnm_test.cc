/**
 * @file
 * Unit tests for the Common-Address MNM: virtual-tag register
 * allocation, mask widening under both policies, table bookkeeping, the
 * per-line placement record, and shadow-set soundness of the Monotone
 * policy.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/cmnm.hh"
#include "util/random.hh"

namespace mnm
{
namespace
{

CmnmSpec
spec(std::uint32_t regs, std::uint32_t bits,
     CmnmMaskPolicy policy = CmnmMaskPolicy::Monotone)
{
    return CmnmSpec{regs, bits, 3, policy};
}

/** Host-cache line count for the hand-placed tests. */
constexpr std::uint32_t lines = 64;

TEST(CmnmTest, ColdFilterSaysMiss)
{
    Cmnm cmnm(spec(4, 10), lines);
    EXPECT_TRUE(cmnm.definitelyMiss(0xabcdef));
}

TEST(CmnmTest, PlacementAllocatesRegisterAndTableEntry)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0xabcdef, 0);
    EXPECT_EQ(cmnm.registersInUse(), 1u);
    EXPECT_FALSE(cmnm.definitelyMiss(0xabcdef));
}

TEST(CmnmTest, UnknownRegionIsDefiniteMiss)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0x000400, 0); // prefix 0x1
    // A block in a never-seen region misses regardless of low bits.
    EXPECT_TRUE(cmnm.definitelyMiss(0xff0400));
}

TEST(CmnmTest, SameRegionDifferentLowBitsIsMiss)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0xabc001, 0);
    EXPECT_TRUE(cmnm.definitelyMiss(0xabc002)); // same prefix, counter 0
}

TEST(CmnmTest, ReplacementRestoresMiss)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0xabc001, 0);
    cmnm.onReplacement(0xabc001, 0);
    EXPECT_TRUE(cmnm.definitelyMiss(0xabc001));
}

TEST(CmnmTest, DistinctRegionsUseDistinctRegisters)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0x111400, 0);
    cmnm.onPlacement(0x222400, 1);
    cmnm.onPlacement(0x333400, 2);
    EXPECT_EQ(cmnm.registersInUse(), 3u);
    EXPECT_FALSE(cmnm.definitelyMiss(0x111400));
    EXPECT_FALSE(cmnm.definitelyMiss(0x222400));
    EXPECT_FALSE(cmnm.definitelyMiss(0x333400));
}

TEST(CmnmTest, RegisterExhaustionWidensMask)
{
    Cmnm cmnm(spec(2, 4), lines); // 2 registers, 4 table bits
    cmnm.onPlacement(0x1000, 0);
    cmnm.onPlacement(0x2000, 1);
    EXPECT_EQ(cmnm.registersInUse(), 2u);
    EXPECT_EQ(cmnm.maskWidenings(), 0u);
    // Third region forces widening until some register matches.
    cmnm.onPlacement(0x3000, 2);
    EXPECT_GE(cmnm.maskWidenings(), 1u);
    EXPECT_FALSE(cmnm.definitelyMiss(0x3000));
}

TEST(CmnmTest, MonotoneSoundAfterWidening)
{
    Cmnm cmnm(spec(2, 4), lines);
    // Fill both registers, then force widening, then replace blocks and
    // verify verdicts never claim a resident block is absent.
    std::vector<BlockAddr> blocks = {0x1001, 0x2002, 0x3003,
                                     0x4004, 0x5005};
    std::set<BlockAddr> resident;
    for (std::uint32_t i = 0; i < blocks.size(); ++i) {
        cmnm.onPlacement(blocks[i], i);
        resident.insert(blocks[i]);
    }
    for (BlockAddr b : blocks)
        EXPECT_FALSE(cmnm.definitelyMiss(b)) << std::hex << b;
    // Remove two, re-check the rest.
    cmnm.onReplacement(0x1001, 0);
    cmnm.onReplacement(0x4004, 3);
    resident.erase(0x1001);
    resident.erase(0x4004);
    for (BlockAddr b : resident)
        EXPECT_FALSE(cmnm.definitelyMiss(b)) << std::hex << b;
    EXPECT_EQ(cmnm.anomalies(), 0u);
}

TEST(CmnmTest, FlushClearsAllState)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0xabc001, 0);
    cmnm.onFlush();
    EXPECT_EQ(cmnm.registersInUse(), 0u);
    EXPECT_TRUE(cmnm.definitelyMiss(0xabc001));
}

TEST(CmnmTest, StickyCountersHandleHeavyAliasing)
{
    Cmnm cmnm(spec(1, 2), lines); // 1 register, 4-entry table: heavy aliasing
    // 9+ blocks landing on one counter saturate it; removals must not
    // produce a false miss.
    std::vector<BlockAddr> blocks;
    for (std::uint64_t i = 1; i <= 9; ++i)
        blocks.push_back(i << 2); // same low bits (00), same counter
    for (std::uint32_t i = 0; i < blocks.size(); ++i)
        cmnm.onPlacement(blocks[i], i);
    for (std::uint32_t i = 0; i < 8; ++i)
        cmnm.onReplacement(blocks[i], i);
    // One block remains; the saturated counter keeps saying "maybe".
    EXPECT_FALSE(cmnm.definitelyMiss(blocks.back()));
    EXPECT_EQ(cmnm.anomalies(), 0u);
}

TEST(CmnmTest, PlacementIntoOccupiedLineIsAnomaly)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0xabc001, 7);
    EXPECT_EQ(cmnm.anomalies(), 0u);
    // A second placement into a line the feed never emptied: the first
    // block's increment is orphaned (still sound: never decremented).
    cmnm.onPlacement(0xabc002, 7);
    EXPECT_EQ(cmnm.anomalies(), 1u);
    EXPECT_FALSE(cmnm.definitelyMiss(0xabc001));
    EXPECT_FALSE(cmnm.definitelyMiss(0xabc002));
    // The same block into a different line is no anomaly.
    cmnm.onPlacement(0xabc002, 8);
    EXPECT_EQ(cmnm.anomalies(), 1u);
}

TEST(CmnmTest, ReplacementFromEmptyLineIsAnomaly)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0xabc001, 3);
    cmnm.onReplacement(0xabc001, 4); // line 4 was never filled
    EXPECT_EQ(cmnm.anomalies(), 1u);
    EXPECT_FALSE(cmnm.definitelyMiss(0xabc001)); // nothing decremented
    cmnm.onReplacement(0xabc001, 3);
    EXPECT_EQ(cmnm.anomalies(), 1u);
    EXPECT_TRUE(cmnm.definitelyMiss(0xabc001));
    cmnm.onReplacement(0xabc001, 3); // emptied by the line above
    EXPECT_EQ(cmnm.anomalies(), 2u);
}

TEST(CmnmTest, FlushClearsEveryLineRecord)
{
    Cmnm cmnm(spec(4, 10), lines);
    for (std::uint32_t line = 0; line < lines; ++line)
        cmnm.onPlacement(0xabc000 + line, line);
    cmnm.onFlush();
    // Every line is empty again: a replacement from any of them is an
    // anomaly, and a placement into any of them is not.
    for (std::uint32_t line = 0; line < lines; ++line)
        cmnm.onReplacement(0xabc000 + line, line);
    EXPECT_EQ(cmnm.anomalies(), lines);
    for (std::uint32_t line = 0; line < lines; ++line)
        cmnm.onPlacement(0xabc000 + line, line);
    EXPECT_EQ(cmnm.anomalies(), lines);
}

TEST(CmnmTest, ReplacementDecrementsUnderRecordedRegister)
{
    // The Monotone soundness linchpin: a replacement undoes the
    // increment its placement made, under the register the line
    // recorded, wherever bestMatch points now. Monotone widening alone
    // never moves a resident block's best match, so a fault moves it:
    // the widened register goes invalid before the replacement.
    Cmnm cmnm(spec(2, 4), lines);
    cmnm.onPlacement(0x1001, 0); // prefix 0x100 -> register 0
    cmnm.onPlacement(0x2002, 1); // prefix 0x200 -> register 1
    cmnm.onPlacement(0x3003, 2); // no free register: widens register 1
    ASSERT_GE(cmnm.maskWidenings(), 1u);
    const std::uint8_t *counters = cmnm.counterTable();
    const std::size_t cell = (std::size_t{1} << 4) | 0x3; // reg 1, low 3
    ASSERT_EQ(counters[cell], 1u);

    // Register 1's valid bit: after every counter bit, 17 bits per
    // register, the valid bit last.
    const std::uint64_t valid_bit = 2 * 16 * 3 + 17 + 16;
    cmnm.flipFaultBit(valid_bit);
    ASSERT_EQ(cmnm.registersInUse(), 1u); // 0x300 now matches nothing
    cmnm.onReplacement(0x3003, 2);
    EXPECT_EQ(cmnm.anomalies(), 0u);
    EXPECT_EQ(counters[cell], 0u);
    cmnm.flipFaultBit(valid_bit);
    EXPECT_TRUE(cmnm.definitelyMiss(0x3003));
    EXPECT_FALSE(cmnm.definitelyMiss(0x2002));
}

TEST(CmnmTest, LineBeyondHostCacheIsALogicBug)
{
    Cmnm cmnm(spec(4, 10), lines);
    cmnm.onPlacement(0xabc001, lines - 1);
    EXPECT_DEATH(cmnm.onPlacement(0xabc001, lines), "line out of range");
    EXPECT_DEATH(cmnm.onReplacement(0xabc001, lines),
                 "line out of range");
}

TEST(CmnmTest, PaperResetPolicyFlagsUnsound)
{
    Cmnm monotone(spec(4, 10, CmnmMaskPolicy::Monotone), lines);
    Cmnm reset(spec(4, 10, CmnmMaskPolicy::PaperReset), lines);
    EXPECT_FALSE(monotone.maybeUnsound());
    EXPECT_TRUE(reset.maybeUnsound());
}

TEST(CmnmTest, PaperResetBasicOperationStillWorks)
{
    Cmnm cmnm(spec(4, 10, CmnmMaskPolicy::PaperReset), lines);
    cmnm.onPlacement(0xabc001, 0);
    EXPECT_FALSE(cmnm.definitelyMiss(0xabc001));
    EXPECT_TRUE(cmnm.definitelyMiss(0xdef001));
    cmnm.onReplacement(0xabc001, 0);
    EXPECT_TRUE(cmnm.definitelyMiss(0xabc001));
}

TEST(CmnmTest, NamesAndStorage)
{
    EXPECT_EQ(Cmnm(spec(8, 10), lines).name(), "CMNM_8_10");
    EXPECT_EQ(Cmnm(spec(8, 10, CmnmMaskPolicy::PaperReset), lines).name(),
              "CMNM_8_10(paper-reset)");
    // 8 registers x (22 prefix + 5 mask) bits + 8*2^10 x 3-bit counters.
    EXPECT_EQ(Cmnm(spec(8, 10), lines).storageBits(),
              8ull * 27 + 8ull * 1024 * 3);
}

TEST(CmnmTest, PowerModelScalesWithTable)
{
    SramModel sram;
    CheckerModel checker;
    Cmnm small(spec(2, 9), lines);
    Cmnm large(spec(8, 12), lines);
    EXPECT_GT(large.power(sram, checker).read_energy_pj,
              small.power(sram, checker).read_energy_pj);
}

TEST(CmnmTest, RejectsBadSpecs)
{
    EXPECT_EXIT(Cmnm(spec(0, 10), lines), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(Cmnm(spec(4, 0), lines), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(Cmnm(spec(65, 10), lines), ::testing::ExitedWithCode(1),
                "out of range");
}

/**
 * Soundness property for the Monotone policy: random churn with a small
 * register file (constant widening pressure) must never produce a
 * verdict contradicting the shadow set.
 */
TEST(CmnmTest, MonotoneSoundAgainstShadowSetUnderRandomChurn)
{
    constexpr std::uint32_t churn_lines = 1u << 14;
    for (std::uint32_t regs : {1u, 2u, 4u, 8u}) {
        Cmnm cmnm(spec(regs, 6), churn_lines);
        // Resident block -> the line it occupies, plus the free lines.
        std::map<BlockAddr, std::uint32_t> shadow;
        std::vector<std::uint32_t> free_lines;
        for (std::uint32_t line = churn_lines; line-- > 0;)
            free_lines.push_back(line);
        Rng rng(1000 + regs);
        for (int step = 0; step < 25000; ++step) {
            BlockAddr block = rng.nextBelow(1 << 20);
            if (!shadow.empty() && rng.nextBool(0.45)) {
                auto it = shadow.lower_bound(block);
                if (it == shadow.end())
                    it = shadow.begin();
                cmnm.onReplacement(it->first, it->second);
                free_lines.push_back(it->second);
                shadow.erase(it);
            } else if (!shadow.count(block)) {
                ASSERT_FALSE(free_lines.empty());
                cmnm.onPlacement(block, free_lines.back());
                shadow.emplace(block, free_lines.back());
                free_lines.pop_back();
            }
            BlockAddr probe = rng.nextBelow(1 << 20);
            if (cmnm.definitelyMiss(probe)) {
                ASSERT_FALSE(shadow.count(probe))
                    << "unsound verdict with " << regs << " registers";
            }
        }
        EXPECT_EQ(cmnm.anomalies(), 0u);
    }
}

} // anonymous namespace
} // namespace mnm
