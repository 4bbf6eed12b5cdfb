/**
 * @file
 * Unit tests for the Sum MNM: the Figure 5 hash, checker bookkeeping in
 * both update modes, multi-checker composition, and soundness against a
 * shadow set.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/smnm.hh"
#include "util/random.hh"

namespace mnm
{
namespace
{

/** The SMNM keys nothing by line; any index serves. */
constexpr std::uint32_t any_line = 0;

TEST(SmnmTest, SumHashMatchesPaperFigure5)
{
    // sum += i*i for each set bit i (1-based over the window).
    EXPECT_EQ(Smnm::sumHash(0b0, 0, 4), 0u);
    EXPECT_EQ(Smnm::sumHash(0b1, 0, 4), 1u);      // bit 1 -> 1
    EXPECT_EQ(Smnm::sumHash(0b10, 0, 4), 4u);     // bit 2 -> 4
    EXPECT_EQ(Smnm::sumHash(0b1000, 0, 4), 16u);  // bit 4 -> 16
    EXPECT_EQ(Smnm::sumHash(0b1011, 0, 4), 21u);  // 1 + 4 + 16
    EXPECT_EQ(Smnm::sumHash(0b1111, 0, 4), 30u);  // 1+4+9+16
}

TEST(SmnmTest, SumHashWindowOffset)
{
    // With offset 4, examine bits 4..7 of the address.
    EXPECT_EQ(Smnm::sumHash(0xf0, 4, 4), 30u);
    EXPECT_EQ(Smnm::sumHash(0x0f, 4, 4), 0u);
}

TEST(SmnmTest, SumHashIgnoresBitsAboveWindow)
{
    EXPECT_EQ(Smnm::sumHash(0x10, 0, 4), 0u); // bit 5 outside width-4
}

TEST(SmnmTest, SumValuesFormula)
{
    // 1 + w(w+1)(2w+1)/6
    EXPECT_EQ(Smnm::sumValues(4), 31u);
    EXPECT_EQ(Smnm::sumValues(10), 386u);
    EXPECT_EQ(Smnm::sumValues(13), 820u);
}

TEST(SmnmTest, ColdFilterSaysMissForEverything)
{
    Smnm smnm({10, 1, SmnmUpdateMode::Counting});
    EXPECT_TRUE(smnm.definitelyMiss(0x123));
}

TEST(SmnmTest, PlacementMakesHashMaybe)
{
    Smnm smnm({10, 1, SmnmUpdateMode::Counting});
    smnm.onPlacement(0x123, any_line);
    EXPECT_FALSE(smnm.definitelyMiss(0x123));
    // Any block with the same sum is also "maybe" (the aliasing that
    // limits SMNM coverage).
    EXPECT_FALSE(smnm.definitelyMiss(0x123));
}

TEST(SmnmTest, DistinctSumStillMiss)
{
    Smnm smnm({10, 1, SmnmUpdateMode::Counting});
    smnm.onPlacement(0b1, any_line); // sum 1
    EXPECT_TRUE(smnm.definitelyMiss(0b10)); // sum 4
}

TEST(SmnmTest, CountingModeReplacementRestoresMiss)
{
    Smnm smnm({10, 1, SmnmUpdateMode::Counting});
    smnm.onPlacement(0x123, any_line);
    smnm.onReplacement(0x123, any_line);
    EXPECT_TRUE(smnm.definitelyMiss(0x123));
}

TEST(SmnmTest, CountingModeTracksMultiplicity)
{
    Smnm smnm({10, 1, SmnmUpdateMode::Counting});
    // Two different blocks with the same sum: 0b1001 (1+9=10) and
    // 0b0110 (4+... wait 4+9? bits 2,3 -> 4+9=13). Use equal blocks of
    // distinct addresses: bits {1,4}=1+16=17 and bits {2,...}: find two
    // windows with equal sums: {1,4} -> 17, no simple pair; simplest is
    // the same address placed twice (two caches' worth is not modelled,
    // so use alias pair {3}=9+{1,2}? 1+4=5 vs ... just verify the count
    // with the same sum value via two placements of one address).
    smnm.onPlacement(0x9, any_line);
    smnm.onPlacement(0x9, any_line);
    smnm.onReplacement(0x9, any_line);
    EXPECT_FALSE(smnm.definitelyMiss(0x9)); // one copy still tracked
    smnm.onReplacement(0x9, any_line);
    EXPECT_TRUE(smnm.definitelyMiss(0x9));
}

TEST(SmnmTest, SetOnlyModeNeverClears)
{
    Smnm smnm({10, 1, SmnmUpdateMode::SetOnly});
    smnm.onPlacement(0x123, any_line);
    smnm.onReplacement(0x123, any_line);
    EXPECT_FALSE(smnm.definitelyMiss(0x123)); // stays "maybe"
    smnm.onFlush();
    EXPECT_TRUE(smnm.definitelyMiss(0x123)); // flush resets the flops
}

TEST(SmnmTest, MultiCheckerCatchesMore)
{
    // Blocks whose low windows collide can still differ in the window
    // at offset 6.
    Smnm one({6, 1, SmnmUpdateMode::Counting});
    Smnm two({6, 2, SmnmUpdateMode::Counting});
    BlockAddr placed = 0x001;
    BlockAddr probe = 0x001 | (0x3full << 6); // same low bits, high differ
    one.onPlacement(placed, any_line);
    two.onPlacement(placed, any_line);
    EXPECT_FALSE(one.definitelyMiss(probe)); // single checker fooled
    EXPECT_TRUE(two.definitelyMiss(probe));  // second checker says no
}

TEST(SmnmTest, FlushResetsCountingState)
{
    Smnm smnm({10, 2, SmnmUpdateMode::Counting});
    smnm.onPlacement(0x42, any_line);
    smnm.onFlush();
    EXPECT_TRUE(smnm.definitelyMiss(0x42));
}

TEST(SmnmTest, ReplacementWithoutPlacementCountsAnomaly)
{
    Smnm smnm({10, 1, SmnmUpdateMode::Counting});
    smnm.onReplacement(0x42, any_line);
    EXPECT_EQ(smnm.anomalies(), 1u);
    EXPECT_TRUE(smnm.definitelyMiss(0x42)); // clamped, still sound-ish
}

TEST(SmnmTest, NameReflectsConfig)
{
    EXPECT_EQ(Smnm({13, 2, SmnmUpdateMode::Counting}).name(), "SMNM_13x2");
    EXPECT_EQ(Smnm({10, 1, SmnmUpdateMode::SetOnly}).name(),
              "SMNM_10x1(set-only)");
}

TEST(SmnmTest, StorageBitsMatchEquation3)
{
    Smnm smnm({10, 3, SmnmUpdateMode::Counting});
    EXPECT_EQ(smnm.storageBits(), 3ull * 386);
}

TEST(SmnmTest, RejectsBadSpecs)
{
    EXPECT_EXIT(Smnm({1, 1, SmnmUpdateMode::Counting}),
                ::testing::ExitedWithCode(1), "out of range");
    EXPECT_EXIT(Smnm({10, 0, SmnmUpdateMode::Counting}),
                ::testing::ExitedWithCode(1), "out of range");
}

/** Soundness property: "miss" verdicts never contradict a shadow set. */
TEST(SmnmTest, SoundAgainstShadowSetUnderRandomChurn)
{
    for (std::uint32_t repl = 1; repl <= 3; ++repl) {
        Smnm smnm({12, repl, SmnmUpdateMode::Counting});
        std::set<BlockAddr> shadow;
        Rng rng(99 + repl);
        for (int step = 0; step < 20000; ++step) {
            BlockAddr block = rng.nextBelow(1 << 18);
            if (!shadow.empty() && rng.nextBool(0.45)) {
                auto it = shadow.lower_bound(block);
                if (it == shadow.end())
                    it = shadow.begin();
                smnm.onReplacement(*it, any_line);
                shadow.erase(it);
            } else if (!shadow.count(block)) {
                smnm.onPlacement(block, any_line);
                shadow.insert(block);
            }
            BlockAddr probe = rng.nextBelow(1 << 18);
            if (smnm.definitelyMiss(probe)) {
                ASSERT_FALSE(shadow.count(probe)) << "unsound verdict";
            }
        }
        EXPECT_EQ(smnm.anomalies(), 0u);
    }
}

} // anonymous namespace
} // namespace mnm
