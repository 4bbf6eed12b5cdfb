/**
 * @file
 * Unit tests for the Table MNM: counter bookkeeping, the sticky
 * saturation rule, multi-table composition, and shadow-set soundness.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/tmnm.hh"
#include "util/random.hh"

namespace mnm
{
namespace
{

/** The TMNM keys nothing by line; any index serves. */
constexpr std::uint32_t any_line = 0;

TEST(TmnmTest, ColdTableSaysMiss)
{
    Tmnm tmnm({10, 1, 3});
    EXPECT_TRUE(tmnm.definitelyMiss(0x3ff));
}

TEST(TmnmTest, PlacementMakesIndexMaybe)
{
    Tmnm tmnm({10, 1, 3});
    tmnm.onPlacement(0x123, any_line);
    EXPECT_FALSE(tmnm.definitelyMiss(0x123));
    // Aliases share the low 10 bits: also "maybe".
    EXPECT_FALSE(tmnm.definitelyMiss(0x123 | (1ull << 10)));
    // A different index is still a definite miss.
    EXPECT_TRUE(tmnm.definitelyMiss(0x124));
}

TEST(TmnmTest, ReplacementRestoresMiss)
{
    Tmnm tmnm({10, 1, 3});
    tmnm.onPlacement(0x7, any_line);
    tmnm.onReplacement(0x7, any_line);
    EXPECT_TRUE(tmnm.definitelyMiss(0x7));
}

TEST(TmnmTest, CounterTracksAliases)
{
    Tmnm tmnm({10, 1, 3});
    BlockAddr a = 0x55;
    BlockAddr alias = 0x55 | (1ull << 10);
    tmnm.onPlacement(a, any_line);
    tmnm.onPlacement(alias, any_line);
    tmnm.onReplacement(a, any_line);
    EXPECT_FALSE(tmnm.definitelyMiss(alias)); // one mapped block remains
    tmnm.onReplacement(alias, any_line);
    EXPECT_TRUE(tmnm.definitelyMiss(alias));
}

TEST(TmnmTest, SaturationIsSticky)
{
    Tmnm tmnm({10, 1, 3}); // saturates at 7
    BlockAddr base = 0x10;
    // Map 9 distinct aliases to the same index.
    for (std::uint64_t i = 0; i < 9; ++i)
        tmnm.onPlacement(base | (i << 10), any_line);
    EXPECT_EQ(tmnm.saturatedCounters(), 1u);
    // Remove all 9: the counter must stay saturated ("maybe"), because
    // the count was lost at saturation.
    for (std::uint64_t i = 0; i < 9; ++i)
        tmnm.onReplacement(base | (i << 10), any_line);
    EXPECT_FALSE(tmnm.definitelyMiss(base));
    EXPECT_EQ(tmnm.saturatedCounters(), 1u);
    EXPECT_EQ(tmnm.anomalies(), 0u);
}

TEST(TmnmTest, FlushResetsSaturation)
{
    Tmnm tmnm({10, 1, 3});
    for (std::uint64_t i = 0; i < 9; ++i)
        tmnm.onPlacement(0x10 | (i << 10), any_line);
    tmnm.onFlush();
    EXPECT_EQ(tmnm.saturatedCounters(), 0u);
    EXPECT_TRUE(tmnm.definitelyMiss(0x10));
}

TEST(TmnmTest, MultiTableAnyZeroMeansMiss)
{
    Tmnm tmnm({8, 2, 3});
    // Place a block; probe an address sharing table-0 index (low 8 bits)
    // but differing in table-1's window (bits 6..13).
    BlockAddr placed = 0x0ff;
    BlockAddr probe = 0x0ff | (0xffull << 8); // same low 8, high differ
    tmnm.onPlacement(placed, any_line);
    EXPECT_FALSE(tmnm.definitelyMiss(placed));
    EXPECT_TRUE(tmnm.definitelyMiss(probe));
}

TEST(TmnmTest, SingleTableFooledWhereMultiTableIsNot)
{
    Tmnm one({8, 1, 3});
    Tmnm two({8, 2, 3});
    BlockAddr placed = 0x0ff;
    BlockAddr probe = 0x0ff | (0xffull << 8);
    one.onPlacement(placed, any_line);
    two.onPlacement(placed, any_line);
    EXPECT_FALSE(one.definitelyMiss(probe));
    EXPECT_TRUE(two.definitelyMiss(probe));
}

TEST(TmnmTest, WiderCountersSaturateLater)
{
    Tmnm narrow({10, 1, 2}); // saturates at 3
    Tmnm wide({10, 1, 4});   // saturates at 15
    for (std::uint64_t i = 0; i < 5; ++i) {
        narrow.onPlacement(0x1 | (i << 10), any_line);
        wide.onPlacement(0x1 | (i << 10), any_line);
    }
    EXPECT_EQ(narrow.saturatedCounters(), 1u);
    EXPECT_EQ(wide.saturatedCounters(), 0u);
}

TEST(TmnmTest, ReplacementOnZeroCounterIsAnomaly)
{
    Tmnm tmnm({10, 1, 3});
    tmnm.onReplacement(0x5, any_line);
    EXPECT_EQ(tmnm.anomalies(), 1u);
}

TEST(TmnmTest, NameAndStorage)
{
    Tmnm tmnm({12, 3, 3});
    EXPECT_EQ(tmnm.name(), "TMNM_12x3");
    EXPECT_EQ(tmnm.storageBits(), (1ull << 12) * 3 * 3);
}

TEST(TmnmTest, RejectsBadSpecs)
{
    EXPECT_EXIT(Tmnm({0, 1, 3}), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(Tmnm({10, 9, 3}), ::testing::ExitedWithCode(1),
                "out of range");
    EXPECT_EXIT(Tmnm({10, 1, 0}), ::testing::ExitedWithCode(1),
                "out of range");
}

/** Soundness with saturation churn against a shadow set. */
TEST(TmnmTest, SoundAgainstShadowSetUnderRandomChurn)
{
    for (std::uint32_t repl = 1; repl <= 3; ++repl) {
        // Tiny tables force heavy aliasing and saturation.
        Tmnm tmnm({5, repl, 3});
        std::set<BlockAddr> shadow;
        Rng rng(7 + repl);
        for (int step = 0; step < 30000; ++step) {
            BlockAddr block = rng.nextBelow(1 << 16);
            if (!shadow.empty() && rng.nextBool(0.45)) {
                auto it = shadow.lower_bound(block);
                if (it == shadow.end())
                    it = shadow.begin();
                tmnm.onReplacement(*it, any_line);
                shadow.erase(it);
            } else if (!shadow.count(block)) {
                tmnm.onPlacement(block, any_line);
                shadow.insert(block);
            }
            BlockAddr probe = rng.nextBelow(1 << 16);
            if (tmnm.definitelyMiss(probe)) {
                ASSERT_FALSE(shadow.count(probe)) << "unsound verdict";
            }
        }
        EXPECT_EQ(tmnm.anomalies(), 0u);
    }
}

} // anonymous namespace
} // namespace mnm
