/**
 * @file
 * Tests for the two-level rename / register flush model (Fig 5).
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "sim/params.hh"
#include "sim/regfile.hh"

namespace cash
{
namespace
{

SliceParams
params()
{
    return SliceParams{};
}

TEST(Regfile, WriteSetsPrimary)
{
    RenameState rs(params(), 4);
    rs.write(3, 2);
    EXPECT_EQ(rs.primaryWriter(3), 2u);
    EXPECT_TRUE(rs.hasCopy(3, 2));
    EXPECT_FALSE(rs.hasCopy(3, 0));
}

TEST(Regfile, ReadCreatesCopy)
{
    RenameState rs(params(), 4);
    rs.write(5, 1);
    EXPECT_TRUE(rs.read(5, 3)); // cross-slice: transfer needed
    EXPECT_TRUE(rs.hasCopy(5, 3));
    EXPECT_FALSE(rs.read(5, 3)); // already local
    EXPECT_FALSE(rs.read(5, 1)); // writer has it
    EXPECT_EQ(rs.crossSliceReads(), 1u);
}

TEST(Regfile, ReadOfNeverWrittenIsFree)
{
    RenameState rs(params(), 2);
    EXPECT_FALSE(rs.read(7, 1));
}

TEST(Regfile, RewriteMovesPrimary)
{
    RenameState rs(params(), 4);
    rs.write(2, 0);
    rs.write(2, 3);
    EXPECT_EQ(rs.primaryWriter(2), 3u);
    // Old copies are released with the old global register.
    EXPECT_FALSE(rs.hasCopy(2, 0));
}

TEST(Regfile, LiveGlobalsBoundedByArchRegs)
{
    RenameState rs(params(), 2);
    Rng r(3);
    for (int i = 0; i < 10000; ++i) {
        rs.write(static_cast<std::uint8_t>(r.nextBounded(32)),
                 static_cast<std::uint32_t>(r.nextBounded(2)));
    }
    // One live global per architectural register at most — the
    // free list never exhausts under rewrites.
    EXPECT_LE(rs.liveGlobals(), params().archRegs);
}

TEST(Regfile, ShrinkFlushCountsPrimariesOnRemovedSlices)
{
    RenameState rs(params(), 4);
    rs.write(0, 3); // on a removed member
    rs.write(1, 3);
    rs.write(2, 0); // on the survivor
    std::uint32_t flushed = rs.shrink(1);
    EXPECT_EQ(flushed, 2u);
    // All primaries now live on survivors.
    EXPECT_EQ(rs.primaryWriter(0), 0u);
    EXPECT_EQ(rs.primaryWriter(1), 0u);
    EXPECT_EQ(rs.primaryWriter(2), 0u);
    EXPECT_EQ(rs.numSlices(), 1u);
}

TEST(Regfile, Fig5Scenario)
{
    // Paper Fig 5: gr0 written by Slice1 (member 0), gr1 and gr2 by
    // Slice2 (member 1). Slice1 holds a read copy of gr1; Slice2 a
    // copy of gr0. On shrink to one Slice, both gr1 and gr2 are
    // pushed (Slice2 is their primary writer).
    RenameState rs(params(), 2);
    rs.write(0, 0);
    rs.write(1, 1);
    rs.write(2, 1);
    rs.read(1, 0); // Slice1 reads gr1
    rs.read(0, 1); // Slice2 reads gr0
    std::uint32_t flushed = rs.shrink(1);
    EXPECT_EQ(flushed, 2u); // gr1 and gr2 pushed; gr0 stays
    EXPECT_TRUE(rs.hasCopy(1, 0));
    EXPECT_TRUE(rs.hasCopy(2, 0));
}

TEST(Regfile, FlushBoundedByPhysRegs)
{
    // Paper Sec III-B1: "the total number of flushes is bounded by
    // the total number of global registers."
    SliceParams sp;
    RenameState rs(sp, 8);
    Rng r(11);
    for (int i = 0; i < 5000; ++i) {
        rs.write(static_cast<std::uint8_t>(r.nextBounded(32)),
                 1 + static_cast<std::uint32_t>(r.nextBounded(7)));
    }
    std::uint32_t flushed = rs.shrink(1);
    EXPECT_LE(flushed, sp.physRegs);
    EXPECT_LE(flushed, sp.archRegs); // and by live arch bindings
}

TEST(Regfile, ExpandPreservesState)
{
    RenameState rs(params(), 2);
    rs.write(4, 1);
    rs.expand(6);
    EXPECT_EQ(rs.numSlices(), 6u);
    EXPECT_EQ(rs.primaryWriter(4), 1u);
    rs.write(5, 5);
    EXPECT_EQ(rs.primaryWriter(5), 5u);
}

TEST(Regfile, CopiesPrunedToSurvivors)
{
    RenameState rs(params(), 4);
    rs.write(9, 0);
    rs.read(9, 3);
    ASSERT_TRUE(rs.hasCopy(9, 3));
    rs.shrink(2);
    EXPECT_FALSE(rs.hasCopy(9, 3));
    EXPECT_TRUE(rs.hasCopy(9, 0));
}

TEST(Regfile, ShrinkPrefersSurvivingCopyAsPrimary)
{
    RenameState rs(params(), 4);
    rs.write(6, 3);
    rs.read(6, 1); // member 1 holds a copy and survives
    rs.shrink(2);
    EXPECT_EQ(rs.primaryWriter(6), 1u);
}

TEST(RegfileDeath, BadIndicesPanic)
{
    RenameState rs(params(), 2);
    EXPECT_DEATH(rs.write(200, 0), "out of range");
    EXPECT_DEATH(rs.write(0, 5), "member");
    EXPECT_DEATH(rs.read(200, 0), "out of range");
}

TEST(Regfile, BadConstruction)
{
    EXPECT_THROW(RenameState(params(), 0), FatalError);
    EXPECT_THROW(RenameState(params(), 65), FatalError);
    SliceParams sp;
    sp.physRegs = 16;
    sp.archRegs = 32;
    EXPECT_THROW(RenameState(sp, 2), FatalError);
}

/** Random workloads: shrink invariants across member counts. */
class RegfileShrinkTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RegfileShrinkTest, SequentialShrinksStaySane)
{
    std::uint32_t start = GetParam();
    RenameState rs(params(), start);
    Rng r(start * 37);
    for (int i = 0; i < 3000; ++i) {
        auto reg = static_cast<std::uint8_t>(r.nextBounded(32));
        auto member =
            static_cast<std::uint32_t>(r.nextBounded(start));
        if (r.nextBool(0.7))
            rs.write(reg, member);
        else
            rs.read(reg, member);
    }
    for (std::uint32_t n = start - 1; n >= 1; --n) {
        std::uint32_t flushed = rs.shrink(n);
        EXPECT_LE(flushed, params().archRegs);
        for (std::uint8_t reg = 0; reg < 32; ++reg) {
            std::uint32_t p = rs.primaryWriter(reg);
            if (p != ~std::uint32_t(0)) {
                EXPECT_LT(p, n);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RegfileShrinkTest,
                         ::testing::Values(2, 4, 8, 16));

} // namespace
} // namespace cash
