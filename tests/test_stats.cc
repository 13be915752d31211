/**
 * @file
 * Unit and property tests for statistics primitives.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace cash
{
namespace
{

TEST(RunningStat, Empty)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(RunningStat, KnownValues)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, SingleSampleVarianceZero)
{
    RunningStat s;
    s.add(3.5);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.mean(), 3.5);
    EXPECT_EQ(s.min(), 3.5);
    EXPECT_EQ(s.max(), 3.5);
}

TEST(RunningStat, MergeMatchesSequential)
{
    Rng r(5);
    RunningStat whole, a, b;
    for (int i = 0; i < 500; ++i) {
        double v = r.nextGaussian() * 3 + 1;
        whole.add(v);
        (i % 2 ? a : b).add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a, b;
    a.add(1.0);
    a.add(2.0);
    RunningStat before = a;
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), before.mean());
    b.merge(a);
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 1.5);
}

TEST(RunningStat, Reset)
{
    RunningStat s;
    s.add(10);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.sum(), 0.0);
}

TEST(Geomean, KnownValue)
{
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, RejectsBadInput)
{
    EXPECT_THROW(geomean({}), FatalError);
    EXPECT_THROW(geomean({1.0, 0.0}), FatalError);
    EXPECT_THROW(geomean({1.0, -2.0}), FatalError);
}

TEST(Mean, Works)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_THROW(mean({}), FatalError);
}

/** Welford matches the naive two-pass computation across scales. */
class StatScaleTest : public ::testing::TestWithParam<double>
{
};

TEST_P(StatScaleTest, MatchesTwoPass)
{
    double scale = GetParam();
    Rng r(static_cast<std::uint64_t>(scale) + 71);
    std::vector<double> xs;
    RunningStat s;
    for (int i = 0; i < 2000; ++i) {
        double v = (r.nextDouble() - 0.5) * scale;
        xs.push_back(v);
        s.add(v);
    }
    double m = 0;
    for (double v : xs)
        m += v;
    m /= xs.size();
    double var = 0;
    for (double v : xs)
        var += (v - m) * (v - m);
    var /= xs.size();
    EXPECT_NEAR(s.mean(), m, std::abs(m) * 1e-9 + 1e-9);
    EXPECT_NEAR(s.variance(), var, var * 1e-9 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, StatScaleTest,
                         ::testing::Values(1e-6, 1.0, 1e6, 1e12));

} // namespace
} // namespace cash
