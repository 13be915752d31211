/**
 * @file
 * Tests for the online speedup learner (Eqn 7).
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/config_space.hh"
#include "core/qlearn.hh"

namespace cash
{
namespace
{

const ConfigSpace &
space()
{
    static ConfigSpace s;
    return s;
}

TEST(QLearn, PriorIsMonotoneShape)
{
    SpeedupLearner l(space(), 0.3);
    // The prior promises more from more resources.
    EXPECT_GT(l.qhat(space().indexOf({8, 128})),
              l.qhat(space().indexOf({1, 1})));
    EXPECT_GT(l.qhat(space().indexOf({4, 8})),
              l.qhat(space().indexOf({2, 8})));
}

TEST(QLearn, FirstVisitReplacesPrior)
{
    SpeedupLearner l(space(), 0.3);
    std::size_t k = space().indexOf({4, 8});
    EXPECT_FALSE(l.visited(k));
    l.update(k, 0.123);
    EXPECT_TRUE(l.visited(k));
    EXPECT_DOUBLE_EQ(l.qhat(k), 0.123);
}

TEST(QLearn, Eqn7ExponentialUpdate)
{
    SpeedupLearner l(space(), 0.25);
    std::size_t k = 5;
    l.update(k, 1.0);
    l.update(k, 2.0);
    // qhat = 0.75 * 1.0 + 0.25 * 2.0
    EXPECT_DOUBLE_EQ(l.qhat(k), 1.25);
    l.update(k, 1.25);
    EXPECT_DOUBLE_EQ(l.qhat(k), 1.25);
}

TEST(QLearn, SpeedupRelativeToBase)
{
    SpeedupLearner l(space(), 0.3);
    l.update(0, 0.5);
    std::size_t k = space().indexOf({2, 2});
    l.update(k, 1.5);
    EXPECT_NEAR(l.speedup(k), 3.0, 1e-12);
    EXPECT_NEAR(l.speedup(0), 1.0, 1e-12);
}

TEST(QLearn, NoPropagationByDefault)
{
    SpeedupLearner l(space(), 0.3);
    double before = l.qhat(40);
    l.update(0, 0.01); // catastrophic shock at the base config
    EXPECT_DOUBLE_EQ(l.qhat(40), before);
}

TEST(QLearn, PropagationCalibratesUnvisited)
{
    SpeedupLearner l(space(), 0.3, 1.0, /*propagate=*/true);
    std::size_t k = space().indexOf({2, 4});
    l.update(k, 0.5); // first visit propagates the level
    double level = 0.5 / SpeedupLearner::priorShape({2, 4});
    std::size_t j = space().indexOf({4, 16});
    EXPECT_NEAR(l.qhat(j),
                level * SpeedupLearner::priorShape({4, 16}), 1e-9);
}

TEST(QLearn, ShockRescalesWholeTable)
{
    // A measurement contradicting its entry by >2x is a phase
    // change: every entry shifts by the observed ratio, preserving
    // learned shape (visited entries included).
    SpeedupLearner l(space(), 0.3);
    std::size_t k = 10, j = 50;
    l.update(k, 1.0);
    l.update(j, 3.0);
    l.update(k, 0.25); // shock: ratio 0.25
    EXPECT_NEAR(l.qhat(k), 0.25, 1e-9);
    EXPECT_NEAR(l.qhat(j), 3.0 * 0.25, 1e-9);
    // The shape (ratio between entries) survived.
    EXPECT_NEAR(l.qhat(j) / l.qhat(k), 3.0, 1e-9);
}

TEST(QLearn, SmallDriftDoesNotRescale)
{
    SpeedupLearner l(space(), 0.5, 1.0, /*propagate=*/true);
    std::size_t k = 10, j = 50;
    l.update(k, 1.0);
    l.update(j, 3.0);
    l.update(k, 1.1); // small drift: EWMA only
    EXPECT_NEAR(l.qhat(j), 3.0, 1e-9);
    EXPECT_NEAR(l.qhat(k), 1.05, 1e-9);
}

TEST(QLearn, BadParamsRejected)
{
    EXPECT_THROW(SpeedupLearner(space(), 0.0), FatalError);
    EXPECT_THROW(SpeedupLearner(space(), 1.5), FatalError);
    EXPECT_THROW(SpeedupLearner(space(), 0.3, -1.0), FatalError);
}

TEST(QLearnDeath, OutOfRangePanics)
{
    SpeedupLearner l(space(), 0.3);
    EXPECT_DEATH(l.update(space().size(), 1.0), "config");
    EXPECT_DEATH(l.qhat(space().size()), "config");
    EXPECT_DEATH(l.update(0, -1.0), "negative");
}

/** Convergence to arbitrary tables under repeated updates. */
class QLearnAlphaTest : public ::testing::TestWithParam<double>
{
};

TEST_P(QLearnAlphaTest, ConvergesToTruth)
{
    double alpha = GetParam();
    SpeedupLearner l(space(), alpha);
    for (int iter = 0; iter < 200; ++iter) {
        for (std::size_t k = 0; k < space().size(); ++k) {
            double truth = 0.1 + static_cast<double>(k % 7);
            l.update(k, truth);
        }
    }
    for (std::size_t k = 0; k < space().size(); ++k) {
        double truth = 0.1 + static_cast<double>(k % 7);
        EXPECT_NEAR(l.qhat(k), truth, 1e-6) << "config " << k;
    }
}

INSTANTIATE_TEST_SUITE_P(Alphas, QLearnAlphaTest,
                         ::testing::Values(0.1, 0.3, 0.7, 1.0));

} // namespace
} // namespace cash
