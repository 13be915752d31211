/**
 * @file
 * Tests for the baseline resource-allocation policies.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "baselines/policy.hh"
#include "baselines/profile.hh"
#include "workload/trace_gen.hh"

namespace cash
{
namespace
{

ConfigSpace &
space()
{
    static ConfigSpace s(4, 16);
    return s;
}

CostModel &
cost()
{
    static CostModel c;
    return c;
}

AppModel
toyApp()
{
    AppModel a;
    a.name = "toy";
    a.seed = 3;
    PhaseParams fast;
    fast.name = "compute";
    fast.ilpMeanDist = 30;
    fast.memFrac = 0.15;
    fast.workingSet = 64 * kiB;
    fast.seqFrac = 0.7;
    fast.lengthInsts = 600'000;
    PhaseParams slow;
    slow.name = "memory";
    slow.ilpMeanDist = 3;
    slow.memFrac = 0.45;
    slow.workingSet = 1 * miB;
    slow.seqFrac = 0.1;
    slow.lengthInsts = 600'000;
    slow.dataBase = 64 * miB;
    a.phases = {fast, slow};
    return a;
}

const AppProfile &
profile()
{
    static AppProfile prof = [] {
        ProfileParams pp;
        pp.warmupInsts = 10'000;
        pp.measureInsts = 20'000;
        return characterize(toyApp(), space(), FabricParams{},
                            SimParams{}, pp);
    }();
    return prof;
}

struct Rig
{
    Rig()
        : sim(),
          id(*sim.createVCore(1, 1)),
          inner(toyApp().phases, 3, true, 0),
          paced(inner, profile().qosTarget)
    {
        sim.vcore(id).bindSource(&paced);
    }

    SSim sim;
    VCoreId id;
    PhasedTraceSource inner;
    PacedSource paced;
};

TEST(Policy, OracleFollowsProfile)
{
    Rig rig;
    OraclePolicy oracle(rig.sim, rig.id, QosKind::Throughput,
                        profile().qosTarget, space(), cost(),
                        200'000, profile(), &rig.inner,
                        nullptr);
    oracle.run(8'000'000);
    ASSERT_GT(oracle.stats().samples, 10u);
    // The oracle should rarely violate and keep QoS near or above
    // target.
    EXPECT_LT(oracle.stats().violationPct(), 25.0);
    EXPECT_GT(oracle.stats().meanQos(), 0.9);
    // It reconfigures only at phase boundaries: far fewer times
    // than quanta.
    EXPECT_LT(oracle.stats().reconfigs,
              oracle.stats().samples / 2);
}

TEST(Policy, OracleNeedsPhaseSource)
{
    Rig rig;
    EXPECT_THROW(OraclePolicy(rig.sim, rig.id, QosKind::Throughput,
                              1.0, space(), cost(), 200'000,
                              profile(), nullptr, nullptr),
                 FatalError);
}

TEST(Policy, RaceToIdleHoldsOneConfig)
{
    Rig rig;
    RaceToIdlePolicy race(rig.sim, rig.id, QosKind::Throughput,
                          profile().qosTarget, space(), cost(),
                          200'000, profile());
    race.run(6'000'000);
    EXPECT_LE(race.stats().reconfigs, 1u);
    EXPECT_LT(race.stats().violationPct(), 25.0);
}

TEST(Policy, RaceToIdleChargesBusyOnly)
{
    // With free idling, the charged cost must be below holding the
    // same config for the whole horizon whenever there is any idle
    // time.
    Rig rig;
    RaceToIdlePolicy race(rig.sim, rig.id, QosKind::Throughput,
                          profile().qosTarget, space(), cost(),
                          200'000, profile());
    race.run(6'000'000);
    std::size_t wc =
        profile().cheapestMeetingAll(space(), cost());
    double full = cost().cost(space().at(wc),
                              rig.sim.vcore(rig.id).now());
    EXPECT_LT(race.stats().cost, full);
    EXPECT_LT(race.stats().busyCycles, race.stats().cycles);
}

TEST(Policy, ConvexHullIsConcaveFrontier)
{
    Rig rig;
    ConvexOptPolicy convex(rig.sim, rig.id, QosKind::Throughput,
                           profile().qosTarget, space(), cost(),
                           200'000, profile());
    const auto &hull = convex.hull();
    ASSERT_GE(hull.size(), 1u);
    // Hull points are sorted by cost and performance.
    for (std::size_t i = 0; i + 1 < hull.size(); ++i) {
        EXPECT_LT(cost().ratePerHour(space().at(hull[i])),
                  cost().ratePerHour(space().at(hull[i + 1])));
        EXPECT_LT(profile().averagePerf(hull[i]),
                  profile().averagePerf(hull[i + 1]));
    }
    // Concavity: marginal perf per dollar is non-increasing.
    for (std::size_t i = 0; i + 2 < hull.size(); ++i) {
        double c0 = cost().ratePerHour(space().at(hull[i]));
        double c1 = cost().ratePerHour(space().at(hull[i + 1]));
        double c2 = cost().ratePerHour(space().at(hull[i + 2]));
        double p0 = profile().averagePerf(hull[i]);
        double p1 = profile().averagePerf(hull[i + 1]);
        double p2 = profile().averagePerf(hull[i + 2]);
        double slope01 = (p1 - p0) / (c1 - c0);
        double slope12 = (p2 - p1) / (c2 - c1);
        EXPECT_GE(slope01, slope12 - 1e-9);
    }
}

TEST(Policy, ConvexRunsAndTracks)
{
    Rig rig;
    ConvexOptPolicy convex(rig.sim, rig.id, QosKind::Throughput,
                           profile().qosTarget, space(), cost(),
                           200'000, profile());
    convex.run(8'000'000);
    ASSERT_GT(convex.stats().samples, 10u);
    EXPECT_GT(convex.stats().meanQos(), 0.7);
}

TEST(Policy, CashPolicyAdapterAggregates)
{
    Rig rig;
    RuntimeParams rp;
    rp.quantum = 200'000;
    CashPolicy cash(rig.sim, rig.id, QosKind::Throughput,
                    profile().qosTarget, space(), cost(), rp, 11);
    cash.run(6'000'000);
    EXPECT_GT(cash.stats().samples, 10u);
    EXPECT_GT(cash.stats().cost, 0.0);
    EXPECT_FALSE(cash.series().empty());
    EXPECT_EQ(cash.name(), "CASH");
}

TEST(Policy, SeriesRecorded)
{
    Rig rig;
    OraclePolicy oracle(rig.sim, rig.id, QosKind::Throughput,
                        profile().qosTarget, space(), cost(),
                        200'000, profile(), &rig.inner,
                        nullptr);
    oracle.run(3'000'000);
    ASSERT_GT(oracle.series().size(), 5u);
    Cycle prev = 0;
    for (const SeriesPoint &pt : oracle.series()) {
        EXPECT_GT(pt.cycle, prev); // monotone time
        prev = pt.cycle;
        EXPECT_GE(pt.costRate, 0.0);
        EXPECT_LT(pt.config, space().size());
    }
}

TEST(Policy, StatsArithmetic)
{
    PolicyStats s;
    EXPECT_EQ(s.meanQos(), 0.0);
    EXPECT_EQ(s.violationPct(), 0.0);
    s.samples = 4;
    s.violations = 1;
    s.qosSum = 4.4;
    EXPECT_NEAR(s.meanQos(), 1.1, 1e-12);
    EXPECT_NEAR(s.violationPct(), 25.0, 1e-12);
}

} // namespace
} // namespace cash
