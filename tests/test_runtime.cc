/**
 * @file
 * Integration tests for the CASH runtime (Algorithm 1).
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "core/runtime.hh"
#include "workload/trace_gen.hh"

namespace cash
{
namespace
{

PhaseParams
steadyPhase()
{
    PhaseParams p;
    p.name = "steady";
    p.ilpMeanDist = 20;
    p.memFrac = 0.25;
    p.workingSet = 256 * kiB;
    p.seqFrac = 0.5;
    p.branchFrac = 0.08;
    p.branchBias = 0.93;
    p.lengthInsts = 50'000'000;
    return p;
}

struct Rig
{
    Rig(double target, Cycle quantum = 400'000, bool dvfs = false)
        : space(), cost(),
          sim(),
          id(*sim.createVCore(1, 1)),
          inner({steadyPhase()}, 5, true, 0),
          paced(inner, target)
    {
        sim.vcore(id).bindSource(&paced);
        params.quantum = quantum;
        params.dvfs = dvfs;
        runtime = std::make_unique<CashRuntime>(
            sim, id, QosKind::Throughput, target, space, cost,
            params, 7);
    }

    ConfigSpace space;
    CostModel cost;
    SSim sim;
    VCoreId id;
    PhasedTraceSource inner;
    PacedSource paced;
    RuntimeParams params;
    std::unique_ptr<CashRuntime> runtime;
};

TEST(Runtime, ConvergesToTargetOnStationaryLoad)
{
    Rig rig(0.4, 1'000'000);
    // Let it learn.
    for (int i = 0; i < 30; ++i)
        rig.runtime->step();
    // Then require tight tracking.
    int good = 0, total = 0;
    for (int i = 0; i < 20; ++i) {
        QuantumStats st = rig.runtime->step();
        if (st.samples) {
            ++total;
            good += st.qos > 0.9;
        }
    }
    ASSERT_GT(total, 10);
    EXPECT_GT(good, total * 7 / 10);
}

TEST(Runtime, CostAccountingConsistent)
{
    Rig rig(0.4);
    double sum = 0.0;
    for (int i = 0; i < 20; ++i)
        sum += rig.runtime->step().cost;
    EXPECT_NEAR(rig.runtime->totalCost(), sum, 1e-12);
    EXPECT_GT(sum, 0.0);
    // Sanity: total cost is bounded by the most expensive config
    // held for the whole time.
    double max_rate = rig.cost.ratePerHour({8, 128});
    double hours = rig.cost.hours(rig.sim.vcore(rig.id).now());
    EXPECT_LE(sum, max_rate * hours * 1.01);
}

TEST(Runtime, CheaperThanMaxProvisioning)
{
    Rig rig(0.3);
    for (int i = 0; i < 50; ++i)
        rig.runtime->step();
    double hours = rig.cost.hours(rig.sim.vcore(rig.id).now());
    double max_cost = rig.cost.ratePerHour({8, 128}) * hours;
    EXPECT_LT(rig.runtime->totalCost(), 0.5 * max_cost)
        << "the optimizer should not sit at the largest config";
}

TEST(Runtime, SpeedupCommandRespondsToError)
{
    Rig rig(0.4);
    QuantumStats first = rig.runtime->step();
    // Starting at the base config under a 0.4-IPC pace, early
    // quanta should demand speedup > 1.
    EXPECT_GT(first.speedupCmd, 0.0);
    for (int i = 0; i < 5; ++i)
        rig.runtime->step();
    EXPECT_GT(rig.runtime->controller().speedup(), 0.0);
}

TEST(Runtime, ViolationAccountingMatchesTotals)
{
    Rig rig(0.4);
    std::uint64_t v = 0, s = 0;
    for (int i = 0; i < 30; ++i) {
        QuantumStats st = rig.runtime->step();
        v += st.violations;
        s += st.samples;
    }
    EXPECT_EQ(rig.runtime->totalViolations(), v);
    EXPECT_EQ(rig.runtime->totalSamples(), s);
    EXPECT_LE(v, s);
}

TEST(Runtime, FinishedSourceStopsCleanly)
{
    ConfigSpace space;
    CostModel cost;
    SSim sim;
    auto id = *sim.createVCore(1, 1);
    PhaseParams p = steadyPhase();
    p.lengthInsts = 30'000;
    PhasedTraceSource src({p}, 5, false, 0);
    sim.vcore(id).bindSource(&src);
    RuntimeParams rp;
    rp.quantum = 200'000;
    CashRuntime rt(sim, id, QosKind::Throughput, 0.4, space, cost,
                   rp, 7);
    QuantumStats st;
    for (int i = 0; i < 20 && !st.finished; ++i)
        st = rt.step();
    EXPECT_TRUE(st.finished);
    // Subsequent steps are no-ops.
    QuantumStats post = rt.step();
    EXPECT_TRUE(post.finished);
    EXPECT_EQ(post.cycles, 0u);
}

TEST(Runtime, RunUntilAggregates)
{
    Rig rig(0.4);
    QuantumStats agg = rig.runtime->runUntil(5'000'000);
    EXPECT_GE(rig.sim.vcore(rig.id).now(), 5'000'000u);
    EXPECT_GT(agg.samples, 5u);
    EXPECT_GT(agg.cost, 0.0);
}

TEST(Runtime, StartOutsideSpaceFatal)
{
    ConfigSpace coarse(
        std::vector<VCoreConfig>{{2, 2}, {8, 64}});
    CostModel cost;
    SSim sim;
    auto id = *sim.createVCore(1, 1); // not in the coarse space
    EXPECT_THROW(CashRuntime(sim, id, QosKind::Throughput, 0.4,
                             coarse, cost, RuntimeParams{}, 7),
                 FatalError);
}

TEST(Runtime, ZeroQuantumFatal)
{
    ConfigSpace space;
    CostModel cost;
    SSim sim;
    auto id = *sim.createVCore(1, 1);
    RuntimeParams rp;
    rp.quantum = 0;
    EXPECT_THROW(CashRuntime(sim, id, QosKind::Throughput, 0.4,
                             space, cost, rp, 7),
                 FatalError);
}

TEST(Runtime, WorksOnCoarseGrainSpace)
{
    // The big.LITTLE space of Sec VI-E: the runtime must drive a
    // two-point space without touching grid-only features.
    ConfigSpace coarse(
        std::vector<VCoreConfig>{{1, 2}, {8, 64}});
    CostModel cost;
    SSim sim;
    auto id = *sim.createVCore(1, 2);
    PhasedTraceSource inner({steadyPhase()}, 5, true, 0);
    PacedSource paced(inner, 0.5);
    sim.vcore(id).bindSource(&paced);
    RuntimeParams rp;
    rp.quantum = 400'000;
    CashRuntime rt(sim, id, QosKind::Throughput, 0.5, coarse, cost,
                   rp, 7);
    for (int i = 0; i < 20; ++i) {
        QuantumStats st = rt.step();
        EXPECT_LT(st.schedule.over, coarse.size());
        EXPECT_LT(st.schedule.under, coarse.size());
    }
    EXPECT_GT(rt.totalSamples(), 10u);
}

/**
 * With DVFS on, quanta 1..kNumPStates-1 each probe one P-state. A
 * probe's reading is an experiment, not plant feedback, so the
 * quantum after each probe leaves the Kalman estimate where it was;
 * the first quantum after the probe window moves it again.
 */
TEST(Runtime, DvfsProbeReadingsSkipTheEstimator)
{
    Rig rig(0.4, 400'000, /*dvfs=*/true);
    std::vector<double> b_hat; // the estimate each quantum used
    std::vector<std::uint32_t> pstate;
    for (std::uint32_t q = 0; q <= kNumPStates + 1; ++q) {
        QuantumStats st = rig.runtime->step();
        b_hat.push_back(st.baseEstimate);
        pstate.push_back(st.pstate);
    }
    for (std::uint32_t q = 1; q < kNumPStates; ++q)
        ASSERT_EQ(pstate[q], q) << "quantum " << q << " probes";
    for (std::uint32_t q = 2; q <= kNumPStates; ++q)
        EXPECT_EQ(b_hat[q], b_hat[q - 1]) << "quantum " << q;
    EXPECT_NE(b_hat[1], b_hat[0]);
    EXPECT_NE(b_hat[kNumPStates + 1], b_hat[kNumPStates]);
}

TEST(Runtime, LearnerTracksVisitedConfigs)
{
    Rig rig(0.4);
    for (int i = 0; i < 25; ++i)
        rig.runtime->step();
    // At least the configs used by the schedule must be visited.
    std::size_t visited = 0;
    for (std::size_t k = 0; k < rig.space.size(); ++k)
        visited += rig.runtime->learner().visited(k);
    EXPECT_GE(visited, 2u);
}

} // namespace
} // namespace cash
