/**
 * @file
 * The cloud provider layer: admission verdicts, arbiter policy
 * (ordering, partial grants, compaction pacing), end-to-end
 * CloudProvider determinism and accounting, and the provider
 * auditors (including the leaked-holding mutation test).
 */

#include <gtest/gtest.h>

#include "check/audit.hh"
#include "check/invariant.hh"
#include "cloud/provider.hh"

namespace cash::cloud
{
namespace
{

/** A tight chip: 8 Slices (7 sellable), 32 banks. */
FabricParams
tinyFabric()
{
    FabricParams f;
    f.sliceCols = 1;
    f.bankCols = 4;
    f.rows = 8;
    return f;
}

ProviderParams
tinyParams(Provisioning prov, std::uint64_t seed = 42)
{
    ProviderParams p;
    p.fabric = tinyFabric();
    p.provisioning = prov;
    p.seed = seed;
    p.arrivalProb = 0.6;
    p.meanResidenceRounds = 12.0;
    return p;
}

// --- Admission -------------------------------------------------

TEST(Admission, VerdictsFollowCapacity)
{
    FabricGrid grid(tinyFabric());
    FabricAllocator alloc(grid);
    auto judge = &AdmissionController::judge;

    // Empty fabric: everything that can ever fit is admitted.
    EXPECT_EQ(judge({2, 4}, alloc, 0), AdmissionVerdict::Admit);

    // The reserved runtime Slice (modelled here by just filling the
    // chip) makes an 8-Slice request impossible on an 8-Slice grid.
    EXPECT_EQ(judge({8, 4}, alloc, 0), AdmissionVerdict::Reject);

    // Fill the fabric; further arrivals queue until the queue is
    // full, then reject.
    ASSERT_TRUE(alloc.allocate(7, 32).has_value());
    EXPECT_EQ(judge({1, 1}, alloc, 0), AdmissionVerdict::Queue);
    EXPECT_EQ(judge({1, 1}, alloc, kAdmissionQueueLimit),
              AdmissionVerdict::Reject);
}

// --- Arbiter ---------------------------------------------------

TEST(Arbiter, GrantOrderIsDeficitThenPriceThenId)
{
    FabricArbiter arb;
    std::vector<GrantCandidate> cands = {
        {0, 0.0, 0.05},
        {1, 0.2, 0.01},
        {2, 0.0, 0.09},
        {3, 0.2, 0.01},
    };
    std::vector<TenantId> order = arb.grantOrder(cands);
    // Deficit 0.2 first (ids 1,3 tie on price -> id order), then
    // the satisfied tenants by price.
    EXPECT_EQ(order, (std::vector<TenantId>{1, 3, 2, 0}));
}

TEST(Arbiter, ShrinksAlwaysPassAndExpandsClampToCapacity)
{
    FabricGrid grid(tinyFabric());
    FabricAllocator alloc(grid);
    FabricArbiter arb;

    // Occupy most of the chip: 5 Slices, 28 banks -> 3 Slices and
    // 4 banks free.
    ASSERT_TRUE(alloc.allocate(5, 28).has_value());

    // A shrink passes untouched even on a full chip.
    GrantDecision d =
        arb.decide({3, 8}, {1, 2}, alloc, 0);
    EXPECT_EQ(d.kind, GrantKind::Full);
    EXPECT_EQ(d.granted, (VCoreConfig{1, 2}));

    // An expand beyond free capacity is clamped: held {1,2} plus
    // 3 free Slices caps at the 4-Slice instance limit; held 2 + 4
    // free banks = 6 reachable, pow2-floored to 4.
    d = arb.decide({1, 2}, {4, 16}, alloc, 0);
    EXPECT_EQ(d.kind, GrantKind::Partial);
    EXPECT_EQ(d.granted, (VCoreConfig{4, 4}));

    // Nothing free at all: the demand resolves to current holdings.
    ASSERT_TRUE(alloc.allocate(3, 4).has_value());
    d = arb.decide({1, 2}, {2, 4}, alloc, 0);
    EXPECT_EQ(d.kind, GrantKind::Denied);
    EXPECT_EQ(d.granted, (VCoreConfig{1, 2}));
}

// --- CloudProvider ---------------------------------------------

TEST(CloudProvider, ZeroQuantumIsFatalAtConstruction)
{
    ProviderParams p = tinyParams(Provisioning::FineGrain);
    p.quantum = 0;
    EXPECT_THROW(CloudProvider{p}, FatalError);
    // Every scheme steps its tenants by the quantum.
    p.provisioning = Provisioning::StaticPeak;
    EXPECT_THROW(CloudProvider{p}, FatalError);
}

TEST(CloudProvider, DeterministicAcrossInstances)
{
    ProviderParams p = tinyParams(Provisioning::FineGrain, 7);
    CloudProvider a(p);
    CloudProvider b(p);
    a.run(20);
    b.run(20);
    EXPECT_EQ(a.stats().arrivals, b.stats().arrivals);
    EXPECT_EQ(a.stats().admitted, b.stats().admitted);
    EXPECT_EQ(a.stats().departed, b.stats().departed);
    EXPECT_EQ(a.tenants().size(), b.tenants().size());
    EXPECT_DOUBLE_EQ(a.revenue(), b.revenue());
    EXPECT_DOUBLE_EQ(a.qosDelivery(), b.qosDelivery());
}

TEST(CloudProvider, AuditsStayCleanWhileRunning)
{
    for (Provisioning prov :
         {Provisioning::FineGrain, Provisioning::StaticPeak,
          Provisioning::CoarseGrain}) {
        CloudProvider p(tinyParams(prov));
        for (int round = 0; round < 24; ++round) {
            p.step();
            ASSERT_NO_THROW(auditProvider(p))
                << provisioningName(prov) << " round " << round;
        }
        EXPECT_GT(p.stats().arrivals, 0u);
        EXPECT_GT(p.stats().admitted, 0u);
    }
}

TEST(CloudProvider, InjectionHooksDriveTheLifecycle)
{
    ProviderParams p = tinyParams(Provisioning::FineGrain);
    p.arrivalProb = 0.0; // arrivals only through injection
    CloudProvider prov(p);

    TenantId a = prov.injectArrival(0, 8);
    ASSERT_NE(a, invalidTenant);
    EXPECT_EQ(prov.tenants()[a]->state, TenantState::Active);
    std::uint32_t held_slices =
        prov.chip().allocator().grid().numSlices()
        - prov.chip().allocator().freeSlices();
    EXPECT_GT(held_slices, 1u); // runtime Slice + the tenant

    EXPECT_TRUE(prov.injectDeparture(a));
    EXPECT_EQ(prov.tenants()[a]->state, TenantState::Departed);
    // All tenant tiles returned; only the runtime Slice stays.
    EXPECT_EQ(prov.chip().allocator().grid().numSlices()
                  - prov.chip().allocator().freeSlices(),
              1u);
    EXPECT_FALSE(prov.injectDeparture(a)); // already gone
    EXPECT_EQ(prov.injectArrival(999, 8), invalidTenant);
    ASSERT_NO_THROW(auditProvider(prov));
}

TEST(CloudProvider, QueuedArrivalsAdmitOnceCapacityFrees)
{
    ProviderParams p = tinyParams(Provisioning::StaticPeak);
    p.arrivalProb = 0.0;
    // Class 10 (x264) peaks at {3,16}: two fit the 7 sellable
    // Slices, the third queues.
    CloudProvider prov(p);
    TenantId a = prov.injectArrival(10, 50);
    TenantId b = prov.injectArrival(10, 50);
    TenantId c = prov.injectArrival(10, 50);
    EXPECT_EQ(prov.tenants()[a]->state, TenantState::Active);
    EXPECT_EQ(prov.tenants()[b]->state, TenantState::Active);
    EXPECT_EQ(prov.tenants()[c]->state, TenantState::Queued);
    ASSERT_NO_THROW(auditProvider(prov));

    // Free capacity; the next round's queue pass admits c.
    EXPECT_TRUE(prov.injectDeparture(a));
    prov.step();
    EXPECT_EQ(prov.tenants()[c]->state, TenantState::Active);
    ASSERT_NO_THROW(auditProvider(prov));
}

TEST(CloudProvider, FineGrainHostsMoreThanStaticPeak)
{
    // The consolidation claim in miniature: on the same tight chip
    // with the same arrival stream, admitting at the minimum
    // configuration hosts strictly more tenant-rounds than
    // reserving every tenant's peak.
    ProviderParams fine = tinyParams(Provisioning::FineGrain, 11);
    ProviderParams peak = tinyParams(Provisioning::StaticPeak, 11);
    CloudProvider a(fine);
    CloudProvider b(peak);
    a.run(24);
    b.run(24);
    EXPECT_GT(a.stats().tenantRounds, b.stats().tenantRounds);
    EXPECT_LE(a.stats().rejected + a.stats().abandoned,
              b.stats().rejected + b.stats().abandoned);
}

TEST(CloudProvider, SampledTwinTracksFullLifecycle)
{
    // Twin-run property of sampled simulation (sim/sampler.hh):
    // under StaticPeak the admission verdicts depend only on the
    // seeded arrival process and capacity, which sampling leaves
    // exact. The same seed must therefore produce the identical
    // admit/reject/depart lifecycle and the same bill sequence,
    // with only the `estimated` marker differing. Bills agree to
    // the clock, not to the bit: each round bills the vcore's
    // actual elapsed cycles, and the detailed loop may overshoot
    // the 500k-cycle quantum boundary by a handful of cycles where
    // fast-forward lands exactly on it — a few cycles in 500'000
    // per round, so <= 1e-4 relative on the integral.
    auto run = [](SimMode mode) {
        ProviderParams p = tinyParams(Provisioning::StaticPeak, 77);
        p.simMode = mode;
        CloudProvider prov(p);
        prov.run(48);
        auditProvider(prov);
        ProviderStats st = prov.stats();
        std::vector<FinalBill> bills = prov.drain();
        return std::make_pair(st, bills);
    };
    auto [full_st, full_bills] = run(SimMode::Full);
    auto [samp_st, samp_bills] = run(SimMode::Sampled);

    EXPECT_EQ(full_st.admitted, samp_st.admitted);
    EXPECT_EQ(full_st.rejected, samp_st.rejected);
    EXPECT_EQ(full_st.abandoned, samp_st.abandoned);
    EXPECT_EQ(full_st.departed, samp_st.departed);
    EXPECT_EQ(full_st.tenantRounds, samp_st.tenantRounds);

    ASSERT_FALSE(full_bills.empty());
    ASSERT_EQ(full_bills.size(), samp_bills.size());
    for (std::size_t i = 0; i < full_bills.size(); ++i) {
        EXPECT_EQ(full_bills[i].tenant, samp_bills[i].tenant);
        EXPECT_EQ(full_bills[i].app, samp_bills[i].app);
        EXPECT_NEAR(full_bills[i].bill, samp_bills[i].bill,
                    1e-4 * (1.0 + full_bills[i].bill));
        EXPECT_FALSE(full_bills[i].estimated);
        EXPECT_TRUE(samp_bills[i].estimated);
    }
}

// --- Mutation test ---------------------------------------------

TEST(CloudProviderMutation, LeakedHoldingIsCaught)
{
    if (!invariantsEnabled)
        GTEST_SKIP() << "requires -DCASH_CHECK_INVARIANTS=ON";

    ProviderParams p = tinyParams(Provisioning::FineGrain);
    p.arrivalProb = 0.0;
    CloudProvider prov(p);
    TenantId a = prov.injectArrival(0, 8);
    ASSERT_EQ(prov.tenants()[a]->state, TenantState::Active);

    setInjectedFault(Fault::ProviderLeakHolding);
    EXPECT_TRUE(prov.injectDeparture(a));
    setInjectedFault(Fault::None);

    // The departed tenant's vcore was never released: tenant-held
    // tiles no longer sum to the allocator's books.
    EXPECT_THROW(auditProvider(prov), InvariantError);
}

} // namespace
} // namespace cash::cloud
