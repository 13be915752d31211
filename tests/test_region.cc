/**
 * @file
 * The multi-chip region: tenant id encoding, the placement router's
 * policies and triggers, RegionCore request semantics
 * (placement-routed arrivals, cross-shard migration, merged
 * snapshots, aggregated drains), the migration billing algebra, and
 * the threaded epoll server running a real 4-shard region over
 * loopback sockets — answering a single client byte for byte like
 * RegionCore.
 *
 * The billing tests pin the economics the region must preserve: a
 * migrated tenant's final bill equals the stay-put bill plus exactly
 * the billed migration stall, and auditProvider holds on BOTH shards
 * after every move.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "check/audit.hh"
#include "cloud/placement.hh"
#include "cloud/provider.hh"
#include "common/log.hh"
#include "service/client.hh"
#include "service/protocol.hh"
#include "service/region.hh"
#include "service/server.hh"

namespace cash::service
{
namespace
{

/** The tiny FineGrain chip the service tests run on: 8 Slices
 *  (7 sellable), 32 banks, deterministic (no stochastic arrivals). */
cloud::ProviderParams
tinyRegionParams(std::uint64_t seed = 7)
{
    FabricParams f;
    f.sliceCols = 1;
    f.bankCols = 4;
    f.rows = 8;
    cloud::ProviderParams p;
    p.fabric = f;
    p.provisioning = cloud::Provisioning::FineGrain;
    p.quantum = 50'000;
    p.arrivalProb = 0.0;
    p.seed = seed;
    return p;
}

std::string
testSocketPath(const char *tag)
{
    return strfmt("/tmp/cash_test_region.%d.%s.sock",
                  static_cast<int>(::getpid()), tag);
}

// --- Region tenant ids ------------------------------------------

TEST(RegionIds, EncodeDecodeRoundTrip)
{
    EXPECT_EQ(cloud::regionTenantId(0, 42), 42u);
    EXPECT_EQ(cloud::tenantShard(42), 0u);
    std::uint32_t id = cloud::regionTenantId(3, 17);
    EXPECT_EQ(cloud::tenantShard(id), 3u);
    EXPECT_EQ(cloud::tenantLocal(id), 17u);
    // The top byte is the shard: shard-0 ids equal local ids, so a
    // one-shard region speaks the legacy protocol unchanged.
    EXPECT_EQ(id, (3u << cloud::kShardShift) | 17u);
}

// --- Placement router -------------------------------------------

cloud::ShardLoad
loadWith(std::uint32_t free_slices, std::uint64_t round = 0,
         double frag = 0.0, std::uint32_t active = 0)
{
    cloud::ShardLoad l;
    l.freeSlices = free_slices;
    l.freeBanks = 32;
    l.totalSlices = 8;
    l.totalBanks = 32;
    l.fragmentation = frag;
    l.active = active;
    l.round = round;
    return l;
}

TEST(Router, BinPackPrefersTightestFitSpreadPrefersEmptiest)
{
    VCoreConfig entry{2, 2};
    std::vector<cloud::ShardLoad> loads = {loadWith(5),
                                           loadWith(3)};

    cloud::PlacementRouter binpack(
        2, cloud::PlacementPolicy::BinPack, {});
    // Both fit a 2-Slice entry; binpack takes the fuller shard.
    EXPECT_EQ(binpack.chooseShard(entry, loads), 1u);

    cloud::PlacementRouter spread(2, cloud::PlacementPolicy::Spread,
                                  {});
    EXPECT_EQ(spread.chooseShard(entry, loads), 0u);
}

TEST(Router, NoFitFallsBackToEmptiestShard)
{
    VCoreConfig entry{7, 2};
    std::vector<cloud::ShardLoad> loads = {loadWith(3),
                                           loadWith(5)};
    cloud::PlacementRouter binpack(
        2, cloud::PlacementPolicy::BinPack, {});
    // Nothing fits: the emptiest shard takes the arrival and its
    // own admission queue/reject path applies.
    EXPECT_EQ(binpack.chooseShard(entry, loads), 1u);
}

TEST(Router, FragmentationTriggerPlansMigrationWithCooldown)
{
    cloud::RebalanceParams rb;
    rb.fragThreshold = 2.0;
    rb.imbalanceThreshold = 0.0; // disabled
    rb.cooldownRounds = 8;
    cloud::PlacementRouter router(
        2, cloud::PlacementPolicy::BinPack, rb);

    std::vector<cloud::ShardLoad> loads = {
        loadWith(2, /*round=*/20, /*frag=*/3.5, /*active=*/3),
        loadWith(7, /*round=*/20)};
    auto plan = router.maybeRebalanceFrom(0, loads);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->from, 0u);
    EXPECT_EQ(plan->to, 1u);
    EXPECT_STREQ(plan->reason, "frag");

    // Cooldown: the same shard may not plan again immediately...
    EXPECT_FALSE(router.maybeRebalanceFrom(0, loads).has_value());
    // ...but fires again once the cooldown rounds have passed.
    loads[0].round = loads[1].round = 40;
    EXPECT_TRUE(router.maybeRebalanceFrom(0, loads).has_value());
}

TEST(Router, ImbalanceTriggerMovesFromFullToEmpty)
{
    cloud::RebalanceParams rb;
    rb.fragThreshold = 0.0; // disabled
    rb.imbalanceThreshold = 0.5;
    rb.cooldownRounds = 0;
    cloud::PlacementRouter router(
        2, cloud::PlacementPolicy::BinPack, rb);

    std::vector<cloud::ShardLoad> loads = {
        loadWith(1, /*round=*/5, /*frag=*/0.0, /*active=*/4),
        loadWith(7, /*round=*/5)};
    auto plan = router.maybeRebalanceFrom(0, loads);
    ASSERT_TRUE(plan.has_value());
    EXPECT_EQ(plan->from, 0u);
    EXPECT_EQ(plan->to, 1u);
    EXPECT_STREQ(plan->reason, "imbalance");
    // Only the crowded end sheds: the empty shard plans nothing.
    EXPECT_FALSE(router.maybeRebalanceFrom(1, loads).has_value());

    // A balanced region plans nothing.
    std::vector<cloud::ShardLoad> even = {
        loadWith(4, 5, 0.0, 2), loadWith(4, 5, 0.0, 2)};
    EXPECT_FALSE(router.maybeRebalanceFrom(0, even).has_value());
}

// --- Request grammar (region ops) -------------------------------

std::optional<Request>
parseDoc(const std::string &doc, std::string *code = nullptr)
{
    auto v = parseJson(doc);
    EXPECT_TRUE(v.has_value()) << doc;
    std::string c, detail;
    std::uint64_t id = 0;
    auto req = parseRequest(*v, &c, &detail, &id);
    if (code)
        *code = c;
    return req;
}

TEST(Grammar, RegionOpsParseAndRejectGarbage)
{
    auto mig =
        parseDoc("{\"id\":1,\"op\":\"migrate\",\"tenant\":7}");
    ASSERT_TRUE(mig.has_value());
    EXPECT_EQ(mig->op, Op::Migrate);
    EXPECT_EQ(mig->tenant, 7u);
    EXPECT_EQ(mig->to, Request::kAutoShard);

    auto to = parseDoc(
        "{\"id\":1,\"op\":\"migrate\",\"tenant\":7,\"to\":3}");
    ASSERT_TRUE(to.has_value());
    EXPECT_EQ(to->to, 3u);

    EXPECT_EQ(parseDoc("{\"id\":1,\"op\":\"shards\"}")->op,
              Op::Shards);

    std::string code;
    // The region reads are snapshot and shards.
    for (const char *gone : {"region_snapshot", "region_energy"}) {
        EXPECT_FALSE(parseDoc(strfmt("{\"id\":1,\"op\":\"%s\"}",
                                     gone),
                              &code)
                         .has_value());
        EXPECT_EQ(code, errors::UnknownOp) << gone;
    }
    // migrate without a tenant is malformed, not unknown-tenant.
    EXPECT_FALSE(
        parseDoc("{\"id\":1,\"op\":\"migrate\"}", &code)
            .has_value());
    EXPECT_EQ(code, errors::BadRequest);
    // The region id encoding caps targets at one byte.
    EXPECT_FALSE(parseDoc("{\"id\":1,\"op\":\"migrate\","
                          "\"tenant\":7,\"to\":256}",
                          &code)
                     .has_value());
    EXPECT_EQ(code, errors::BadRequest);
    EXPECT_FALSE(parseDoc("{\"id\":1,\"op\":\"migrate\","
                          "\"tenant\":\"x\"}",
                          &code)
                     .has_value());
    EXPECT_EQ(code, errors::BadRequest);
}

// --- RegionCore semantics ---------------------------------------

JsonValue
applyOp(RegionCore &region, Op op, std::uint32_t tenant = 0,
        std::uint32_t quanta = 0)
{
    static std::uint64_t next_id = 1;
    Request r;
    r.id = next_id++;
    r.op = op;
    r.tenant = tenant;
    if (quanta)
        r.quanta = quanta;
    return region.apply(r);
}

std::uint32_t
arriveOn(RegionCore &region, std::uint32_t cls = 0,
         std::uint32_t residence = 200)
{
    Request r;
    r.id = 999;
    r.op = Op::Arrive;
    r.cls = cls;
    r.residence = residence;
    JsonValue resp = region.apply(r);
    EXPECT_EQ(resp.getBool("ok"), true);
    auto t = resp.getUint("tenant");
    EXPECT_TRUE(t.has_value());
    return static_cast<std::uint32_t>(t.value_or(0));
}

TEST(RegionCoreTest, ArriveCarriesShardAndTenantOpsFollowIt)
{
    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/true);

    Request a;
    a.id = 1;
    a.op = Op::Arrive;
    a.cls = 0;
    a.residence = 100;
    JsonValue resp = region.apply(a);
    ASSERT_EQ(resp.getBool("ok"), true);
    auto tenant = resp.getUint("tenant");
    ASSERT_TRUE(tenant.has_value());
    auto shard = resp.getUint("shard");
    ASSERT_TRUE(shard.has_value());
    EXPECT_EQ(cloud::tenantShard(
                  static_cast<std::uint32_t>(*tenant)),
              *shard);

    std::uint32_t id = static_cast<std::uint32_t>(*tenant);
    JsonValue q = applyOp(region, Op::Query, id);
    EXPECT_EQ(q.getBool("ok"), true);
    EXPECT_EQ(q.getString("state"), "active");
    // The echoed id is the region id, not the shard-local one.
    EXPECT_EQ(q.getUint("tenant"), *tenant);

    // A tenant id naming a shard outside the region is refused
    // without touching any provider.
    JsonValue bad = applyOp(region, Op::Query,
                            cloud::regionTenantId(9, 0));
    EXPECT_EQ(bad.getBool("ok"), false);
    EXPECT_EQ(bad.getString("error"), errors::UnknownTenant);

    JsonValue d = applyOp(region, Op::Depart, id);
    EXPECT_EQ(d.getBool("ok"), true);
    EXPECT_EQ(d.getString("state"), "departed");
}

TEST(RegionCoreTest, ExplicitMigrateMovesTenantAcrossShards)
{
    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/true);
    std::uint32_t id = arriveOn(region);
    std::uint32_t from = cloud::tenantShard(id);
    applyOp(region, Op::Step, 0, 2);

    Request m;
    m.id = 50;
    m.op = Op::Migrate;
    m.tenant = id;
    m.to = 1 - from;
    JsonValue resp = region.apply(m);
    ASSERT_EQ(resp.getBool("ok"), true);
    auto moved = resp.getUint("tenant");
    ASSERT_TRUE(moved.has_value());
    std::uint32_t new_id = static_cast<std::uint32_t>(*moved);
    EXPECT_EQ(cloud::tenantShard(new_id), 1 - from);
    EXPECT_EQ(resp.getUint("from"), from);
    EXPECT_EQ(resp.getUint("to"), 1u - from);
    EXPECT_GT(resp.getUint("stall_cycles").value_or(0), 0u);
    EXPECT_EQ(region.stats().migrations, 1u);

    // The tenant answers queries under its new id; the old id
    // remains queryable but reports the migrated tombstone (query
    // is informational, like for departed tenants).
    EXPECT_EQ(applyOp(region, Op::Query, new_id).getString("state"),
              "active");
    EXPECT_EQ(applyOp(region, Op::Query, id).getString("state"),
              "migrated");
    // Departing the tombstone is refused: the bill moved with it.
    EXPECT_EQ(applyOp(region, Op::Depart, id).getBool("ok"),
              false);

    // Both shards stay audit-clean across further rounds (the
    // region was built with audit_each_quantum, so every step
    // re-audits every shard).
    applyOp(region, Op::Step, 0, 3);
    for (std::uint32_t s = 0; s < region.shards(); ++s)
        auditProvider(region.provider(s));
}

TEST(RegionCoreTest, MigrateErrorsAreDiagnosable)
{
    RegionCore one(tinyRegionParams(), 1,
                   /*audit_each_quantum=*/false);
    std::uint32_t id = arriveOn(one);
    JsonValue resp = applyOp(one, Op::Migrate, id);
    EXPECT_EQ(resp.getBool("ok"), false);
    EXPECT_EQ(resp.getString("error"), errors::BadRequest);

    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/false);
    std::uint32_t t = arriveOn(region);
    // Explicit target outside the region.
    Request m;
    m.id = 9;
    m.op = Op::Migrate;
    m.tenant = t;
    m.to = 7;
    EXPECT_EQ(region.apply(m).getString("error"),
              errors::BadRequest);
    // Migrating onto the shard the tenant already occupies.
    m.to = cloud::tenantShard(t);
    EXPECT_EQ(region.apply(m).getString("error"),
              errors::BadRequest);
    // Unknown tenant.
    m.tenant = cloud::regionTenantId(1, 7777);
    m.to = Request::kAutoShard;
    EXPECT_EQ(region.apply(m).getString("error"),
              errors::UnknownTenant);
}

TEST(RegionCoreTest, SnapshotAndShardsMergeAcrossTheRegion)
{
    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/false);
    std::uint32_t a = arriveOn(region);
    std::uint32_t b = arriveOn(region);
    (void)a;
    (void)b;
    applyOp(region, Op::Step, 0, 2);

    JsonValue snap = applyOp(region, Op::Snapshot);
    EXPECT_EQ(snap.getBool("ok"), true);
    EXPECT_EQ(snap.getUint("shards"), 2u);
    EXPECT_EQ(snap.getUint("active"), 2u);
    EXPECT_EQ(snap.getUint("round"), 2u);
    EXPECT_EQ(snap.getBool("draining"), false);

    JsonValue sh = applyOp(region, Op::Shards);
    EXPECT_EQ(sh.getBool("ok"), true);
    EXPECT_EQ(sh.getUint("shards"), 2u);
    EXPECT_EQ(sh.getString("placement"), "binpack");
    const JsonValue *info = sh.find("shard_info");
    ASSERT_NE(info, nullptr);
    ASSERT_EQ(info->items().size(), 2u);
    EXPECT_EQ(info->items()[0].getUint("shard"), 0u);
    EXPECT_EQ(info->items()[1].getUint("shard"), 1u);
    const JsonValue *routed = sh.find("routed");
    ASSERT_NE(routed, nullptr);
    double routed_total = 0;
    for (const JsonValue &n : routed->items())
        routed_total += n.number();
    EXPECT_EQ(routed_total, 2.0);
}

TEST(RegionCoreTest, RoutedCountsOnlyArrivalsAShardApplied)
{
    // An arrive refused after routing (here `draining`) is not an
    // arrival: `routed` must equal every shard's own count.
    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/false);
    arriveOn(region);
    applyOp(region, Op::Drain);
    Request late;
    late.id = 1000;
    late.op = Op::Arrive;
    late.residence = 200;
    EXPECT_EQ(region.apply(late).getString("error"), errors::Draining);

    JsonValue rs = applyOp(region, Op::Shards);
    const JsonValue *routed = rs.find("routed");
    const JsonValue *per = rs.find("shard_info");
    ASSERT_NE(routed, nullptr);
    ASSERT_NE(per, nullptr);
    ASSERT_EQ(routed->items().size(), 2u);
    ASSERT_EQ(per->items().size(), 2u);
    for (std::size_t s = 0; s < 2; ++s)
        EXPECT_EQ(routed->items()[s].number(),
                  per->items()[s].getNumber("arrivals").value_or(-1))
            << "shard " << s << ": " << rs.dump();
}

TEST(RegionCoreTest, ShardsPartsAddUpToTheSnapshot)
{
    // shards lists the very parts snapshot sums, so every summed
    // snapshot field is the exact sum of the shard_info parts.
    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/false,
                      cloud::PlacementPolicy::Spread);
    std::uint32_t t = arriveOn(region);
    arriveOn(region, 1);
    arriveOn(region, 2);
    applyOp(region, Op::Step, 0, 2);
    applyOp(region, Op::Depart, t);
    applyOp(region, Op::Step, 0, 1);

    JsonValue snap = applyOp(region, Op::Snapshot);
    JsonValue sh = applyOp(region, Op::Shards);
    ASSERT_EQ(snap.getBool("ok"), true);
    ASSERT_EQ(sh.getBool("ok"), true);
    const JsonValue *info = sh.find("shard_info");
    ASSERT_NE(info, nullptr);
    ASSERT_EQ(info->items().size(), 2u);
    // Spread put arrivals on both shards.
    for (const JsonValue &p : info->items())
        EXPECT_GT(p.getUint("arrivals").value_or(0), 0u) << sh.dump();

    // Summed in shard order, as the merge does, so doubles match
    // exactly too.
    for (const char *key :
         {"active", "queued", "arrivals", "admitted", "rejected",
          "abandoned", "departed", "free_slices", "free_banks",
          "sla_samples", "sla_violations", "migrated_in",
          "migrated_out", "revenue", "joules", "energy_revenue"}) {
        double sum = 0.0;
        for (const JsonValue &p : info->items()) {
            ASSERT_TRUE(p.getNumber(key).has_value()) << key;
            sum += *p.getNumber(key);
        }
        EXPECT_EQ(sum, snap.getNumber(key)) << key;
    }
    EXPECT_EQ(snap.getUint("departed"), 1u);
    EXPECT_GT(snap.getNumber("joules").value_or(0.0), 0.0);
    for (const JsonValue &p : info->items())
        for (const char *key : {"fragmentation", "departed_joules",
                                "exported_joules", "overhead_joules"})
            EXPECT_TRUE(p.getNumber(key).has_value())
                << key << " missing: " << p.dump();
}

TEST(RegionCoreTest, DrainAggregatesAuditedBills)
{
    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/true);
    // Force one tenant onto each shard so the drain genuinely
    // aggregates.
    std::uint32_t a = arriveOn(region);
    Request m;
    m.id = 5;
    m.op = Op::Migrate;
    m.tenant = arriveOn(region);
    m.to = 1 - cloud::tenantShard(a);
    ASSERT_EQ(region.apply(m).getBool("ok"), true);
    applyOp(region, Op::Step, 0, 3);

    JsonValue report = applyOp(region, Op::Drain);
    ASSERT_EQ(report.getBool("ok"), true);
    const JsonValue *bills = report.find("bills");
    ASSERT_NE(bills, nullptr);
    EXPECT_EQ(bills->items().size(), 2u);
    EXPECT_EQ(report.getUint("departed"), 2u);
    double total = 0.0;
    bool saw_both_shards[2] = {false, false};
    for (const JsonValue &row : bills->items()) {
        total += row.getNumber("bill").value_or(0.0);
        auto shard = row.getUint("shard");
        ASSERT_TRUE(shard.has_value());
        saw_both_shards[*shard] = true;
        // Row ids carry the owning shard in the top byte.
        EXPECT_EQ(cloud::tenantShard(static_cast<std::uint32_t>(
                      row.getUint("tenant").value_or(0))),
                  *shard);
    }
    EXPECT_TRUE(saw_both_shards[0]);
    EXPECT_TRUE(saw_both_shards[1]);
    EXPECT_NEAR(report.getNumber("revenue").value_or(-1.0), total,
                1e-9);
    EXPECT_TRUE(region.draining());
}

TEST(RegionCoreTest, RebalanceTriggerMigratesOffTheLoadedShard)
{
    // BinPack packs every arrival onto one shard; with an
    // aggressive imbalance trigger the first steps must plan a
    // migration off it.
    cloud::RebalanceParams rb;
    rb.fragThreshold = 0.0;
    rb.imbalanceThreshold = 0.05;
    rb.cooldownRounds = 0;
    RegionCore region(tinyRegionParams(), 2,
                      /*audit_each_quantum=*/true,
                      cloud::PlacementPolicy::BinPack, rb);
    for (int i = 0; i < 3; ++i)
        arriveOn(region, 0, 300);
    for (int i = 0; i < 6 && region.stats().rebalances == 0; ++i)
        applyOp(region, Op::Step, 0, 1);

    EXPECT_GE(region.stats().rebalances, 1u);
    EXPECT_GE(region.stats().migrations, 1u);
    EXPECT_GE(region.provider(1).activeTenants().size(), 1u);
    for (std::uint32_t s = 0; s < region.shards(); ++s)
        auditProvider(region.provider(s));
}

// --- Migration billing algebra ----------------------------------

TEST(MigrationBilling, MigratedBillIsStayPutBillPlusStall)
{
    // Twin runs under StaticPeak (constant holdings, so the bill
    // is a pure function of rounds held): `stay` keeps the tenant
    // on one chip; `src`/`dst` migrate it after 3 rounds. The final
    // bills must differ by exactly the billed migration stall.
    cloud::ProviderParams params = tinyRegionParams(11);
    params.provisioning = cloud::Provisioning::StaticPeak;

    cloud::CloudProvider stay(params);
    cloud::CloudProvider src(params);
    cloud::CloudProvider dst(params);

    cloud::TenantId stay_id = stay.injectArrival(0, 100);
    cloud::TenantId src_id = src.injectArrival(0, 100);
    ASSERT_EQ(stay.tenants()[stay_id]->state,
              cloud::TenantState::Active);

    for (int i = 0; i < 3; ++i) {
        stay.step();
        src.step();
        dst.step();
    }
    double bill_at_move = src.tenants()[src_id]->bill();
    EXPECT_NEAR(stay.tenants()[stay_id]->bill(), bill_at_move,
                1e-9);

    auto snap = src.migrateOut(src_id);
    ASSERT_TRUE(snap.has_value());
    EXPECT_GT(snap->stallCycles, 0u);
    double stall_cost = snap->migratedBill - bill_at_move;
    EXPECT_GT(stall_cost, 0.0);
    EXPECT_EQ(src.tenants()[src_id]->state,
              cloud::TenantState::Migrated);

    cloud::TenantId dst_id = dst.migrateIn(*snap);
    auditProvider(src);
    auditProvider(dst);

    for (int i = 0; i < 4; ++i) {
        stay.step();
        dst.step();
    }
    // Same class, same held configuration, same rounds: the only
    // difference is the stall the migration billed.
    EXPECT_NEAR(dst.tenants()[dst_id]->bill(),
                stay.tenants()[stay_id]->bill() + stall_cost,
                1e-6);
    auditProvider(src);
    auditProvider(dst);
}

TEST(MigrationBilling, AuditHoldsOnBothShardsUnderFineGrain)
{
    // FineGrain lets the runtime resize the migrant, so this pins
    // the general audit identity rather than exact bill equality.
    cloud::ProviderParams params = tinyRegionParams(13);
    cloud::CloudProvider src(params);
    cloud::CloudProvider dst(params);

    cloud::TenantId a = src.injectArrival(0, 200);
    src.injectArrival(1 % src.params().catalog.size(), 200);
    for (int i = 0; i < 4; ++i) {
        src.step();
        dst.step();
    }
    ASSERT_EQ(src.tenants()[a]->state, cloud::TenantState::Active);
    auto snap = src.migrateOut(a);
    ASSERT_TRUE(snap.has_value());
    dst.migrateIn(*snap);
    auditProvider(src);
    auditProvider(dst);
    for (int i = 0; i < 6; ++i) {
        src.step();
        dst.step();
        auditProvider(src);
        auditProvider(dst);
    }
    EXPECT_EQ(src.stats().migratedOut, 1u);
    EXPECT_EQ(dst.stats().migratedIn, 1u);
}

// --- The threaded region server ---------------------------------

TEST(RegionServer, FourShardsOverLoopbackWithWireMigration)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("region");
    sc.audit = true;
    sc.shards = 4;
    sc.rebalance.enabled = false; // explicit migrations only
    ServiceServer server(tinyRegionParams(), sc);
    server.start();

    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        EXPECT_EQ(client.ping().getBool("ok"), true);

        std::vector<std::uint32_t> tenants;
        for (int i = 0; i < 6; ++i) {
            JsonValue resp = client.arrive(0, 300);
            ASSERT_EQ(resp.getBool("ok"), true);
            tenants.push_back(static_cast<std::uint32_t>(
                resp.getUint("tenant").value_or(0)));
        }
        EXPECT_EQ(client.step(2).getBool("ok"), true);

        // The shards op sees all four chips.
        JsonValue sh = client.shards();
        ASSERT_EQ(sh.getBool("ok"), true);
        EXPECT_EQ(sh.getUint("shards"), 4u);
        ASSERT_NE(sh.find("shard_info"), nullptr);
        EXPECT_EQ(sh.find("shard_info")->items().size(), 4u);

        // Wire migration: auto target, new region id comes back.
        JsonValue mig = client.migrate(tenants[0]);
        ASSERT_EQ(mig.getBool("ok"), true);
        std::uint32_t new_id = static_cast<std::uint32_t>(
            mig.getUint("tenant").value_or(0));
        EXPECT_NE(cloud::tenantShard(new_id),
                  cloud::tenantShard(tenants[0]));
        EXPECT_EQ(client.query(new_id).getString("state"),
                  "active");
        EXPECT_EQ(client.query(tenants[0]).getString("state"),
                  "migrated");
        tenants[0] = new_id;

        // A tenant id naming shard 9 of a 4-shard region fails fast
        // on the IO thread.
        JsonValue bad =
            client.query(cloud::regionTenantId(9, 0));
        EXPECT_EQ(bad.getBool("ok"), false);
        EXPECT_EQ(bad.getString("error"), errors::UnknownTenant);

        // The shards op counts the migration and every arrival.
        JsonValue rs = client.shards();
        ASSERT_EQ(rs.getBool("ok"), true);
        ASSERT_NE(rs.find("shard_info"), nullptr);
        EXPECT_EQ(rs.find("shard_info")->items().size(), 4u);
        EXPECT_EQ(rs.getUint("migrations"), 1u);
        ASSERT_NE(rs.find("routed"), nullptr);
        double routed_total = 0;
        for (const JsonValue &n : rs.find("routed")->items())
            routed_total += n.number();
        EXPECT_EQ(routed_total, 6.0);
    }

    server.stop();
    JsonValue report = server.finalReport();
    ASSERT_EQ(report.getBool("ok"), true);
    // All six tenants survive to the aggregated drain (none
    // departed), each row stamped with its owning shard.
    ASSERT_NE(report.find("bills"), nullptr);
    EXPECT_EQ(report.find("bills")->items().size(), 6u);
    EXPECT_EQ(report.getUint("departed"), 6u);
    EXPECT_EQ(server.regionStats().migrations, 1u);
}

TEST(RegionServer, SingleShardRegionSpeaksTheLegacyProtocol)
{
    ServerConfig sc;
    sc.unixPath = testSocketPath("legacy");
    sc.audit = true;
    ServiceServer server(tinyRegionParams(), sc);
    server.start();

    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        JsonValue resp = client.arrive(0, 100);
        ASSERT_EQ(resp.getBool("ok"), true);
        // Shard 0 ids are bare local ids.
        EXPECT_EQ(cloud::tenantShard(static_cast<std::uint32_t>(
                      resp.getUint("tenant").value_or(0))),
                  0u);
        // Migration needs a second shard.
        JsonValue mig = client.migrate(static_cast<std::uint32_t>(
            resp.getUint("tenant").value_or(0)));
        EXPECT_EQ(mig.getBool("ok"), false);
        EXPECT_EQ(mig.getString("error"), errors::BadRequest);
        // The merged snapshot still reports the region axis.
        EXPECT_EQ(client.snapshot().getUint("shards"), 1u);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

// --- Fan-outs: every shard or none ------------------------------

/**
 * Pipeline 24 steps, a few ms apart, at a 2-shard region with
 * one-deep queues whose four tenants all sit on shard 0, so shard 0
 * falls behind while shard 1 keeps up. A step applies on both shards
 * or on neither: afterwards the shards' rounds agree and equal the
 * ok answers, and every other answer is `queue_full`.
 */
TEST(RegionServer, FanoutRefusalAppliesNowhere)
{
    constexpr unsigned kSteps = 24;
    ServerConfig sc;
    sc.unixPath = testSocketPath("fanfull");
    sc.queueCapacity = 1;
    sc.shards = 2;
    sc.placement = cloud::PlacementPolicy::BinPack;
    sc.rebalance.enabled = false;
    cloud::ProviderParams params;
    params.arrivalProb = 0.0;
    ServiceServer server(params, sc);
    server.start();
    {
        ServiceClient client =
            ServiceClient::connectUnix(sc.unixPath);
        for (std::uint32_t cls = 0; cls < 4; ++cls) {
            JsonValue resp = client.arrive(cls, 1000);
            ASSERT_EQ(resp.getBool("ok"), true);
            EXPECT_EQ(resp.getUint("shard"), 0u);
        }
        Request step;
        step.op = Op::Step;
        for (unsigned i = 0; i < kSteps; ++i) {
            client.send(step);
            // Spaced so shard 1 drains between steps, as a paced
            // client's would.
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        unsigned ok = 0, refused = 0;
        for (unsigned i = 0; i < kSteps; ++i) {
            JsonValue resp = client.next();
            if (resp.getBool("ok") == true)
                ++ok;
            else if (resp.getString("error") == errors::QueueFull)
                ++refused;
        }
        EXPECT_EQ(ok + refused, kSteps);

        JsonValue rs = client.shards();
        ASSERT_EQ(rs.getBool("ok"), true);
        const JsonValue *per_shard = rs.find("shard_info");
        ASSERT_NE(per_shard, nullptr);
        ASSERT_EQ(per_shard->items().size(), 2u);
        auto r0 = per_shard->items()[0].getUint("round");
        auto r1 = per_shard->items()[1].getUint("round");
        EXPECT_EQ(r0, r1) << ok << " ok, " << refused << " refused";
        EXPECT_EQ(r0, ok);
    }
    server.stop();
    EXPECT_EQ(server.finalReport().getBool("ok"), true);
}

// --- Twin: both schedulers answer alike --------------------------

/** One single-client request log and RegionCore's answers to it. */
struct TwinLog
{
    std::vector<Request> requests;
    std::vector<std::string> answers;
};

/**
 * Record the twin log against `region`. Later requests name the
 * tenants earlier answers returned, so the log is built by applying
 * it. It covers arrivals (one of an out-of-range class), step,
 * query, depart twice, an auto-target and an explicit migrate,
 * every migrate error, every region read op, and drain followed by
 * more traffic.
 */
TwinLog
recordTwinLog(RegionCore &region)
{
    TwinLog log;
    const std::uint32_t n = region.shards();
    const auto classes = static_cast<std::uint32_t>(
        region.provider(0).params().catalog.size());
    auto send = [&](Op op, std::uint32_t tenant = 0,
                    std::uint32_t arg = 0) {
        Request r;
        r.id = log.requests.size() + 1;
        r.op = op;
        r.tenant = tenant;
        if (op == Op::Arrive) {
            r.cls = arg;
            r.residence = 300;
        } else if (op == Op::Step) {
            r.quanta = arg;
        } else if (op == Op::Migrate && arg) {
            r.to = arg - 1; // arg 0 = auto target
        }
        JsonValue resp = region.apply(r);
        log.requests.push_back(r);
        log.answers.push_back(resp.dump());
        return resp;
    };
    auto tenantOf = [](const JsonValue &resp) {
        return static_cast<std::uint32_t>(
            resp.getUint("tenant").value_or(0));
    };

    send(Op::Ping);
    std::vector<std::uint32_t> t;
    for (std::uint32_t c = 0; c < 5; ++c)
        t.push_back(tenantOf(send(Op::Arrive, 0, c % classes)));
    send(Op::Arrive, 0, classes); // out-of-range class
    send(Op::Step, 0, 2);
    send(Op::Query, t[0]);
    send(Op::Depart, t[3]);
    send(Op::Depart, t[3]); // already gone
    JsonValue moved = send(Op::Migrate, t[0]);
    JsonValue moved_to = send(Op::Migrate, t[1],
                              1 + (cloud::tenantShard(t[1]) + 1) % n);
    EXPECT_EQ(moved.getBool("ok"), n > 1) << moved.dump();
    EXPECT_EQ(moved_to.getBool("ok"), n > 1) << moved_to.dump();
    // The migrate errors (a one-shard region refuses them all).
    send(Op::Migrate, t[2], 1 + 200); // target out of range
    send(Op::Migrate, t[2], 1 + cloud::tenantShard(t[2])); // same
    send(Op::Migrate, cloud::regionTenantId(0, 7777)); // unknown
    send(Op::Migrate, cloud::regionTenantId(9, 0)); // shard byte
    send(Op::Query, tenantOf(moved));
    send(Op::Query, t[0]); // the tombstone, when it moved
    send(Op::Step, 0, 1);
    send(Op::Snapshot);
    send(Op::Shards);
    send(Op::Drain);
    send(Op::Arrive, 0, 0);
    send(Op::Step, 0, 1);
    send(Op::Query, t[4]);
    send(Op::Migrate, t[4]);
    send(Op::Snapshot);
    return log;
}

struct TwinConfig
{
    std::uint32_t shards;
    cloud::PlacementPolicy policy;
};

/** Names each instance in ctest (gtest numbers them). */
void
PrintTo(const TwinConfig &tc, std::ostream *os)
{
    *os << strfmt("%ushards_%s", tc.shards,
                  cloud::placementPolicyName(tc.policy));
}

class RegionTwinTest : public ::testing::TestWithParam<TwinConfig>
{};

TEST_P(RegionTwinTest, ServerAnswersByteForByteLikeRegionCore)
{
    // Rebalance off: the threaded server's trigger timing depends on
    // which shard finishes first. RegionCoreTest covers the trigger.
    const TwinConfig &tc = GetParam();
    cloud::RebalanceParams off;
    off.enabled = false;
    RegionCore region(tinyRegionParams(), tc.shards,
                      /*audit_each_quantum=*/true, tc.policy, off);
    TwinLog log = recordTwinLog(region);

    constexpr int kReplays = 10;
    for (int replay = 0; replay < kReplays; ++replay) {
        ServerConfig sc;
        sc.unixPath = testSocketPath(
            strfmt("twin%u%u", tc.shards,
                   static_cast<unsigned>(tc.policy))
                .c_str());
        sc.audit = true;
        sc.shards = tc.shards;
        sc.placement = tc.policy;
        sc.rebalance = off;
        ServiceServer server(tinyRegionParams(), sc);
        server.start();
        {
            ServiceClient client =
                ServiceClient::connectUnix(sc.unixPath);
            for (std::size_t i = 0; i < log.requests.size(); ++i)
                ASSERT_EQ(client.call(log.requests[i]).dump(),
                          log.answers[i])
                    << "replay " << replay << ", request "
                    << log.requests[i].toJson().dump();
        }
        server.stop();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, RegionTwinTest,
    ::testing::Values(
        TwinConfig{1, cloud::PlacementPolicy::BinPack},
        TwinConfig{2, cloud::PlacementPolicy::BinPack},
        TwinConfig{2, cloud::PlacementPolicy::Spread},
        TwinConfig{4, cloud::PlacementPolicy::BinPack},
        TwinConfig{4, cloud::PlacementPolicy::Spread}));

} // namespace
} // namespace cash::service
