#include "service/core.hh"

#include <cstdlib>

#include "check/audit.hh"
#include "common/log.hh"
#include "trace/metrics.hh"

namespace cash::service
{

// ---------------------------------------------------------------
// Snapshot (de)serialization.
// ---------------------------------------------------------------

JsonValue
snapshotToJson(const cloud::TenantSnapshot &snap)
{
    JsonValue v = JsonValue::object();
    v.set("app", JsonValue(snap.cls.app));
    v.set("kind",
          JsonValue(static_cast<std::uint32_t>(snap.cls.kind)));
    v.set("class_target", JsonValue(snap.cls.target));
    v.set("min_slices", JsonValue(snap.cls.minCfg.slices));
    v.set("min_banks", JsonValue(snap.cls.minCfg.banks));
    v.set("peak_slices", JsonValue(snap.cls.peakCfg.slices));
    v.set("peak_banks", JsonValue(snap.cls.peakCfg.banks));
    v.set("target", JsonValue(snap.target));
    v.set("residence_rounds", JsonValue(snap.residenceRounds));
    v.set("active_rounds", JsonValue(snap.activeRounds));
    v.set("bill", JsonValue(snap.migratedBill));
    v.set("holdings", JsonValue(snap.migratedHoldings));
    v.set("compact_cost", JsonValue(snap.unbilledCompactCost));
    v.set("qos_samples", JsonValue(snap.qosSamples));
    v.set("qos_violations", JsonValue(snap.qosViolations));
    v.set("ewma_q", JsonValue(snap.ewmaQ));
    // Seeds use all 64 bits; JSON numbers are doubles, so the seed
    // travels as a decimal string.
    v.set("src_seed", JsonValue(std::to_string(snap.srcSeed)));
    v.set("src_emitted", JsonValue(snap.srcEmitted));
    v.set("held_slices", JsonValue(snap.heldCfg.slices));
    v.set("held_banks", JsonValue(snap.heldCfg.banks));
    v.set("stall_cycles", JsonValue(snap.stallCycles));
    v.set("hops", JsonValue(snap.hops));
    v.set("joules", JsonValue(snap.joules));
    return v;
}

std::optional<cloud::TenantSnapshot>
snapshotFromJson(const JsonValue &v)
{
    if (!v.isObject())
        return std::nullopt;
    cloud::TenantSnapshot snap;

    auto u32 = [&](const char *key, std::uint32_t min,
                   std::uint32_t max,
                   std::uint32_t &out) -> bool {
        auto n = v.getUint(key);
        if (!n || *n < min || *n > max)
            return false;
        out = static_cast<std::uint32_t>(*n);
        return true;
    };
    auto u64 = [&](const char *key, std::uint64_t &out) -> bool {
        auto n = v.getUint(key);
        if (!n)
            return false;
        out = *n;
        return true;
    };
    auto num = [&](const char *key, double &out) -> bool {
        auto n = v.getNumber(key);
        if (!n || !(*n >= 0.0)) // NaN and negatives rejected
            return false;
        out = *n;
        return true;
    };

    auto app = v.getString("app");
    if (!app || app->empty())
        return std::nullopt;
    snap.cls.app = *app;
    std::uint32_t kind = 0;
    if (!u32("kind", 0, 1, kind))
        return std::nullopt;
    snap.cls.kind = static_cast<QosKind>(kind);
    if (!num("class_target", snap.cls.target)
        || !u32("min_slices", 1, 1u << 16, snap.cls.minCfg.slices)
        || !u32("min_banks", 1, 1u << 20, snap.cls.minCfg.banks)
        || !u32("peak_slices", 1, 1u << 16, snap.cls.peakCfg.slices)
        || !u32("peak_banks", 1, 1u << 20, snap.cls.peakCfg.banks)
        || !num("target", snap.target)
        || !u32("residence_rounds", 0, ~0u, snap.residenceRounds)
        || !u64("active_rounds", snap.activeRounds)
        || !num("bill", snap.migratedBill)
        || !num("holdings", snap.migratedHoldings)
        || !num("compact_cost", snap.unbilledCompactCost)
        || !u64("qos_samples", snap.qosSamples)
        || !u64("qos_violations", snap.qosViolations)
        || !u64("src_emitted", snap.srcEmitted)
        || !u32("held_slices", 1, 1u << 16, snap.heldCfg.slices)
        || !u32("held_banks", 1, 1u << 20, snap.heldCfg.banks)
        || !u64("stall_cycles", snap.stallCycles)
        || !u32("hops", 1, ~0u, snap.hops)
        || !num("joules", snap.joules))
        return std::nullopt;
    auto ewma = v.getNumber("ewma_q");
    if (!ewma || !(*ewma == *ewma))
        return std::nullopt;
    snap.ewmaQ = *ewma;
    auto seed = v.getString("src_seed");
    if (!seed || seed->empty())
        return std::nullopt;
    char *end = nullptr;
    snap.srcSeed = std::strtoull(seed->c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return std::nullopt;
    return snap;
}

// ---------------------------------------------------------------
// ServiceCore.
// ---------------------------------------------------------------

ServiceCore::ServiceCore(cloud::CloudProvider &provider,
                         bool audit_each_quantum,
                         cloud::ShardId shard_id)
    : provider_(provider), audit_(audit_each_quantum),
      shardId_(shard_id)
{}

void
ServiceCore::maybeAudit()
{
    if (audit_)
        auditProvider(provider_);
}

JsonValue
ServiceCore::apply(const Request &req)
{
    JsonValue resp;
    switch (req.op) {
      case Op::Ping:
        resp = okResponse(req.id);
        resp.set("round", JsonValue(provider_.round()));
        break;
      case Op::Arrive:
        resp = applyArrive(req);
        break;
      case Op::Depart:
        resp = applyDepart(req);
        break;
      case Op::Query:
        resp = applyQuery(req);
        break;
      case Op::Step:
        resp = applyStep(req);
        break;
      case Op::Snapshot:
        resp = applySnapshot(req);
        break;
      case Op::Drain:
        resp = drainReport();
        resp.set("id", JsonValue(req.id));
        break;
      case Op::Shards:
        resp = applyShardInfo(req);
        break;
      case Op::RegionSnapshot:
        // One shard's contribution; region engines merge these.
        resp = applySnapshot(req);
        resp.set("shard", JsonValue(shardId_));
        break;
      case Op::RegionEnergy:
        resp = applyEnergy(req);
        break;
      case Op::Migrate:
        resp = errorResponse(req.id, errors::BadRequest,
                             "migrate needs a region engine");
        break;
    }
    ++stats_.applied;
    if (auto ok = resp.getBool("ok"); ok && !*ok)
        ++stats_.failed;
    maybeAudit();
    return resp;
}

JsonValue
ServiceCore::applyArrive(const Request &req)
{
    if (provider_.draining())
        return errorResponse(req.id, errors::Draining,
                             "provider is draining");
    std::size_t classes = provider_.params().catalog.size();
    if (req.cls >= classes)
        return errorResponse(
            req.id, errors::BadRequest,
            strfmt("class %u out of range (catalog has %zu)",
                   req.cls, classes));
    cloud::TenantId id =
        provider_.injectArrival(req.cls, req.residence);
    const cloud::Tenant &t = *provider_.tenants()[id];
    JsonValue resp = okResponse(req.id);
    resp.set("tenant",
             JsonValue(cloud::regionTenantId(shardId_, id)));
    resp.set("state", JsonValue(cloud::tenantStateName(t.state)));
    resp.set("app", JsonValue(t.cls.app));
    resp.set("shard", JsonValue(shardId_));
    CASH_METRIC_INC("service.arrives");
    return resp;
}

bool
ServiceCore::localId(const Request &req, std::uint32_t &local,
                     JsonValue *resp) const
{
    if (cloud::tenantShard(req.tenant) != shardId_) {
        if (resp)
            *resp = errorResponse(
                req.id, errors::UnknownTenant,
                strfmt("tenant %u is not on shard %u", req.tenant,
                       shardId_));
        return false;
    }
    local = cloud::tenantLocal(req.tenant);
    return true;
}

JsonValue
ServiceCore::applyDepart(const Request &req)
{
    std::uint32_t local = 0;
    JsonValue resp;
    if (!localId(req, local, &resp))
        return resp;
    if (!provider_.injectDeparture(local))
        return errorResponse(
            req.id, errors::UnknownTenant,
            strfmt("tenant %u unknown or already gone", req.tenant));
    const cloud::Tenant &t = *provider_.tenants()[local];
    resp = okResponse(req.id);
    resp.set("tenant", JsonValue(req.tenant));
    resp.set("state", JsonValue(cloud::tenantStateName(t.state)));
    resp.set("bill", JsonValue(t.bill()));
    resp.set("joules", JsonValue(provider_.tenantJoules(t)));
    resp.set("energy_bill",
             JsonValue(provider_.params().sim.energy.dollars(
                 provider_.tenantJoules(t))));
    CASH_METRIC_INC("service.departs");
    return resp;
}

JsonValue
ServiceCore::applyQuery(const Request &req)
{
    std::uint32_t local = 0;
    JsonValue resp;
    if (!localId(req, local, &resp))
        return resp;
    if (local >= provider_.tenants().size())
        return errorResponse(req.id, errors::UnknownTenant,
                             strfmt("tenant %u unknown", req.tenant));
    const cloud::Tenant &t = *provider_.tenants()[local];
    resp = okResponse(req.id);
    resp.set("tenant", JsonValue(req.tenant));
    resp.set("app", JsonValue(t.cls.app));
    resp.set("state", JsonValue(cloud::tenantStateName(t.state)));
    resp.set("bill", JsonValue(t.bill()));
    resp.set("joules", JsonValue(provider_.tenantJoules(t)));
    resp.set("energy_bill",
             JsonValue(provider_.params().sim.energy.dollars(
                 provider_.tenantJoules(t))));
    resp.set("qos_samples", JsonValue(t.qosSamples()));
    resp.set("qos_violations", JsonValue(t.qosViolations()));
    resp.set("active_rounds", JsonValue(t.activeRounds));
    return resp;
}

JsonValue
ServiceCore::applyStep(const Request &req)
{
    for (std::uint32_t q = 0; q < req.quanta; ++q) {
        provider_.step();
        ++stats_.quanta;
        maybeAudit();
    }
    CASH_METRIC_ADD("service.quanta", req.quanta);
    JsonValue resp = okResponse(req.id);
    resp.set("round", JsonValue(provider_.round()));
    resp.set("active",
             JsonValue(provider_.activeTenants().size()));
    return resp;
}

JsonValue
ServiceCore::applySnapshot(const Request &req)
{
    const cloud::ProviderStats &st = provider_.stats();
    const FabricAllocator &al = provider_.chip().allocator();
    JsonValue resp = okResponse(req.id);
    resp.set("round", JsonValue(provider_.round()));
    resp.set("active",
             JsonValue(provider_.activeTenants().size()));
    resp.set("queued", JsonValue(provider_.queue().size()));
    resp.set("arrivals", JsonValue(st.arrivals));
    resp.set("admitted", JsonValue(st.admitted));
    resp.set("rejected", JsonValue(st.rejected));
    resp.set("abandoned", JsonValue(st.abandoned));
    resp.set("departed", JsonValue(st.departed));
    resp.set("revenue", JsonValue(provider_.revenue()));
    resp.set("qos_delivery", JsonValue(provider_.qosDelivery()));
    resp.set("free_slices", JsonValue(al.freeSlices()));
    resp.set("free_banks", JsonValue(al.freeBanks()));
    resp.set("draining", JsonValue(provider_.draining()));
    // Raw SLA tallies (active tenants included) so a region merge
    // can recompute qos_delivery exactly instead of averaging
    // fractions.
    std::uint64_t samples = st.slaSamples;
    std::uint64_t violations = st.slaViolations;
    for (const auto &tp : provider_.tenants()) {
        if (tp->state != cloud::TenantState::Active)
            continue;
        samples += tp->qosSamples();
        violations += tp->qosViolations();
    }
    resp.set("sla_samples", JsonValue(samples));
    resp.set("sla_violations", JsonValue(violations));
    resp.set("migrated_in", JsonValue(st.migratedIn));
    resp.set("migrated_out", JsonValue(st.migratedOut));
    resp.set("joules", JsonValue(st.dissipatedJoules));
    resp.set("energy_revenue",
             JsonValue(provider_.energyRevenue()));
    return resp;
}

JsonValue
ServiceCore::applyEnergy(const Request &req)
{
    // One shard's energy ledgers; region engines sum these. The
    // fields mirror ProviderStats' conservation identity, so a
    // region-wide audit can be recomputed from the wire.
    const cloud::ProviderStats &st = provider_.stats();
    JsonValue resp = okResponse(req.id);
    resp.set("shard", JsonValue(shardId_));
    resp.set("round", JsonValue(provider_.round()));
    resp.set("dissipated_joules", JsonValue(st.dissipatedJoules));
    resp.set("departed_joules", JsonValue(st.departedJoules));
    resp.set("exported_joules", JsonValue(st.exportedJoules));
    resp.set("overhead_joules", JsonValue(st.overheadJoules));
    resp.set("energy_revenue", JsonValue(provider_.energyRevenue()));
    resp.set("price_per_kwh",
             JsonValue(provider_.params().sim.energy.pricePerKwh));
    return resp;
}

JsonValue
ServiceCore::applyShardInfo(const Request &req)
{
    cloud::ShardLoad l = load();
    JsonValue resp = okResponse(req.id);
    resp.set("shard", JsonValue(shardId_));
    resp.set("round", JsonValue(l.round));
    resp.set("active", JsonValue(l.active));
    resp.set("queued", JsonValue(l.queued));
    resp.set("free_slices", JsonValue(l.freeSlices));
    resp.set("free_banks", JsonValue(l.freeBanks));
    resp.set("fragmentation", JsonValue(l.fragmentation));
    return resp;
}

std::variant<Handoff, JsonValue>
ServiceCore::migrateOut(const Request &req)
{
    std::uint32_t local = cloud::tenantLocal(req.tenant);
    const auto &tenants = provider_.tenants();
    if (local >= tenants.size()
        || tenants[local]->state != cloud::TenantState::Active)
        return errorResponse(
            req.id, errors::UnknownTenant,
            strfmt("tenant %u is not active on shard %u", req.tenant,
                   shardId_));
    auto snap = provider_.migrateOut(local);
    if (!snap)
        return errorResponse(
            req.id, errors::BadRequest,
            strfmt("tenant %u is not migratable (request-driven "
                   "source)",
                   req.tenant));
    maybeAudit();
    return Handoff{req.id, shardId_, req.to, snap->stallCycles,
                   snapshotToJson(*snap).dump()};
}

JsonValue
ServiceCore::migrateIn(const Handoff &h)
{
    auto parsed = parseJson(h.snapshotJson);
    std::optional<cloud::TenantSnapshot> snap =
        parsed ? snapshotFromJson(*parsed) : std::nullopt;
    if (!snap)
        panic("migration snapshot did not round-trip: %s",
              h.snapshotJson.c_str());
    cloud::TenantId local = provider_.migrateIn(*snap);
    maybeAudit();
    CASH_METRIC_INC("service.migrations");
    const cloud::Tenant &t = *provider_.tenants()[local];
    JsonValue resp = okResponse(h.reqId);
    resp.set("tenant",
             JsonValue(cloud::regionTenantId(shardId_, local)));
    resp.set("from", JsonValue(h.from));
    resp.set("to", JsonValue(shardId_));
    resp.set("stall_cycles", JsonValue(h.stallCycles));
    resp.set("state", JsonValue(cloud::tenantStateName(t.state)));
    resp.set("bill", JsonValue(t.bill()));
    return resp;
}

JsonValue
ServiceCore::drainReport()
{
    std::vector<cloud::FinalBill> bills = provider_.drain();
    // The post-drain audit is the shutdown billing-conservation
    // gate: every tenant departed, every holding released, departed
    // revenue equal to the sum of finalized bills.
    auditProvider(provider_);

    JsonValue arr = JsonValue::array();
    double total = 0.0;
    double energy_total = 0.0;
    for (const cloud::FinalBill &b : bills) {
        JsonValue row = JsonValue::object();
        row.set("tenant",
                JsonValue(cloud::regionTenantId(shardId_, b.tenant)));
        row.set("app", JsonValue(b.app));
        row.set("bill", JsonValue(b.bill));
        row.set("joules", JsonValue(b.joules));
        row.set("energy_bill", JsonValue(b.energyBill));
        row.set("qos_samples", JsonValue(b.qosSamples));
        row.set("qos_violations", JsonValue(b.qosViolations));
        row.set("estimated", JsonValue(b.estimated));
        row.set("shard", JsonValue(shardId_));
        arr.push(std::move(row));
        total += b.bill;
        energy_total += b.energyBill;
    }
    JsonValue resp = okResponse(0);
    resp.set("bills", std::move(arr));
    resp.set("revenue", JsonValue(total));
    resp.set("energy_revenue", JsonValue(energy_total));
    resp.set("departed", JsonValue(bills.size()));
    CASH_METRIC_INC("service.drains");
    return resp;
}

} // namespace cash::service
