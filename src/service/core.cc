#include "service/core.hh"

#include "check/audit.hh"
#include "common/log.hh"
#include "trace/metrics.hh"

namespace cash::service
{

// ---------------------------------------------------------------
// ServiceCore.
// ---------------------------------------------------------------

ServiceCore::ServiceCore(cloud::CloudProvider &provider,
                         bool audit_each_quantum,
                         cloud::ShardId shard_id)
    : provider_(provider), audit_(audit_each_quantum),
      shardId_(shard_id), view_(std::make_shared<ShardView>())
{
    publishView();
}

void
ServiceCore::maybeAudit()
{
    if (audit_)
        auditProvider(provider_);
}

std::shared_ptr<const ShardView>
ServiceCore::view() const
{
    std::lock_guard<std::mutex> lock(viewMutex_);
    return view_;
}

void
ServiceCore::publishView()
{
    std::shared_ptr<const ShardView> prev = view();
    auto next = std::make_shared<ShardView>();
    next->round = provider_.round();
    next->load = cloud::loadOf(provider_);
    const auto &tenants = provider_.tenants();
    next->tenants.reserve(tenants.size());
    for (std::size_t i = 0; i < tenants.size(); ++i) {
        if (i < prev->tenants.size() && prev->tenants[i]->isFinal()) {
            next->tenants.push_back(prev->tenants[i]);
            continue;
        }
        const cloud::Tenant &t = *tenants[i];
        auto v = std::make_shared<ShardView::Tenant>();
        v->app = t.cls.app;
        v->state = t.state;
        v->bill = t.bill();
        // Folds the live meter now, at a task boundary.
        v->joules = provider_.tenantJoules(t);
        v->energyBill = provider_.params().sim.energy.dollars(v->joules);
        v->qosSamples = t.qosSamples();
        v->qosViolations = t.qosViolations();
        v->activeRounds = t.activeRounds;
        next->tenants.push_back(std::move(v));
    }
    std::lock_guard<std::mutex> lock(viewMutex_);
    view_ = std::move(next);
}

JsonValue
ServiceCore::read(const Request &req) const
{
    std::shared_ptr<const ShardView> v = view();
    if (req.op == Op::Ping) {
        JsonValue resp = okResponse(req.id);
        resp.set("round", JsonValue(v->round));
        return resp;
    }
    std::uint32_t local = 0;
    JsonValue resp;
    if (!localId(req, local, &resp))
        return resp;
    if (local >= v->tenants.size())
        return errorResponse(req.id, errors::UnknownTenant,
                             strfmt("tenant %u unknown", req.tenant));
    const ShardView::Tenant &t = *v->tenants[local];
    resp = okResponse(req.id);
    resp.set("tenant", JsonValue(req.tenant));
    resp.set("app", JsonValue(t.app));
    resp.set("state", JsonValue(cloud::tenantStateName(t.state)));
    resp.set("bill", JsonValue(t.bill));
    resp.set("joules", JsonValue(t.joules));
    resp.set("energy_bill", JsonValue(t.energyBill));
    resp.set("qos_samples", JsonValue(t.qosSamples));
    resp.set("qos_violations", JsonValue(t.qosViolations));
    resp.set("active_rounds", JsonValue(t.activeRounds));
    return resp;
}

JsonValue
ServiceCore::apply(const Request &req)
{
    JsonValue resp;
    switch (req.op) {
      case Op::Ping:
      case Op::Query:
        return read(req); // no provider access, nothing to audit
      case Op::Arrive:
        resp = applyArrive(req);
        break;
      case Op::Depart:
        resp = applyDepart(req);
        break;
      case Op::Step:
        resp = applyStep(req);
        break;
      case Op::Snapshot:
      case Op::Shards:
        resp = applySnapshot(req);
        break;
      case Op::Drain:
        resp = drainReport();
        resp.set("id", JsonValue(req.id));
        break;
      case Op::Migrate:
        resp = errorResponse(req.id, errors::BadRequest,
                             "migrate needs a region engine");
        break;
    }
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
    publishView();
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
    publishView();
    std::shared_ptr<const ShardView> v = view();
    const ShardView::Tenant &t = *v->tenants[local];
    resp = okResponse(req.id);
    resp.set("tenant", JsonValue(req.tenant));
    resp.set("state", JsonValue(cloud::tenantStateName(t.state)));
    resp.set("bill", JsonValue(t.bill));
    resp.set("joules", JsonValue(t.joules));
    resp.set("energy_bill", JsonValue(t.energyBill));
    CASH_METRIC_INC("service.departs");
    return resp;
}

JsonValue
ServiceCore::applyStep(const Request &req)
{
    for (std::uint32_t q = 0; q < req.quanta; ++q) {
        provider_.step();
        maybeAudit();
    }
    publishView();
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
    // Only shards lists these per shard; snapshot's merge drops them.
    resp.set("shard", JsonValue(shardId_));
    resp.set("fragmentation", JsonValue(al.fragmentation()));
    // The rest of ProviderStats' conservation identity (joules is
    // the dissipated ledger), so a region-wide energy audit can be
    // recomputed from the wire.
    resp.set("departed_joules", JsonValue(st.departedJoules));
    resp.set("exported_joules", JsonValue(st.exportedJoules));
    resp.set("overhead_joules", JsonValue(st.overheadJoules));
    resp.set("price_per_kwh",
             JsonValue(provider_.params().sim.energy.pricePerKwh));
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
    publishView();
    maybeAudit();
    return Handoff{req.id, shardId_, req.to, std::move(*snap)};
}

JsonValue
ServiceCore::migrateIn(const Handoff &h)
{
    cloud::TenantId local = provider_.migrateIn(h.snapshot);
    publishView();
    maybeAudit();
    CASH_METRIC_INC("service.migrations");
    const cloud::Tenant &t = *provider_.tenants()[local];
    JsonValue resp = okResponse(h.reqId);
    resp.set("tenant",
             JsonValue(cloud::regionTenantId(shardId_, local)));
    resp.set("from", JsonValue(h.from));
    resp.set("to", JsonValue(shardId_));
    resp.set("stall_cycles", JsonValue(h.snapshot.stallCycles));
    resp.set("state", JsonValue(cloud::tenantStateName(t.state)));
    resp.set("bill", JsonValue(t.bill()));
    return resp;
}

JsonValue
ServiceCore::drainReport()
{
    std::vector<cloud::FinalBill> bills = provider_.drain();
    publishView();
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
