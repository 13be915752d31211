#include "service/region.hh"

#include "common/log.hh"
#include "trace/metrics.hh"

namespace cash::service
{

// ---------------------------------------------------------------
// Partial-response merging.
// ---------------------------------------------------------------

namespace
{

bool
allOk(const std::vector<JsonValue> &parts)
{
    for (const JsonValue &p : parts)
        if (auto ok = p.getBool("ok"); !ok || !*ok)
            return false;
    return true;
}

std::uint64_t
sumUint(const std::vector<JsonValue> &parts, const char *key)
{
    std::uint64_t total = 0;
    for (const JsonValue &p : parts)
        total += p.getUint(key).value_or(0);
    return total;
}

double
sumNumber(const std::vector<JsonValue> &parts, const char *key)
{
    double total = 0.0;
    for (const JsonValue &p : parts)
        total += p.getNumber(key).value_or(0.0);
    return total;
}

JsonValue
mergedOk(std::uint64_t id, const std::vector<JsonValue> &parts)
{
    JsonValue resp = okResponse(id);
    if (!allOk(parts))
        resp.set("ok", JsonValue(false));
    return resp;
}

/** step: round from shard 0, active summed, ok ANDed. */
JsonValue
mergeStepParts(std::uint64_t id, const std::vector<JsonValue> &parts)
{
    JsonValue resp = mergedOk(id, parts);
    resp.set("round",
             JsonValue(parts.empty()
                           ? 0
                           : parts[0].getUint("round").value_or(0)));
    resp.set("active", JsonValue(sumUint(parts, "active")));
    return resp;
}

/** snapshot: counters summed, qos_delivery recomputed from the
 *  summed SLA tallies, draining ANDed, plus "shards":N. */
JsonValue
mergeSnapshotParts(std::uint64_t id,
                   const std::vector<JsonValue> &parts)
{
    JsonValue resp = mergedOk(id, parts);
    resp.set("round",
             JsonValue(parts.empty()
                           ? 0
                           : parts[0].getUint("round").value_or(0)));
    resp.set("active", JsonValue(sumUint(parts, "active")));
    resp.set("queued", JsonValue(sumUint(parts, "queued")));
    resp.set("arrivals", JsonValue(sumUint(parts, "arrivals")));
    resp.set("admitted", JsonValue(sumUint(parts, "admitted")));
    resp.set("rejected", JsonValue(sumUint(parts, "rejected")));
    resp.set("abandoned", JsonValue(sumUint(parts, "abandoned")));
    resp.set("departed", JsonValue(sumUint(parts, "departed")));
    resp.set("revenue", JsonValue(sumNumber(parts, "revenue")));
    // qos_delivery recomputed from the raw tallies: a mean of
    // per-shard fractions would weight empty shards equally.
    std::uint64_t samples = sumUint(parts, "sla_samples");
    std::uint64_t violations = sumUint(parts, "sla_violations");
    resp.set("qos_delivery",
             JsonValue(samples
                           ? 1.0
                               - static_cast<double>(violations)
                                   / static_cast<double>(samples)
                           : 1.0));
    resp.set("free_slices", JsonValue(sumUint(parts, "free_slices")));
    resp.set("free_banks", JsonValue(sumUint(parts, "free_banks")));
    bool draining = !parts.empty();
    for (const JsonValue &p : parts)
        draining = draining && p.getBool("draining").value_or(false);
    resp.set("draining", JsonValue(draining));
    resp.set("sla_samples", JsonValue(samples));
    resp.set("sla_violations", JsonValue(violations));
    resp.set("migrated_in", JsonValue(sumUint(parts, "migrated_in")));
    resp.set("migrated_out",
             JsonValue(sumUint(parts, "migrated_out")));
    resp.set("joules", JsonValue(sumNumber(parts, "joules")));
    resp.set("energy_revenue",
             JsonValue(sumNumber(parts, "energy_revenue")));
    resp.set("shards",
             JsonValue(static_cast<std::uint64_t>(parts.size())));
    return resp;
}

/** shards: {"shards":N,"placement":...,"routed":[arrivals per
 *  shard],"migrations":...,"rebalances":...,"shard_info":[parts]}. */
JsonValue
mergeShardsParts(std::uint64_t id,
                 const std::vector<JsonValue> &parts,
                 const char *placement, const RegionStats &stats)
{
    JsonValue resp = mergedOk(id, parts);
    resp.set("shards",
             JsonValue(static_cast<std::uint64_t>(parts.size())));
    resp.set("placement", JsonValue(placement));
    JsonValue routed = JsonValue::array();
    for (const JsonValue &p : parts)
        routed.push(JsonValue(p.getUint("arrivals").value_or(0)));
    resp.set("routed", std::move(routed));
    resp.set("migrations", JsonValue(stats.migrations));
    resp.set("rebalances", JsonValue(stats.rebalances));
    JsonValue arr = JsonValue::array();
    for (const JsonValue &p : parts)
        arr.push(p);
    resp.set("shard_info", std::move(arr));
    return resp;
}

/** drain: bills concatenated in shard order (rows already carry
 *  region ids and a "shard" field), revenue and departed summed. */
JsonValue
mergeDrainParts(std::uint64_t id, const std::vector<JsonValue> &parts)
{
    JsonValue resp = mergedOk(id, parts);
    JsonValue bills = JsonValue::array();
    std::uint64_t departed = 0;
    double revenue = 0.0;
    for (const JsonValue &p : parts) {
        if (const JsonValue *rows = p.find("bills");
            rows && rows->isArray())
            for (const JsonValue &row : rows->items())
                bills.push(row);
        departed += p.getUint("departed").value_or(0);
        revenue += p.getNumber("revenue").value_or(0.0);
    }
    resp.set("bills", std::move(bills));
    resp.set("revenue", JsonValue(revenue));
    resp.set("energy_revenue",
             JsonValue(sumNumber(parts, "energy_revenue")));
    resp.set("departed", JsonValue(departed));
    return resp;
}

} // namespace

// ---------------------------------------------------------------
// RegionEngine.
// ---------------------------------------------------------------

RegionEngine::RegionEngine(const cloud::ProviderParams &params,
                           std::uint32_t shards,
                           bool audit_each_quantum,
                           cloud::PlacementPolicy policy,
                           const cloud::RebalanceParams &rebalance)
    : router_(shards, policy, rebalance)
{
    for (std::uint32_t s = 0; s < shards; ++s) {
        cloud::ProviderParams p = params;
        p.seed = params.seed + s;
        providers_.push_back(
            std::make_unique<cloud::CloudProvider>(p));
        cores_.push_back(std::make_unique<ServiceCore>(
            *providers_[s], audit_each_quantum, s));
    }
}

Route
RegionEngine::route(const Request &req, bool queued_ahead)
{
    Route r;
    r.request = req;
    auto answer = [&r](JsonValue resp) {
        r.kind = Route::Kind::Answer;
        r.answer = std::move(resp);
        return r;
    };
    switch (req.op) {
      case Op::Ping:
        if (!queued_ahead)
            return answer(core(0).read(req));
        r.kind = Route::Kind::Shard;
        return r;
      case Op::Arrive: {
        // Invalid classes go to shard 0 for the canonical error;
        // valid ones are routed on the class's admission minimum.
        r.kind = Route::Kind::Shard;
        const auto &catalog = provider(0).params().catalog;
        if (req.cls < catalog.size())
            r.shard = router_.chooseShard(catalog[req.cls].minCfg,
                                          loads());
        return r;
      }
      case Op::Depart:
      case Op::Query:
      case Op::Migrate: {
        if (req.op == Op::Migrate && shards() < 2)
            return answer(errorResponse(req.id, errors::BadRequest,
                                        "region has a single shard"));
        cloud::ShardId from = cloud::tenantShard(req.tenant);
        if (from >= shards())
            return answer(errorResponse(
                req.id, errors::UnknownTenant,
                strfmt("tenant %u names shard %u of a %u-shard region",
                       req.tenant, from, shards())));
        if (req.op == Op::Query && !queued_ahead)
            return answer(core(from).read(req));
        r.kind = Route::Kind::Shard;
        r.shard = from;
        if (req.op != Op::Migrate)
            return r;
        if (req.to == Request::kAutoShard)
            r.request.to = cloud::emptiestOther(from, loads());
        else if (req.to >= shards())
            return answer(errorResponse(
                req.id, errors::BadRequest,
                strfmt("target shard %u out of range (region has %u)",
                       req.to, shards())));
        else if (req.to == from)
            return answer(errorResponse(
                req.id, errors::BadRequest,
                strfmt("tenant %u is already on shard %u", req.tenant,
                       req.to)));
        return r;
      }
      case Op::Step:
      case Op::Snapshot:
      case Op::Drain:
      case Op::Shards:
        return r; // Route::Kind::All
    }
    return r;
}

JsonValue
RegionEngine::merge(Op op, std::uint64_t id,
                    const std::vector<JsonValue> &parts)
{
    switch (op) {
      case Op::Step:
        return mergeStepParts(id, parts);
      case Op::Snapshot:
        return mergeSnapshotParts(id, parts);
      case Op::Drain:
        return mergeDrainParts(id, parts);
      case Op::Shards: {
        std::lock_guard<std::mutex> lock(mutex_);
        return mergeShardsParts(
            id, parts, cloud::placementPolicyName(router_.policy()),
            stats_);
      }
      default:
        panic("op %s does not fan out", opName(op));
    }
}

std::optional<Handoff>
RegionEngine::afterBatch(cloud::ShardId self)
{
    ServiceCore &c = core(self);
    if (c.draining() || !router_.rebalance().enabled || shards() < 2)
        return std::nullopt;
    std::vector<cloud::ShardLoad> l = loads();
    std::optional<cloud::RebalancePlan> plan;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        plan = router_.maybeRebalanceFrom(self, l);
    }
    if (!plan)
        return std::nullopt;
    cloud::TenantId migrant = c.provider().pickMigrant();
    if (migrant == cloud::invalidTenant)
        return std::nullopt;
    Request req;
    req.op = Op::Migrate;
    req.tenant = cloud::regionTenantId(self, migrant);
    req.to = plan->to;
    std::variant<Handoff, JsonValue> out = c.migrateOut(req);
    Handoff *h = std::get_if<Handoff>(&out);
    if (!h)
        return std::nullopt;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.rebalances;
    }
    CASH_METRIC_INC("service.rebalances");
    return std::move(*h);
}

JsonValue
RegionEngine::migrateIn(const Handoff &h)
{
    JsonValue resp = core(h.to).migrateIn(h);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.migrations;
    return resp;
}

std::vector<cloud::ShardLoad>
RegionEngine::loads() const
{
    std::vector<cloud::ShardLoad> l;
    l.reserve(shards());
    for (const auto &c : cores_)
        l.push_back(c->load());
    return l;
}

RegionStats
RegionEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

// ---------------------------------------------------------------
// RegionCore: the single-threaded scheduler.
// ---------------------------------------------------------------

void
RegionCore::afterRequest(cloud::ShardId shard)
{
    if (auto h = afterBatch(shard))
        migrateIn(*h);
}

JsonValue
RegionCore::apply(const Request &req)
{
    Route r = route(req, /*queued_ahead=*/false);
    if (r.kind == Route::Kind::Answer)
        return r.answer;
    JsonValue resp;
    if (r.kind == Route::Kind::All) {
        std::vector<JsonValue> parts;
        parts.reserve(shards());
        for (std::uint32_t s = 0; s < shards(); ++s)
            parts.push_back(core(s).apply(req));
        resp = merge(req.op, req.id, parts);
        for (std::uint32_t s = 0; s < shards(); ++s)
            afterRequest(s);
        return resp;
    }
    if (r.request.op != Op::Migrate) {
        resp = core(r.shard).apply(r.request);
        afterRequest(r.shard);
        return resp;
    }
    std::variant<Handoff, JsonValue> out =
        core(r.shard).migrateOut(r.request);
    if (Handoff *h = std::get_if<Handoff>(&out)) {
        resp = migrateIn(*h);
        afterRequest(r.shard);
        afterRequest(h->to);
        return resp;
    }
    afterRequest(r.shard);
    return std::get<JsonValue>(out);
}

JsonValue
RegionCore::drainReport()
{
    std::vector<JsonValue> parts;
    parts.reserve(shards());
    for (std::uint32_t s = 0; s < shards(); ++s)
        parts.push_back(core(s).drainReport());
    return merge(Op::Drain, 0, parts);
}

} // namespace cash::service
