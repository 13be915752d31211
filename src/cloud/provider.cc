#include "cloud/provider.hh"

#include <algorithm>

#include "baselines/experiment.hh"
#include "check/invariant.hh"
#include "common/log.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace cash::cloud
{

namespace
{

/** Phase-length multiplier applied to tenant apps. The models
 *  define short phases; deployments stretch them to the
 *  multi-quantum timescale the runtimes track (cf.
 *  ExperimentParams::phaseScale). At 1.0 phases flip faster than
 *  any controller can follow. */
constexpr double kPhaseScale = 20.0;
/** QoS target jitter: a tenant's target is its catalog target
 *  scaled down by U(0, kTargetJitter). Downward only — the catalog
 *  value is the class's maximum sellable target. */
constexpr double kTargetJitter = 0.15;
/** The big.LITTLE pair of CoarseGrain provisioning. */
constexpr VCoreConfig kCoarseBig{4, 16};
constexpr VCoreConfig kCoarseLittle{1, 2};
/** Table IV's per-tile rates (CostModel's defaults). */
const CostModel kPricing;

/** Lifecycle events are timestamped at round granularity: one
 *  provider round spans one quantum of simulated time. */
Cycle
roundTs(std::uint64_t round, Cycle quantum)
{
    return static_cast<Cycle>(round) * quantum;
}

} // namespace

const char *
provisioningName(Provisioning p)
{
    switch (p) {
      case Provisioning::FineGrain: return "fine-grain";
      case Provisioning::StaticPeak: return "static-peak";
      case Provisioning::CoarseGrain: return "coarse-grain";
    }
    return "?";
}

CloudProvider::CloudProvider(const ProviderParams &params)
    : params_(params),
      sim_(params.fabric, params.sim),
      space_(kMaxTenantSlices, kMaxTenantBanks),
      arrivalsRng_(params.seed)
{
    if (params_.quantum == 0)
        fatal("provider quantum must be non-zero");
    if (params_.catalog.empty())
        params_.catalog = defaultCatalog();
    if (params_.simMode == SimMode::Sampled)
        sim_.setSampling(SimMode::Sampled, params_.sampler);
    if (params_.provisioning == Provisioning::FineGrain)
        sim_.setCommandGate(
            [this](VCoreId id, const CommandRequest &req) {
                return gateCommand(id, req);
            });
}

CloudProvider::~CloudProvider() = default;

const CostModel &
CloudProvider::pricing() const
{
    return kPricing;
}

VCoreConfig
CloudProvider::entryConfig(const TenantClass &cls) const
{
    switch (params_.provisioning) {
      case Provisioning::FineGrain:
        return cls.minCfg;
      case Provisioning::StaticPeak:
        return cls.peakCfg;
      case Provisioning::CoarseGrain:
        if (cls.peakCfg.slices <= kCoarseLittle.slices
            && cls.peakCfg.banks <= kCoarseLittle.banks)
            return kCoarseLittle;
        return kCoarseBig;
    }
    return cls.minCfg;
}

VCoreConfig
CloudProvider::startConfig(const Tenant &t) const
{
    VCoreConfig entry = entryConfig(t.cls);
    if (params_.provisioning != Provisioning::FineGrain)
        return entry;
    // Fine-grain tenants are *admitted* at their minimum (that is
    // admission's capacity test) but *start* at the largest free
    // configuration up to their class peak: the runtime then
    // consolidates from above, and converging downward never
    // violates the SLA. Banks stay powers of two (RIN constraint,
    // as in the arbiter's grants).
    const FabricAllocator &al = sim_.allocator();
    std::uint32_t slices = std::clamp(
        al.freeSlices(), entry.slices, t.cls.peakCfg.slices);
    std::uint32_t want =
        std::min(al.freeBanks(), t.cls.peakCfg.banks);
    std::uint32_t banks = entry.banks;
    while (banks * 2 <= want)
        banks *= 2;
    return {slices, banks};
}

void
CloudProvider::bindExecution(Tenant &t, const VCoreConfig &cfg,
                             std::uint64_t src_seed,
                             std::uint64_t fast_forward)
{
    auto id = sim_.createVCore(cfg.slices, cfg.banks);
    CASH_AUDIT(id.has_value(),
               "bindExecution() for tenant %u but %s does not fit",
               t.id, cfg.str().c_str());

    t.vcore = *id;
    t.state = TenantState::Active;
    t.admitRound = round_;
    t.srcSeed = src_seed;

    AppModel app = scalePhases(appByName(t.cls.app), kPhaseScale);
    t.inner = makeSource(app, src_seed);
    if (fast_forward > 0) {
        // A migrant resumes its trace mid-stream: replay the
        // (cheap, deterministic) generator draws up to the emitted
        // position the snapshot recorded.
        auto *phased =
            dynamic_cast<PhasedTraceSource *>(t.inner.get());
        CASH_AUDIT(phased != nullptr,
                   "tenant %u migrated with a non-replayable source",
                   t.id);
        for (std::uint64_t i = 0; i < fast_forward; ++i)
            phased->next(0);
    }
    if (t.cls.kind == QosKind::Throughput)
        t.paced = std::make_unique<PacedSource>(*t.inner, t.target);
    sim_.vcore(t.vcore).bindSource(t.boundSource());

    if (params_.provisioning == Provisioning::FineGrain) {
        RuntimeParams rp = params_.runtime;
        rp.quantum = params_.quantum;
        rp.warmupQuanta = params_.warmupRounds;
        t.runtime = std::make_unique<CashRuntime>(
            sim_, t.vcore, t.cls.kind, t.target, space_, kPricing,
            rp, params_.seed ^ (t.id + 1));
    } else {
        t.monitor = std::make_unique<VCoreMonitor>(
            sim_, t.vcore, t.cls.kind, t.target);
    }
}

void
CloudProvider::activate(Tenant &t)
{
    VCoreConfig entry = startConfig(t);
    // Per-tenant source seed: two tenants of the same class still
    // run distinct (but reproducible) traces.
    bindExecution(t, entry, (params_.seed << 8) + t.id + 1, 0);

    // Admission-time cost estimate carries the energy axis: nominal
    // leakage of the entry configuration plus switching energy at
    // the QoS-target instruction rate (latency apps get the same
    // coarse 0.5-IPC guess the runtime's rate model uses).
    const EnergyParams &ep = params_.sim.energy;
    double est_ipc =
        t.cls.kind == QosKind::Throughput ? t.target : 0.5;
    double est_watts = leakWatts(ep, entry.slices, entry.banks, 0)
        + est_ipc * 1e9 * ep.approxPerInstPJ * 1e-12;

    CASH_TRACE_INSTANT(trace::Category::Cloud, "admit",
                       roundTs(round_, params_.quantum),
                       {{"tenant", t.id},
                        {"vcore", t.vcore},
                        {"slices", entry.slices},
                        {"banks", entry.banks},
                        {"target", t.target},
                        {"est_watts", est_watts},
                        {"est_energy_dps", ep.dollars(est_watts)},
                        {"waited", round_ - t.arrivalRound}});
    CASH_METRIC_INC("cloud.admits");
}

void
CloudProvider::syncEnergy(Tenant &t)
{
    if (t.state != TenantState::Active || t.vcore == invalidVCore)
        return;
    double metered = sim_.vcore(t.vcore).energyJoules();
    double delta = metered - t.energySynced;
    t.energyAcc += delta;
    t.energySynced = metered;
    stats_.dissipatedJoules += delta;
}

double
CloudProvider::tenantJoules(const Tenant &t) const
{
    // Books plus whatever the live meter has accrued since the last
    // sync (mirrors how bill() reads through a live runtime).
    double j = t.energyAcc;
    if (t.state == TenantState::Active && t.vcore != invalidVCore)
        j += sim_.vcore(t.vcore).energyJoules() - t.energySynced;
    return j;
}

void
CloudProvider::accrueOverhead(Cycle cycles)
{
    const EnergyParams &ep = params_.sim.energy;
    const FabricAllocator &al = sim_.allocator();
    // Free tiles and the reserved runtime Slice leak at nominal
    // voltage whether or not anyone rents them; RIN messages burn
    // interface-network energy. Neither is billable to a tenant —
    // it is the provider's cost of doing business, and the
    // conservation audit tracks it separately.
    double leak_pj = static_cast<double>(cycles)
        * (static_cast<double>(al.freeSlices() + 1) * ep.sliceLeakPJ
           + static_cast<double>(al.freeBanks()) * ep.bankLeakPJ);
    double rin_pj = static_cast<double>(
        sim_.rinMessages() - stats_.rinMessagesSeen) * ep.rinPJ;
    stats_.rinMessagesSeen = sim_.rinMessages();
    stats_.overheadJoules += (leak_pj + rin_pj) * 1e-12;
}

void
CloudProvider::depart(Tenant &t)
{
    // Close the energy meter while the vcore is still alive; the
    // final bill carries every joule the tenant ever dissipated.
    syncEnergy(t);
    t.state = TenantState::Departed;
    t.departRound = round_;
    ++stats_.departed;
    // Capture the shard-local tallies before dropping the runtime
    // (the accessors read through it while it exists, and add the
    // migrated-in carry on top).
    if (t.runtime) {
        t.billed = t.runtime->totalCost();
        t.samples = t.runtime->totalSamples();
        t.violations = t.runtime->totalViolations();
    }
    stats_.departedRevenue += t.bill();
    // Injected fault: drop the departing tenant's joules instead of
    // folding them into the departed ledger. auditEnergy() must
    // catch the broken conservation identity.
    if (!CASH_FAULT_ARMED(Fault::EnergyLeak))
        stats_.departedJoules += t.energyAcc - t.migratedJoules;
    stats_.departedEnergyRevenue +=
        params_.sim.energy.dollars(t.energyAcc);
    stats_.slaSamples += t.qosSamples();
    stats_.slaViolations += t.qosViolations();
    CASH_TRACE_INSTANT(trace::Category::Cloud, "depart",
                       roundTs(round_, params_.quantum),
                       {{"tenant", t.id},
                        {"bill", t.bill()},
                        {"joules", t.energyAcc},
                        {"samples", t.qosSamples()},
                        {"violations", t.qosViolations()},
                        {"rounds", t.activeRounds}});
    CASH_METRIC_INC("cloud.departs");
    CASH_METRIC_SAMPLE("cloud.tenant_bill", t.bill());
    CASH_METRIC_SAMPLE("cloud.tenant_joules", t.energyAcc);
    t.runtime.reset();
    t.monitor.reset();

    if (t.vcore != invalidVCore) {
        // Injected fault: "forget" to release the departed tenant's
        // fabric. auditProvider() must catch the leaked holding.
        if (!CASH_FAULT_ARMED(Fault::ProviderLeakHolding)) {
            sim_.destroyVCore(t.vcore);
            t.vcore = invalidVCore;
        }
    }
    t.paced.reset();
    t.inner.reset();
}

void
CloudProvider::judgeArrival(Tenant &t)
{
    if (draining_) {
        // Admissions are closed; the arrival still consumed its
        // stream draws (processArrivals) so determinism holds.
        t.state = TenantState::Rejected;
        ++stats_.rejected;
        CASH_TRACE_INSTANT(trace::Category::Cloud, "reject",
                           roundTs(round_, params_.quantum),
                           {{"tenant", t.id}, {"draining", 1}});
        CASH_METRIC_INC("cloud.rejects");
        return;
    }
    AdmissionVerdict v = AdmissionController::judge(
        entryConfig(t.cls), sim_.allocator(),
        static_cast<std::uint32_t>(queue_.size()));
    switch (v) {
      case AdmissionVerdict::Admit:
        ++stats_.admitted;
        activate(t);
        break;
      case AdmissionVerdict::Queue:
        t.state = TenantState::Queued;
        t.patienceRounds = kPatienceRounds;
        queue_.push_back(t.id);
        CASH_TRACE_INSTANT(trace::Category::Cloud, "queue",
                           roundTs(round_, params_.quantum),
                           {{"tenant", t.id},
                            {"depth", queue_.size()}});
        CASH_METRIC_INC("cloud.queued");
        break;
      case AdmissionVerdict::Reject:
        t.state = TenantState::Rejected;
        ++stats_.rejected;
        CASH_TRACE_INSTANT(trace::Category::Cloud, "reject",
                           roundTs(round_, params_.quantum),
                           {{"tenant", t.id}});
        CASH_METRIC_INC("cloud.rejects");
        break;
    }
}

void
CloudProvider::processDepartures()
{
    for (auto &tp : tenants_) {
        Tenant &t = *tp;
        if (t.state == TenantState::Active
            && t.activeRounds >= t.residenceRounds)
            depart(t);
    }
}

void
CloudProvider::processQueue()
{
    // Age the queue first: a tenant that has waited out its patience
    // abandons before this round's retry.
    std::vector<TenantId> kept;
    kept.reserve(queue_.size());
    for (TenantId id : queue_) {
        Tenant &t = *tenants_[id];
        if (t.patienceRounds == 0) {
            t.state = TenantState::Rejected;
            ++stats_.abandoned;
            CASH_TRACE_INSTANT(trace::Category::Cloud, "abandon",
                               roundTs(round_, params_.quantum),
                               {{"tenant", t.id},
                                {"waited", round_ - t.arrivalRound}});
            CASH_METRIC_INC("cloud.abandons");
            continue;
        }
        --t.patienceRounds;
        kept.push_back(id);
    }
    queue_ = std::move(kept);

    // Strict FIFO: admit from the head while the head fits. A large
    // head blocks smaller arrivals behind it — that is the fairness
    // the bounded queue sells (no starvation of big tenants).
    while (!queue_.empty()) {
        Tenant &t = *tenants_[queue_.front()];
        if (!AdmissionController::fits(entryConfig(t.cls),
                                       sim_.allocator()))
            break;
        ++stats_.admitted;
        activate(t);
        queue_.erase(queue_.begin());
    }
}

void
CloudProvider::processArrivals()
{
    // Draw the whole arrival tuple unconditionally so the stream
    // stays aligned no matter what admission decides.
    if (!arrivalsRng_.nextBool(params_.arrivalProb))
        return;
    std::size_t cls_index = static_cast<std::size_t>(
        arrivalsRng_.nextBounded(params_.catalog.size()));
    double jitter_u = arrivalsRng_.nextDouble();
    double residence = arrivalsRng_.nextExponential(
        1.0 / params_.meanResidenceRounds);

    const TenantClass &cls = params_.catalog[cls_index];
    auto t = std::make_unique<Tenant>();
    t->id = static_cast<TenantId>(tenants_.size());
    t->cls = cls;
    // Downward-only jitter: the catalog target is the class's
    // *maximum* sellable QoS (derived with only an 8% feasibility
    // margin over the per-tenant cap), so scaling it up would sell
    // a target no configuration can deliver.
    t->target = cls.target * (1.0 - kTargetJitter * jitter_u);
    t->residenceRounds = static_cast<std::uint32_t>(residence) + 1;
    t->arrivalRound = round_;
    ++stats_.arrivals;
    Tenant &ref = *t;
    tenants_.push_back(std::move(t));
    judgeArrival(ref);
}

void
CloudProvider::stepActive()
{
    std::vector<GrantCandidate> cands;
    for (const auto &tp : tenants_) {
        const Tenant &t = *tp;
        if (t.state != TenantState::Active)
            continue;
        const VirtualCore &vc = sim_.vcore(t.vcore);
        VCoreConfig held{vc.numSlices(), vc.numBanks()};
        cands.push_back(
            {t.id, std::max(0.0, 1.0 - t.ewmaQ),
             kPricing.ratePerHour(held)});
    }

    for (TenantId id : arbiter_.grantOrder(std::move(cands))) {
        Tenant &t = *tenants_[id];
        if (t.runtime) {
            QuantumStats st = t.runtime->step();
            if (st.qos > 0.0)
                t.ewmaQ = 0.3 * st.qos + 0.7 * t.ewmaQ;
        } else {
            VirtualCore &vc = sim_.vcore(t.vcore);
            Cycle start = vc.now();
            vc.runUntil(start + params_.quantum);
            Cycle elapsed = vc.now() - start;
            QosReading r = t.monitor->sample();
            VCoreConfig held{vc.numSlices(), vc.numBanks()};
            t.billed += kPricing.cost(held, elapsed);
            if (r.valid)
                t.ewmaQ = 0.3 * r.normalized + 0.7 * t.ewmaQ;
            // Mirror the runtime's SLA accounting: one sample per
            // round past warmup, judged on the smoothed QoS.
            if (t.activeRounds >= params_.warmupRounds) {
                ++t.samples;
                if (t.ewmaQ < 1.0 - kSlaTolerance)
                    ++t.violations;
            }
        }
        // Fold the quantum's joules into the tenant's books while
        // the meter is warm (depart/migrate close the residue).
        syncEnergy(t);
        ++t.activeRounds;
        ++stats_.tenantRounds;
    }
}

void
CloudProvider::step()
{
    processDepartures();
    processQueue();
    processArrivals();
    stepActive();
    accrueOverhead(params_.quantum);

    const FabricAllocator &al = sim_.allocator();
    const FabricGrid &g = al.grid();
    // The runtime's reserved Slice is overhead, not sellable
    // capacity: exclude it from both numerator and denominator.
    std::uint32_t usable = g.numSlices() - 1;
    std::uint32_t used = g.numSlices() - al.freeSlices() - 1;
    stats_.sliceUtilSum += usable
        ? static_cast<double>(used) / static_cast<double>(usable)
        : 0.0;
    stats_.bankUtilSum += g.numBanks()
        ? static_cast<double>(g.numBanks() - al.freeBanks())
            / static_cast<double>(g.numBanks())
        : 0.0;

    ++round_;
    ++stats_.rounds;
}

void
CloudProvider::run(std::uint32_t n)
{
    for (std::uint32_t i = 0; i < n; ++i)
        step();
}

TenantId
CloudProvider::injectArrival(std::size_t cls_index,
                             std::uint32_t residence_rounds)
{
    if (cls_index >= params_.catalog.size())
        return invalidTenant;
    const TenantClass &cls = params_.catalog[cls_index];
    auto t = std::make_unique<Tenant>();
    t->id = static_cast<TenantId>(tenants_.size());
    t->cls = cls;
    t->target = cls.target;
    t->residenceRounds = std::max(residence_rounds, 1u);
    t->arrivalRound = round_;
    ++stats_.arrivals;
    Tenant &ref = *t;
    tenants_.push_back(std::move(t));
    judgeArrival(ref);
    return ref.id;
}

bool
CloudProvider::injectDeparture(TenantId id)
{
    if (id >= tenants_.size())
        return false;
    Tenant &t = *tenants_[id];
    if (t.state == TenantState::Active) {
        depart(t);
        return true;
    }
    if (t.state == TenantState::Queued) {
        // Leaving the queue without ever being served is an
        // abandonment, not a departure (keeps the lifecycle algebra
        // auditProvider checks: admitted == active + departed).
        queue_.erase(std::remove(queue_.begin(), queue_.end(), id),
                     queue_.end());
        t.state = TenantState::Rejected;
        t.departRound = round_;
        ++stats_.abandoned;
        return true;
    }
    return false;
}

bool
CloudProvider::injectSetFreq(TenantId id, std::uint32_t pstate)
{
    if (id >= tenants_.size() || pstate >= kNumPStates)
        return false;
    Tenant &t = *tenants_[id];
    if (t.state != TenantState::Active)
        return false;
    return sim_.setFreq(t.vcore, pstate).has_value();
}

std::vector<FinalBill>
CloudProvider::drain()
{
    draining_ = true;

    // Queued tenants never held fabric: they abandon (the lifecycle
    // algebra auditProvider checks counts them as turned away).
    std::vector<TenantId> waiting = queue_;
    for (TenantId id : waiting)
        injectDeparture(id);

    // Finalize every active tenant, ascending id for determinism.
    for (auto &tp : tenants_)
        if (tp->state == TenantState::Active)
            depart(*tp);

    CASH_TRACE_INSTANT(trace::Category::Cloud, "drain",
                       roundTs(round_, params_.quantum),
                       {{"departed", stats_.departed},
                        {"revenue", stats_.departedRevenue},
                        {"joules", stats_.dissipatedJoules}});
    CASH_METRIC_INC("cloud.drains");

    std::vector<FinalBill> bills;
    for (const auto &tp : tenants_) {
        const Tenant &t = *tp;
        if (t.state != TenantState::Departed)
            continue;
        bills.push_back({t.id, t.cls.app, t.bill(), t.energyAcc,
                         params_.sim.energy.dollars(t.energyAcc),
                         t.qosSamples(), t.qosViolations(),
                         params_.simMode == SimMode::Sampled});
    }
    return bills;
}

std::vector<TenantId>
CloudProvider::activeTenants() const
{
    std::vector<TenantId> ids;
    for (const auto &tp : tenants_)
        if (tp->state == TenantState::Active)
            ids.push_back(tp->id);
    return ids;
}

double
CloudProvider::revenue() const
{
    double total = stats_.departedRevenue;
    for (const auto &tp : tenants_)
        if (tp->state == TenantState::Active)
            total += tp->bill();
    return total;
}

double
CloudProvider::energyRevenue() const
{
    double total = stats_.departedEnergyRevenue;
    for (const auto &tp : tenants_)
        if (tp->state == TenantState::Active)
            total += params_.sim.energy.dollars(tenantJoules(*tp));
    return total;
}

double
CloudProvider::qosDelivery() const
{
    std::uint64_t samples = stats_.slaSamples;
    std::uint64_t violations = stats_.slaViolations;
    for (const auto &tp : tenants_) {
        if (tp->state != TenantState::Active)
            continue;
        samples += tp->qosSamples();
        violations += tp->qosViolations();
    }
    return samples ? 1.0
            - static_cast<double>(violations)
            / static_cast<double>(samples)
                   : 1.0;
}

Cycle
CloudProvider::migrationStall(const VCoreConfig &cfg) const
{
    // Leaving a chip costs what the paper charges a reconfiguration
    // that gives everything up (Sec IV / reconfig.hh): the
    // architectural-register flush bound plus the worst-case dirty
    // writeback of every held L2 bank. The pipeline flush is noise
    // at this scale.
    constexpr Cycle kRegFlush = 64;
    constexpr Cycle kBankFlush = 8000;
    return kRegFlush + kBankFlush * cfg.banks;
}

std::optional<TenantSnapshot>
CloudProvider::migrateOut(TenantId id)
{
    if (id >= tenants_.size())
        return std::nullopt;
    Tenant &t = *tenants_[id];
    if (t.state != TenantState::Active)
        return std::nullopt;
    auto *phased = dynamic_cast<PhasedTraceSource *>(t.inner.get());
    if (!phased)
        return std::nullopt; // request-driven sources do not move

    // Close the energy meter before the vcore (and its meter) is
    // torn down; the joules travel with the snapshot.
    syncEnergy(t);
    const VirtualCore &vc = sim_.vcore(t.vcore);
    VCoreConfig held{vc.numSlices(), vc.numBanks()};
    const CostModel &cm = kPricing;
    // This shard's priced holdings integral for the tenant.
    double holdings = cm.sliceRate() * cm.hours(vc.sliceCycles())
        + cm.bankRate() * cm.hours(vc.bankCycles());

    Cycle stall = migrationStall(held);
    double stall_cost = cm.cost(held, stall);

    TenantSnapshot snap;
    snap.cls = t.cls;
    snap.target = t.target;
    snap.residenceRounds = t.residenceRounds;
    snap.activeRounds = t.activeRounds;
    // The stall is billed to the tenant *and* counted as holdings:
    // both sides of the target shard's audit identity carry it.
    snap.migratedBill = t.bill() + stall_cost;
    snap.migratedHoldings = t.migratedHoldings + holdings + stall_cost;
    snap.unbilledCompactCost = t.unbilledCompactCost;
    snap.qosSamples = t.qosSamples();
    snap.qosViolations = t.qosViolations();
    snap.ewmaQ = t.ewmaQ;
    snap.srcSeed = t.srcSeed;
    snap.srcEmitted = phased->emitted();
    snap.heldCfg = held;
    snap.stallCycles = stall;
    snap.hops = t.migrantHops + 1;
    snap.joules = t.energyAcc;
    // This shard's share of the tenant's joules leaves the local
    // conservation identity through the exported ledger.
    stats_.exportedJoules += t.energyAcc - t.migratedJoules;

    // The ledger keeps the pre-stall view for queries on the old
    // id; the revenue moves with the snapshot.
    t.state = TenantState::Migrated;
    t.departRound = round_;
    if (t.runtime) {
        t.billed = t.runtime->totalCost();
        t.samples = t.runtime->totalSamples();
        t.violations = t.runtime->totalViolations();
    }
    t.runtime.reset();
    t.monitor.reset();
    sim_.destroyVCore(t.vcore);
    t.vcore = invalidVCore;
    t.paced.reset();
    t.inner.reset();
    ++stats_.migratedOut;

    CASH_TRACE_INSTANT(trace::Category::Cloud, "migrate_out",
                       roundTs(round_, params_.quantum),
                       {{"tenant", t.id},
                        {"bill", snap.migratedBill},
                        {"stall_cycles", stall},
                        {"slices", held.slices},
                        {"banks", held.banks}});
    CASH_METRIC_INC("cloud.migrates_out");
    return snap;
}

TenantId
CloudProvider::migrateIn(const TenantSnapshot &snap)
{
    auto t = std::make_unique<Tenant>();
    t->id = static_cast<TenantId>(tenants_.size());
    t->cls = snap.cls;
    t->target = snap.target;
    t->residenceRounds = snap.residenceRounds;
    t->activeRounds = snap.activeRounds;
    t->arrivalRound = round_;
    t->migratedBill = snap.migratedBill;
    t->migratedHoldings = snap.migratedHoldings;
    t->unbilledCompactCost = snap.unbilledCompactCost;
    t->migratedSamples = snap.qosSamples;
    t->migratedViolations = snap.qosViolations;
    t->ewmaQ = snap.ewmaQ;
    t->srcSeed = snap.srcSeed;
    t->migrantHops = snap.hops;
    // Prior shards' joules arrive as carried books: nothing on this
    // chip dissipated them, so they sit outside the local meter
    // (energySynced restarts at the fresh vcore's zero).
    t->energyAcc = snap.joules;
    t->migratedJoules = snap.joules;
    t->energySynced = 0.0;
    ++stats_.migratedIn;
    ++stats_.admitted; // placed or evicted, the books stay balanced
    Tenant &ref = *t;
    tenants_.push_back(std::move(t));

    // Placement: held configuration, then the class minimum, then
    // finalize on entry — a migrant never queues (its bill must not
    // be lost to an abandon) and never fails to be accounted.
    const FabricAllocator &al = sim_.allocator();
    VCoreConfig cfg = snap.heldCfg;
    bool fits = !draining_ && AdmissionController::fits(cfg, al);
    if (!fits) {
        cfg = ref.cls.minCfg;
        fits = !draining_ && AdmissionController::fits(cfg, al);
    }
    if (fits) {
        bindExecution(ref, cfg, snap.srcSeed, snap.srcEmitted);
        CASH_TRACE_INSTANT(trace::Category::Cloud, "migrate_in",
                           roundTs(round_, params_.quantum),
                           {{"tenant", ref.id},
                            {"slices", cfg.slices},
                            {"banks", cfg.banks},
                            {"hops", ref.migrantHops}});
        CASH_METRIC_INC("cloud.migrates_in");
    } else {
        // Evict-finalize: the tenant ends its stay here and now;
        // the carried bill lands in this shard's departed revenue.
        ref.state = TenantState::Departed;
        ref.departRound = round_;
        ++stats_.departed;
        ++stats_.migrateEvicted;
        stats_.departedRevenue += ref.bill();
        // Nothing was dissipated here (energyAcc == migratedJoules),
        // but the carried energy revenue lands in this shard's books
        // exactly like the carried tile bill.
        stats_.departedJoules += ref.energyAcc - ref.migratedJoules;
        stats_.departedEnergyRevenue +=
            params_.sim.energy.dollars(ref.energyAcc);
        stats_.slaSamples += ref.qosSamples();
        stats_.slaViolations += ref.qosViolations();
        CASH_TRACE_INSTANT(trace::Category::Cloud, "migrate_evict",
                           roundTs(round_, params_.quantum),
                           {{"tenant", ref.id},
                            {"bill", ref.bill()}});
        CASH_METRIC_INC("cloud.migrate_evicts");
    }
    return ref.id;
}

TenantId
CloudProvider::pickMigrant() const
{
    TenantId best = invalidTenant;
    std::uint32_t best_slices = 0;
    for (const auto &tp : tenants_) {
        const Tenant &t = *tp;
        if (t.state != TenantState::Active)
            continue;
        if (!dynamic_cast<PhasedTraceSource *>(t.inner.get()))
            continue;
        std::uint32_t slices = sim_.vcore(t.vcore).numSlices();
        if (best == invalidTenant || slices < best_slices) {
            best = t.id;
            best_slices = slices;
        }
    }
    return best;
}

std::optional<CommandRequest>
CloudProvider::gateCommand(VCoreId vcore, const CommandRequest &req)
{
    // Commands for vcores the provider does not manage (none in
    // normal operation) pass through untouched.
    const Tenant *owner = nullptr;
    for (const auto &tp : tenants_)
        if (tp->state == TenantState::Active && tp->vcore == vcore) {
            owner = tp.get();
            break;
        }
    if (!owner)
        return req;

    const VirtualCore &vc = sim_.vcore(vcore);
    VCoreConfig held{vc.numSlices(), vc.numBanks()};
    // SET_FREQ carries the held tile counts: the arbiter sees a
    // no-op tile request (always a full grant) and the P-state
    // passes through — frequency is not a contended fabric resource.
    GrantDecision d = arbiter_.decide(
        held, VCoreConfig{req.slices, req.banks}, sim_.allocator(),
        round_);
    CASH_TRACE_INSTANT(trace::Category::Cloud, "grant",
                       roundTs(round_, params_.quantum),
                       {{"tenant", owner->id},
                        {"vcore", vcore},
                        {"req_slices", req.slices},
                        {"req_banks", req.banks},
                        {"got_slices", d.granted.slices},
                        {"got_banks", d.granted.banks},
                        {"kind", static_cast<int>(d.kind)},
                        {"compact_first", d.compactFirst}});
    switch (d.kind) {
      case GrantKind::Full:
        CASH_METRIC_INC("cloud.grants_full");
        break;
      case GrantKind::Partial:
        CASH_METRIC_INC("cloud.grants_partial");
        break;
      case GrantKind::Denied:
        CASH_METRIC_INC("cloud.grants_denied");
        break;
    }
    if (d.compactFirst) {
        CompactOutcome out = sim_.compact();
        arbiter_.noteCompacted(round_);
        // The requester's migration stall lands inside its own
        // runtime slot and is billed there; every *other* moved
        // tenant stalls outside its own billing loop, so the
        // provider absorbs that holding cost (and the billing audit
        // accounts for it).
        for (std::size_t i = 0; i < out.moved.size(); ++i) {
            if (out.moved[i] == vcore)
                continue;
            for (const auto &tp : tenants_) {
                if (tp->state != TenantState::Active
                    || tp->vcore != out.moved[i])
                    continue;
                const VirtualCore &mv = sim_.vcore(tp->vcore);
                VCoreConfig cfg{mv.numSlices(), mv.numBanks()};
                tp->unbilledCompactCost +=
                    kPricing.cost(cfg, out.stalls[i]);
                break;
            }
        }
    }
    return CommandRequest{d.granted.slices, d.granted.banks,
                          req.pstate};
}

} // namespace cash::cloud
