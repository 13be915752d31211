#include "check/audit.hh"

#include <algorithm>
#include <cmath>

#include "check/invariant.hh"
#include "cloud/provider.hh"

namespace cash
{

void
auditAllocator(const FabricAllocator &alloc)
{
    const FabricGrid &grid = alloc.grid();
    std::vector<bool> slice_owned(grid.numSlices(), false);
    std::vector<bool> bank_owned(grid.numBanks(), false);

    std::uint32_t owned_slices = 0;
    std::uint32_t owned_banks = 0;
    for (VCoreId id : alloc.liveIds()) {
        const VCoreAllocation *a = alloc.find(id);
        CASH_AUDIT(a != nullptr, "live vcore %u has no allocation",
                   id);
        CASH_AUDIT(!a->slices.empty(), "vcore %u owns no Slices", id);
        for (SliceId s : a->slices) {
            CASH_AUDIT(s < grid.numSlices(),
                       "vcore %u owns out-of-grid slice %u", id, s);
            CASH_AUDIT(!slice_owned[s],
                       "slice %u owned by two vcores", s);
            slice_owned[s] = true;
            ++owned_slices;
        }
        for (BankId b : a->banks) {
            CASH_AUDIT(b < grid.numBanks(),
                       "vcore %u owns out-of-grid bank %u", id, b);
            CASH_AUDIT(!bank_owned[b], "bank %u owned by two vcores",
                       b);
            bank_owned[b] = true;
            ++owned_banks;
        }
    }

    CASH_AUDIT(alloc.freeSlices() + owned_slices == grid.numSlices(),
               "slice conservation broken: %u free + %u owned != %u",
               alloc.freeSlices(), owned_slices, grid.numSlices());
    CASH_AUDIT(alloc.freeBanks() + owned_banks == grid.numBanks(),
               "bank conservation broken: %u free + %u owned != %u",
               alloc.freeBanks(), owned_banks, grid.numBanks());
}

void
auditVCore(const VirtualCore &vc, const SimParams &params)
{
    CASH_AUDIT(vc.numSlices() >= 1, "vcore %u has no member Slices",
               vc.id());
    CASH_AUDIT(vc.rename().numSlices() == vc.numSlices(),
               "vcore %u rename tracks %u members, core has %u",
               vc.id(), vc.rename().numSlices(), vc.numSlices());

    const L2System &l2 = vc.l2();
    std::uint64_t capacity_lines =
        l2.totalSize() / params.cache.blockSize;
    CASH_AUDIT(l2.dirtyLines() <= capacity_lines,
               "vcore %u L2 reports %llu dirty lines in a %llu-line "
               "cache", vc.id(),
               static_cast<unsigned long long>(l2.dirtyLines()),
               static_cast<unsigned long long>(capacity_lines));
    CASH_AUDIT(l2.misses() <= l2.accesses(),
               "vcore %u L2 misses exceed accesses", vc.id());

    VCoreMeta meta = vc.meta();
    CASH_AUDIT(meta.clock == vc.now(), "vcore %u meta clock skewed",
               vc.id());
    // Member counters of removed Slices leave with them, so the
    // per-member sum is a lower bound of the lifetime aggregate.
    InstCount member_committed = 0;
    for (std::uint32_t m = 0; m < vc.numSlices(); ++m)
        member_committed += vc.counters(m).committedInsts;
    CASH_AUDIT(member_committed <= meta.totalCommitted,
               "vcore %u member commits exceed the aggregate",
               vc.id());

    // Estimated-vs-detailed bookkeeping: full simulation must never
    // report estimated work, and sampled simulation must keep the
    // estimate a subset of the totals it contributed to.
    if (!vc.samplingEnabled()) {
        CASH_AUDIT(meta.estimatedInsts == 0 && meta.ffCycles == 0,
                   "vcore %u reports estimated work (%llu insts, "
                   "%llu cycles) in full simulation", vc.id(),
                   static_cast<unsigned long long>(
                       meta.estimatedInsts),
                   static_cast<unsigned long long>(meta.ffCycles));
    } else {
        CASH_AUDIT(meta.estimatedInsts <= meta.totalCommitted,
                   "vcore %u estimated more instructions than it "
                   "committed", vc.id());
        CASH_AUDIT(meta.ffCycles <= meta.clock,
                   "vcore %u fast-forwarded more cycles than "
                   "elapsed", vc.id());
        const SliceController *ctl = vc.sampler();
        CASH_AUDIT(ctl != nullptr,
                   "vcore %u sampling enabled without a controller",
                   vc.id());
        const SamplerStats &st = ctl->stats();
        CASH_AUDIT(st.ffInsts == meta.estimatedInsts,
                   "vcore %u sampler ledger (%llu) diverges from "
                   "meta estimate (%llu)", vc.id(),
                   static_cast<unsigned long long>(st.ffInsts),
                   static_cast<unsigned long long>(
                       meta.estimatedInsts));
        CASH_AUDIT(st.ffCycles == meta.ffCycles,
                   "vcore %u sampler cycle ledger diverges",
                   vc.id());
    }
}

void
auditSim(const SSim &sim, const std::vector<VCoreId> &live)
{
    auditAllocator(sim.allocator());
    for (VCoreId id : live) {
        const VirtualCore &vc = sim.vcore(id);
        auditVCore(vc, sim.params());

        const VCoreAllocation *a = sim.allocator().find(id);
        CASH_AUDIT(a != nullptr,
                   "vcore %u live in SSim but unknown to the "
                   "allocator", id);
        CASH_AUDIT(a->slices == vc.sliceIds(),
                   "vcore %u Slice membership diverges from the "
                   "allocator's grant", id);
        CASH_AUDIT(a->banks.size() == vc.numBanks(),
                   "vcore %u holds %zu banks, allocator granted %u",
                   id, a->banks.size(), vc.numBanks());
    }
}

void
auditProvider(const cloud::CloudProvider &provider)
{
    const SSim &sim = provider.chip();
    const FabricAllocator &alloc = sim.allocator();
    const FabricGrid &grid = alloc.grid();

    // --- Walk the tenant ledger once, classifying states and
    // summing active holdings.
    std::vector<VCoreId> live;
    std::uint64_t queued = 0, active = 0, departed = 0, turned = 0;
    std::uint64_t migrated = 0;
    std::uint32_t tenant_slices = 0, tenant_banks = 0;
    for (const auto &tp : provider.tenants()) {
        const cloud::Tenant &t = *tp;
        switch (t.state) {
          case cloud::TenantState::Queued:
            ++queued;
            CASH_AUDIT(t.vcore == invalidVCore,
                       "queued tenant %u already holds vcore %u",
                       t.id, t.vcore);
            break;
          case cloud::TenantState::Active: {
            ++active;
            CASH_AUDIT(t.vcore != invalidVCore,
                       "active tenant %u holds no vcore", t.id);
            const VCoreAllocation *a = alloc.find(t.vcore);
            CASH_AUDIT(a != nullptr,
                       "active tenant %u's vcore %u is unknown to "
                       "the allocator", t.id, t.vcore);
            tenant_slices +=
                static_cast<std::uint32_t>(a->slices.size());
            tenant_banks +=
                static_cast<std::uint32_t>(a->banks.size());
            live.push_back(t.vcore);
            break;
          }
          case cloud::TenantState::Departed:
            ++departed;
            break;
          case cloud::TenantState::Rejected:
            ++turned;
            break;
          case cloud::TenantState::Migrated:
            ++migrated;
            CASH_AUDIT(t.vcore == invalidVCore,
                       "migrated tenant %u still holds vcore %u",
                       t.id, t.vcore);
            break;
        }
    }
    std::vector<VCoreId> sorted = live;
    std::sort(sorted.begin(), sorted.end());
    CASH_AUDIT(std::adjacent_find(sorted.begin(), sorted.end())
                   == sorted.end(),
               "two active tenants share one vcore");

    auditSim(sim, live);

    // --- Tile conservation: what tenants hold, plus the reserved
    // runtime Slice, is exactly what the allocator handed out. A
    // departed tenant whose vcore was never released surfaces here.
    std::uint32_t owned_slices = grid.numSlices() - alloc.freeSlices();
    std::uint32_t owned_banks = grid.numBanks() - alloc.freeBanks();
    CASH_AUDIT(tenant_slices + 1 == owned_slices,
               "tenant-held Slices (%u) + the runtime Slice diverge "
               "from the allocator's books (%u owned)",
               tenant_slices, owned_slices);
    CASH_AUDIT(tenant_banks == owned_banks,
               "tenant-held banks (%u) diverge from the allocator's "
               "books (%u owned)", tenant_banks, owned_banks);

    // --- Lifecycle algebra.
    const cloud::ProviderStats &st = provider.stats();
    CASH_AUDIT(st.arrivals + st.migratedIn
                   == provider.tenants().size(),
               "%llu arrivals + %llu migrate-ins but %zu tenants in "
               "the ledger",
               static_cast<unsigned long long>(st.arrivals),
               static_cast<unsigned long long>(st.migratedIn),
               provider.tenants().size());
    CASH_AUDIT(st.admitted == active + departed + migrated,
               "%llu admissions != %llu active + %llu departed + "
               "%llu migrated out",
               static_cast<unsigned long long>(st.admitted),
               static_cast<unsigned long long>(active),
               static_cast<unsigned long long>(departed),
               static_cast<unsigned long long>(migrated));
    CASH_AUDIT(st.migratedOut == migrated,
               "migrate-out counter diverges from the ledger");
    CASH_AUDIT(st.departed == departed,
               "departure counter diverges from the ledger");
    CASH_AUDIT(st.rejected + st.abandoned == turned,
               "rejection counters diverge from the ledger");
    CASH_AUDIT(provider.queue().size() == queued,
               "queue holds %zu ids but %llu tenants are Queued",
               provider.queue().size(),
               static_cast<unsigned long long>(queued));
    CASH_AUDIT(provider.queue().size() <= cloud::kAdmissionQueueLimit,
               "queue depth %zu exceeds the admission bound %u",
               provider.queue().size(), cloud::kAdmissionQueueLimit);

    // --- Billing: an active tenant's bill (plus compaction stall
    // the provider absorbed on its behalf) must equal the priced
    // integral of its actual Slice/bank holdings — the runtime
    // bills at granted configurations, so partial grants must not
    // let the books drift. A migrated-in tenant carries its prior
    // shards' integral (migratedHoldings, stall included) on the
    // holdings side and its prior bill inside bill(), so the same
    // identity holds across any number of hops.
    const CostModel &cm = provider.pricing();
    for (const auto &tp : provider.tenants()) {
        const cloud::Tenant &t = *tp;
        if (t.state != cloud::TenantState::Active)
            continue;
        const VirtualCore &vc = sim.vcore(t.vcore);
        double holdings = t.migratedHoldings
            + cm.sliceRate() * cm.hours(vc.sliceCycles())
            + cm.bankRate() * cm.hours(vc.bankCycles());
        double billed = t.bill() + t.unbilledCompactCost;
        double tol = 1e-9 + 1e-6 * std::max(holdings, billed);
        CASH_AUDIT(std::fabs(billed - holdings) <= tol,
                   "tenant %u billed $%.9f but its integrated "
                   "holdings cost $%.9f", t.id, billed, holdings);
    }

    // --- Arbitration: a compaction is only ever triggered by a
    // grant that went through.
    const cloud::ArbiterStats &as = provider.arbiter().stats();
    CASH_AUDIT(as.compactions <= as.fullGrants + as.partialGrants,
               "%llu compactions exceed %llu granted expansions",
               static_cast<unsigned long long>(as.compactions),
               static_cast<unsigned long long>(
                   as.fullGrants + as.partialGrants));

    auditEnergy(provider);
}

void
auditEnergy(const cloud::CloudProvider &provider)
{
    const SSim &sim = provider.chip();
    const cloud::ProviderStats &st = provider.stats();

    double active_synced = 0.0;
    for (const auto &tp : provider.tenants()) {
        const cloud::Tenant &t = *tp;
        // Watermark identity (any state): the books minus the
        // carried joules are exactly what this chip's meter has
        // been synced for. Both sides only ever move together
        // inside syncEnergy, so this holds at every instant.
        double local = t.energyAcc - t.migratedJoules;
        double tol = 1e-9
            + 1e-6 * std::max(std::fabs(local), t.energySynced);
        CASH_AUDIT(std::fabs(local - t.energySynced) <= tol,
                   "tenant %u books %.12g J local but synced "
                   "watermark %.12g J", t.id, local, t.energySynced);
        if (t.state != cloud::TenantState::Active)
            continue;
        active_synced += t.energySynced;

        // The live meter is monotone: it can run ahead of the
        // watermark (joules not yet synced) but never behind it.
        const VirtualCore &vc = sim.vcore(t.vcore);
        double metered = vc.energyJoules();
        CASH_AUDIT(metered + tol >= t.energySynced,
                   "tenant %u meter reads %.12g J below its synced "
                   "watermark %.12g J", t.id, metered,
                   t.energySynced);

        // The meter's total decomposes exactly: dissipated ==
        // dynamic + leakage == Σ per-structure activity energies.
        double dyn = vc.dynamicJoules();
        double leak = vc.leakageJoules();
        EnergyBreakdown bd = vc.energyBreakdown();
        double parts = bd.total();
        double mtol = 1e-9 + 1e-6 * std::max(metered, parts);
        CASH_AUDIT(std::fabs(metered - (dyn + leak)) <= mtol,
                   "tenant %u meter %.12g J != dynamic %.12g + "
                   "leakage %.12g", t.id, metered, dyn, leak);
        CASH_AUDIT(std::fabs(metered - parts) <= mtol,
                   "tenant %u meter %.12g J != per-structure sum "
                   "%.12g J", t.id, metered, parts);
    }

    // Global conservation: every tenant-attributed joule this chip
    // metered is on an active watermark, folded into a final bill,
    // or serialized off-chip. Fault::EnergyLeak breaks this.
    double rhs = active_synced + st.departedJoules
        + st.exportedJoules;
    double gtol = 1e-9 + 1e-6 * std::max(st.dissipatedJoules, rhs);
    CASH_AUDIT(std::fabs(st.dissipatedJoules - rhs) <= gtol,
               "dissipated %.12g J but active watermarks %.12g + "
               "departed %.12g + exported %.12g J",
               st.dissipatedJoules, active_synced, st.departedJoules,
               st.exportedJoules);
    CASH_AUDIT(st.overheadJoules >= 0.0,
               "negative provider overhead energy %.12g J",
               st.overheadJoules);
}

} // namespace cash
