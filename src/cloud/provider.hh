/**
 * @file
 * CloudProvider: the multi-tenant IaaS layer over one CASH chip.
 *
 * The paper's pitch (Secs I, VI-B) is provider economics: pack many
 * customers onto one configurable fabric, move Slices and banks
 * between them as demand shifts, and bill at fine, per-tile
 * granularity. CloudProvider is that deployment:
 *
 *  - a seeded tenant arrival/departure process drawing applications
 *    from the provider catalog, each with its own QoS target and
 *    residence time;
 *  - admission control (cloud/admission.hh): arrivals the fabric
 *    cannot host at their entry configuration queue or are
 *    rejected;
 *  - per-tenant management under one of three provisioning schemes
 *    (fine-grain CASH tenancy with a private CashRuntime per
 *    tenant, static-peak reservation, or a coarse-grain big.LITTLE
 *    pair);
 *  - fabric arbitration (cloud/arbiter.hh) installed as the chip's
 *    RIN command gate under fine-grain tenancy;
 *  - provider accounting: per-tenant revenue at the paper's
 *    $0.0098/Slice-hr + $0.0032/bank-hr prices, chip utilization,
 *    and SLA-violation tracking.
 *
 * Determinism: a provider is a pure function of its parameters —
 * every stochastic draw comes from the seeded arrival stream, so
 * two providers with equal params behave identically and the
 * consolidation bench can fan provider runs out through
 * ExperimentEngine.
 */

#ifndef CASH_CLOUD_PROVIDER_HH
#define CASH_CLOUD_PROVIDER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/admission.hh"
#include "cloud/arbiter.hh"
#include "cloud/tenant.hh"
#include "common/rng.hh"
#include "sim/ssim.hh"

namespace cash::cloud
{

/** How the provider carves the chip for its customers. */
enum class Provisioning : std::uint8_t
{
    /** CASH tenancy: admit at the minimum configuration, let each
     *  tenant's runtime expand/shrink under arbitration. */
    FineGrain,
    /** Reserve each tenant's declared peak for its whole stay. */
    StaticPeak,
    /** big.LITTLE: reserve the big core if the tenant's peak
     *  exceeds the little one, else the little core. */
    CoarseGrain,
};

/** Printable provisioning name. */
const char *provisioningName(Provisioning p);

/** Provider tunables. */
struct ProviderParams
{
    FabricParams fabric;
    SimParams sim;
    Provisioning provisioning = Provisioning::FineGrain;
    /** Control/billing round length in cycles (non-zero). */
    Cycle quantum = 500'000;
    /** Per-round Bernoulli probability of one tenant arrival. */
    double arrivalProb = 0.5;
    /** Mean tenant residence once active, in rounds (exponential,
     *  drawn at arrival). */
    double meanResidenceRounds = 24.0;
    /** Rounds excluded from a fresh tenant's SLA accounting. */
    std::uint32_t warmupRounds = 5;
    RuntimeParams runtime;
    /** Arrival-stream seed (the only randomness in the layer). */
    std::uint64_t seed = 42;
    /** Catalog; empty means defaultCatalog(). */
    std::vector<TenantClass> catalog;
    /** Full or sampled simulation for tenant vcores (off by
     *  default). Admission/arbitration/departure decisions come
     *  from exact state either way; sampled mode marks every final
     *  bill as estimated (FinalBill::estimated). */
    SimMode simMode = SimMode::Full;
    /** Slice-sampling schedule when simMode is Sampled. */
    SamplerParams sampler;
};

/**
 * Everything needed to replay one active tenant on another chip:
 * its class, accrued books, QoS trackers, and the exact position of
 * its deterministic instruction stream. Produced by migrateOut()
 * (which also bills the migration stall into the carried books) and
 * consumed by migrateIn(). The service layer hands it from the
 * source shard to the target by value (service/core.hh Handoff).
 *
 * Billing algebra: migratedBill/migratedHoldings both include the
 * stall, so on the target shard the audit identity
 *   bill() + unbilledCompactCost == migratedHoldings + integral
 * reduces to the per-shard identity that held on the source.
 */
struct TenantSnapshot
{
    TenantClass cls;
    /** Jittered per-tenant QoS target. */
    double target = 0.0;
    std::uint32_t residenceRounds = 0;
    std::uint64_t activeRounds = 0;
    /** $ billed so far (previous shards + billed migration stall). */
    double migratedBill = 0.0;
    /** Priced holdings integral so far, stall included. */
    double migratedHoldings = 0.0;
    /** Compaction stall $ the provider absorbed for this tenant. */
    double unbilledCompactCost = 0.0;
    std::uint64_t qosSamples = 0;
    std::uint64_t qosViolations = 0;
    double ewmaQ = 1.0;
    /** Source stream: seed and emitted-instruction position. The
     *  target recreates the PhasedTraceSource from the seed and
     *  fast-forwards it, so the tenant resumes its trace where it
     *  left off. */
    std::uint64_t srcSeed = 0;
    std::uint64_t srcEmitted = 0;
    /** Configuration held at departure (target placement hint). */
    VCoreConfig heldCfg{1, 1};
    /** The billed migration stall, in cycles. */
    Cycle stallCycles = 0;
    std::uint32_t hops = 1;
    /** Joules dissipated on previous shards (travels with the
     *  tenant; lands in the target's migratedJoules). */
    double joules = 0.0;
};

/** One tenant's finalized bill, as returned by drain(). */
struct FinalBill
{
    TenantId tenant = invalidTenant;
    /** Catalog application the tenant ran. */
    std::string app;
    double bill = 0.0;
    /** Metered energy attributed to the tenant, all shards. */
    double joules = 0.0;
    /** The energy line item: joules x the provider's $/kWh. Billed
     *  separately from the tile bill (`bill`), so the tile billing
     *  identity is untouched by the energy subsystem. */
    double energyBill = 0.0;
    std::uint64_t qosSamples = 0;
    std::uint64_t qosViolations = 0;
    /** The bill was produced under sampled simulation: its holdings
     *  integral is exact, but the QoS samples and the runtime's
     *  sizing decisions rode on partially extrapolated counters
     *  (the error-gate bound applies). Never silently true: full
     *  simulation always reports false. */
    bool estimated = false;
};

/** Aggregate provider-side accounting. */
struct ProviderStats
{
    std::uint64_t rounds = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;
    /** Queued arrivals that ran out of patience. */
    std::uint64_t abandoned = 0;
    std::uint64_t departed = 0;
    /** Tenants replayed onto this chip from another shard. */
    std::uint64_t migratedIn = 0;
    /** Tenants serialized off this chip to another shard. */
    std::uint64_t migratedOut = 0;
    /** Migrate-ins the chip could not place, finalized on entry
     *  (counted in both admitted and departed). */
    std::uint64_t migrateEvicted = 0;
    /** Σ over rounds of active tenant count. */
    std::uint64_t tenantRounds = 0;
    /** Σ over rounds of the Slice/bank occupancy fractions. */
    double sliceUtilSum = 0.0;
    double bankUtilSum = 0.0;
    /** SLA samples/violations across all tenants ever hosted. */
    std::uint64_t slaSamples = 0;
    std::uint64_t slaViolations = 0;
    /** $ billed to departed tenants (active bills accrue on top;
     *  see CloudProvider::revenue()). */
    double departedRevenue = 0.0;

    // Energy ledgers (joules). The conservation identity
    // (check/audit.hh auditEnergy):
    //   dissipatedJoules == Σ_active (energyAcc - migratedJoules)
    //                       + departedJoules + exportedJoules.
    /** Tenant-attributed joules metered on THIS chip (excludes
     *  what migrated-in tenants burned elsewhere). */
    double dissipatedJoules = 0.0;
    /** Of dissipatedJoules, already folded into final bills. */
    double departedJoules = 0.0;
    /** Of dissipatedJoules, serialized off-chip by migrateOut. */
    double exportedJoules = 0.0;
    /** Energy revenue: $ for departed tenants' joules. */
    double departedEnergyRevenue = 0.0;
    /** Provider-side overhead joules: leakage of free tiles, the
     *  runtime Slice, and RIN message energy. Not billed to any
     *  tenant — the provider's cost of doing business. */
    double overheadJoules = 0.0;
    /** rinMessages watermark for overhead accrual. */
    std::uint64_t rinMessagesSeen = 0;

    double meanSliceUtil() const
    {
        return rounds ? sliceUtilSum / static_cast<double>(rounds)
                      : 0.0;
    }
    double meanBankUtil() const
    {
        return rounds ? bankUtilSum / static_cast<double>(rounds)
                      : 0.0;
    }
    /** Fraction of SLA samples delivered on target. */
    double qosDelivery() const
    {
        return slaSamples
            ? 1.0
                - static_cast<double>(slaViolations)
                / static_cast<double>(slaSamples)
            : 1.0;
    }
};

/**
 * One IaaS provider instance: owns the chip and every tenant.
 */
class CloudProvider
{
  public:
    explicit CloudProvider(const ProviderParams &params);
    ~CloudProvider();

    CloudProvider(const CloudProvider &) = delete;
    CloudProvider &operator=(const CloudProvider &) = delete;

    /**
     * One provider round: departures, queue retries, arrivals,
     * then one quantum of every active tenant in the arbiter's
     * grant order, then accounting.
     */
    void step();

    /** Run n rounds. */
    void run(std::uint32_t n);

    // --- Deterministic injection hooks (tests and the fuzzer):
    // pure functions of their arguments, consuming no arrival
    // randomness, so op sequences shrink cleanly.

    /**
     * Inject one arrival of catalog class `cls_index` with a fixed
     * residence; runs the normal admission path.
     * @return the tenant id (whatever was decided), or
     *         invalidTenant if cls_index is out of range
     */
    TenantId injectArrival(std::size_t cls_index,
                           std::uint32_t residence_rounds);

    /** Force an active or queued tenant to depart now.
     *  @return false if the id is unknown or already gone */
    bool injectDeparture(TenantId id);

    /** Issue SET_FREQ on an active tenant's vcore through the
     *  provider's command gate (an external actor next to the
     *  tenant's own runtime; the fuzzer's set_freq op family).
     *  @return false if the tenant is not active, the P-state is
     *          out of range, or the gate denied the change */
    bool injectSetFreq(TenantId id, std::uint32_t pstate);

    /**
     * Graceful teardown: stop admissions (every later arrival is
     * rejected), abandon the waiting queue, depart every active
     * tenant now, and finalize its bill. Before this existed the
     * only teardown was the destructor, which dropped active
     * tenants' running bills on the floor — the daemon needs the
     * explicit path, and batch drivers get honest final accounting.
     *
     * Idempotent; stepping a drained provider is legal (it hosts
     * nothing and admits nothing). @return the final bill of every
     * tenant that was ever billed (Departed), ascending TenantId.
     */
    std::vector<FinalBill> drain();

    /** True once drain() has run (admissions are closed). */
    bool draining() const { return draining_; }

    // --- Cross-shard migration (region support). Both ends are
    // deterministic functions of their arguments, so a migration is
    // replayable and the fuzzer can shrink through it.

    /**
     * Serialize an Active tenant off this chip: bill the migration
     * stall (register flush + worst-case dirty-L2 writeback, the
     * paper's reconfiguration cost model), release its fabric, and
     * mark it Migrated. Its bill travels in the snapshot — the
     * tenant contributes nothing further to this shard's revenue.
     *
     * @return nullopt if the id is unknown, not Active, or the
     *         tenant's source cannot be serialized (request-driven
     *         apps have open-loop arrival state; the default
     *         catalog has none)
     */
    std::optional<TenantSnapshot> migrateOut(TenantId id);

    /**
     * Replay a migrated tenant onto this chip. Never loses the
     * books: placement tries the held configuration, then the class
     * minimum; when neither fits (or the shard is draining) the
     * tenant is finalized on entry — counted admitted + departed,
     * its carried bill landing in this shard's departed revenue —
     * so region revenue still counts every dollar exactly once.
     *
     * @return the tenant's new local id on this provider (check
     *         state to see whether it was placed or evicted)
     */
    TenantId migrateIn(const TenantSnapshot &snap);

    /**
     * The cheapest Active tenant to move (fewest held Slices, then
     * lowest id), or invalidTenant when none is migratable.
     */
    TenantId pickMigrant() const;

    /** The stall migrateOut() bills for leaving with `cfg`. */
    Cycle migrationStall(const VCoreConfig &cfg) const;

    // --- Introspection.

    const SSim &chip() const { return sim_; }
    const ProviderParams &params() const { return params_; }
    const ProviderStats &stats() const { return stats_; }
    const FabricArbiter &arbiter() const { return arbiter_; }
    std::uint64_t round() const { return round_; }

    /** The per-tile rates billed to tenants: Table IV's
     *  $0.0098/Slice-hr + $0.0032/bank-hr. */
    const CostModel &pricing() const;

    /** Every tenant ever created, indexed by TenantId. */
    const std::vector<std::unique_ptr<Tenant>> &tenants() const
    {
        return tenants_;
    }

    /** Ids of currently active tenants, ascending. */
    std::vector<TenantId> activeTenants() const;

    /** Current waiting queue, FIFO order. */
    const std::vector<TenantId> &queue() const { return queue_; }

    /** Total $ billed: departed tenants plus running bills. */
    double revenue() const;

    /** Total energy $ billed: departed tenants' joules plus active
     *  tenants' running meters, at params().sim.energy pricing. */
    double energyRevenue() const;

    /** Joules attributed to a tenant so far, prior shards and the
     *  live meter included (what its bill will show). */
    double tenantJoules(const Tenant &t) const;

    /** SLA delivery including active tenants' running tallies. */
    double qosDelivery() const;

  private:
    /** The entry configuration of a class under the current
     *  provisioning scheme (what admission judges). */
    VCoreConfig entryConfig(const TenantClass &cls) const;

    /** What a newly admitted tenant actually starts with: the
     *  entry configuration, except fine-grain tenants take the
     *  largest free configuration up to their class peak so the
     *  runtime converges downward instead of violating upward. */
    VCoreConfig startConfig(const Tenant &t) const;

    /** Create the tenant's vcore, sources, and (fine-grain)
     *  runtime. Must only be called when the entry config fits. */
    void activate(Tenant &t);

    /** Shared tail of activate()/migrateIn(): create the vcore at
     *  `cfg`, instantiate the source from `src_seed` (fast-forwarded
     *  by `fast_forward` emitted instructions for migrants), and
     *  attach the runtime or monitor. */
    void bindExecution(Tenant &t, const VCoreConfig &cfg,
                       std::uint64_t src_seed,
                       std::uint64_t fast_forward);

    /** Finalize accounting and release the tenant's fabric. */
    void depart(Tenant &t);

    /** Pull the vcore's energy meter into the tenant's books and
     *  the chip's dissipated ledger (no-op unless Active). */
    void syncEnergy(Tenant &t);

    /** Accrue provider-side overhead energy for one round: free
     *  tiles + runtime-Slice leakage over `cycles`, plus RIN
     *  message energy since the last accrual. */
    void accrueOverhead(Cycle cycles);

    /** Admit/queue/reject one tenant at the admission layer. */
    void judgeArrival(Tenant &t);

    void processDepartures();
    void processQueue();
    void processArrivals();
    void stepActive();

    /** The RIN command gate (fine-grain only). */
    std::optional<CommandRequest>
    gateCommand(VCoreId vcore, const CommandRequest &req);

    ProviderParams params_;
    SSim sim_;
    /** Fine-grain runtime configuration space (grid space over the
     *  arbiter's per-tenant cap). */
    ConfigSpace space_;
    FabricArbiter arbiter_;
    Rng arrivalsRng_;
    std::vector<std::unique_ptr<Tenant>> tenants_;
    std::vector<TenantId> queue_;
    std::uint64_t round_ = 0;
    ProviderStats stats_;
    /** Set by drain(): admissions closed, arrivals auto-reject. */
    bool draining_ = false;
};

} // namespace cash::cloud

#endif // CASH_CLOUD_PROVIDER_HH
