/**
 * @file
 * The fabric arbiter: provider-side mediation of EXPAND demands.
 *
 * Under fine-grain tenancy every tenant's CashRuntime issues its
 * own EXPAND/SHRINK commands over the RIN. When the chip is tight
 * those demands conflict, and first-come-first-served would starve
 * whichever tenant happens to step last. The arbiter restores
 * provider policy:
 *
 *  - Grant ordering: each round, tenants step (and therefore
 *    claim tiles) in deficit-then-price order — QoS-starved
 *    tenants first, higher-paying tenants breaking ties.
 *  - Partial grants: an EXPAND that exceeds free capacity is
 *    clamped to what the fabric can actually supply (bank counts
 *    rounded down to the tenant's power-of-two ladder) instead of
 *    failing outright; the runtime bills and learns at the granted
 *    configuration.
 *  - Compaction: the allocator never *denies* for shape — Slices
 *    are interchangeable (paper Sec III-A) — but expansion into a
 *    fragmented fabric lands far from the tenant's existing tiles
 *    and degrades L2 distance. When live fragmentation exceeds a
 *    threshold the arbiter asks for a chip-level compact() before
 *    the grant, so the denial-in-quality is repaired by
 *    rescheduling, exactly as the paper prescribes.
 */

#ifndef CASH_CLOUD_ARBITER_HH
#define CASH_CLOUD_ARBITER_HH

#include <cstdint>
#include <vector>

#include "cloud/tenant.hh"
#include "fabric/allocator.hh"

namespace cash::cloud
{

/** Per-tenant configuration cap (the provider's largest sellable
 *  instance), in Slices and 64 KB L2 banks. */
constexpr std::uint32_t kMaxTenantSlices = 4;
constexpr std::uint32_t kMaxTenantBanks = 16;

/** How one EXPAND/SHRINK demand was resolved. */
enum class GrantKind : std::uint8_t
{
    Full,    ///< requested == granted
    Partial, ///< clamped to available capacity
    Denied,  ///< nothing beyond current holdings was available
};

/** The arbiter's answer to one demand. */
struct GrantDecision
{
    GrantKind kind = GrantKind::Full;
    VCoreConfig granted;
    /** Compact the fabric before applying the grant. */
    bool compactFirst = false;
};

/** One tenant competing for this round's grant order. */
struct GrantCandidate
{
    TenantId id = invalidTenant;
    /** QoS deficit: max(0, 1 - ewma normalized QoS). */
    double deficit = 0.0;
    /** $/hr the tenant currently pays (price-aware tie-break). */
    double paidRate = 0.0;
};

/** Lifetime arbitration counters. */
struct ArbiterStats
{
    std::uint64_t fullGrants = 0;
    std::uint64_t partialGrants = 0;
    std::uint64_t denials = 0;
    std::uint64_t compactions = 0;
};

/**
 * Deterministic, allocator-aware grant policy. The provider owns
 * the chip; the arbiter only decides.
 */
class FabricArbiter
{
  public:
    /**
     * Order this round's tenants for stepping (and hence tile
     * claiming): largest deficit first, then highest paid rate,
     * then lowest id (stable across runs by construction).
     */
    std::vector<TenantId>
    grantOrder(std::vector<GrantCandidate> candidates) const;

    /**
     * Resolve one demand against current fabric state. Never
     * refuses outright: a demand with nothing available resolves
     * to the tenant's current holdings (GrantKind::Denied), which
     * the fabric applies as a zero-cost no-op.
     *
     * @param held the tenant's current configuration
     * @param requested the demanded configuration
     * @param alloc fabric occupancy
     * @param round current provider round (compaction pacing)
     */
    GrantDecision decide(const VCoreConfig &held,
                         const VCoreConfig &requested,
                         const FabricAllocator &alloc,
                         std::uint64_t round);

    /** Record that the provider executed a compaction. */
    void noteCompacted(std::uint64_t round);

    const ArbiterStats &stats() const { return stats_; }

  private:
    ArbiterStats stats_;
    std::uint64_t lastCompactRound_ = 0;
    bool everCompacted_ = false;
};

} // namespace cash::cloud

#endif // CASH_CLOUD_ARBITER_HH
