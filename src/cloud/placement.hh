/**
 * @file
 * Region placement: routing tenants onto the shards of a
 * multi-chip region.
 *
 * The paper argues CASH's economics per chip (Sec VI-B); an IaaS
 * provider runs *fleets* of them. A region is N independent
 * CloudProviders ("shards"), and this router decides which shard an
 * arriving tenant lands on and when a tenant should be migrated off
 * a fragmented or overloaded shard. Two policies:
 *
 *  - BinPack: pack the most-loaded shard that still fits the entry
 *    configuration. Maximizes whole-shard headroom for large
 *    arrivals (and drives the consolidation the paper sells), at
 *    the price of per-shard fragmentation.
 *  - Spread: place on the shard with the most free Slices.
 *    Minimizes per-shard contention and queueing.
 *
 * The router is pure: decisions are functions of the ShardLoad
 * vector handed in, so single-threaded drivers (RegionCore, the
 * fuzzer) are exactly reproducible, and the threaded server's only
 * nondeterminism is *when* it sampled the loads.
 *
 * Region tenant ids: the wire protocol carries one tenant id; a
 * region encodes the owning shard in the top byte
 * (shard << 24 | local id). Shard 0 ids equal the local ids, so a
 * one-shard region speaks exactly the PR-5 protocol.
 */

#ifndef CASH_CLOUD_PLACEMENT_HH
#define CASH_CLOUD_PLACEMENT_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config_space.hh"

namespace cash::cloud
{

class CloudProvider;

/** Shard index within one region (top byte of a region tenant id,
 *  so at most 256 shards). */
using ShardId = std::uint32_t;

constexpr std::uint32_t kShardShift = 24;
constexpr std::uint32_t kMaxShards = 256;
constexpr std::uint32_t kLocalIdMask = (1u << kShardShift) - 1;

/** Compose a region-scoped tenant id. */
constexpr std::uint32_t
regionTenantId(ShardId shard, std::uint32_t local)
{
    return (shard << kShardShift) | (local & kLocalIdMask);
}

/** The shard a region tenant id lives on. */
constexpr ShardId
tenantShard(std::uint32_t region_id)
{
    return region_id >> kShardShift;
}

/** The shard-local tenant id. */
constexpr std::uint32_t
tenantLocal(std::uint32_t region_id)
{
    return region_id & kLocalIdMask;
}

/** One shard's occupancy, as the router sees it. */
struct ShardLoad
{
    std::uint32_t freeSlices = 0;
    std::uint32_t freeBanks = 0;
    std::uint32_t totalSlices = 0;
    std::uint32_t totalBanks = 0;
    /** Mean excess Slice span of live placements (allocator's
     *  fragmentation measure; 0 = perfectly compact). */
    double fragmentation = 0.0;
    std::uint32_t active = 0;
    std::uint32_t queued = 0;
    std::uint64_t round = 0;
};

/** Sample one provider's load (helper for shard owners). */
ShardLoad loadOf(const CloudProvider &provider);

/** The shard other than `self` with the most free Slices (lowest id
 *  on ties; needs two or more shards): where auto-target and
 *  triggered migrations go. */
ShardId emptiestOther(ShardId self,
                      const std::vector<ShardLoad> &loads);

/** How arrivals are spread across the region. */
enum class PlacementPolicy : std::uint8_t
{
    BinPack,
    Spread,
};

const char *placementPolicyName(PlacementPolicy p);
std::optional<PlacementPolicy>
placementPolicyFromName(std::string_view name);

/** Rebalance (migration-trigger) tunables. */
struct RebalanceParams
{
    /** Migrate off a shard whose fragmentation exceeds this (mean
     *  excess Slice span; 0 disables the fragmentation trigger). */
    double fragThreshold = 2.0;
    /** Migrate when (maxFree - minFree) / totalSlices exceeds this
     *  (0 disables the imbalance trigger). */
    double imbalanceThreshold = 0.5;
    /** Rounds a shard must wait between triggered migrations. */
    std::uint64_t cooldownRounds = 8;
    /** Master switch (a one-shard region never rebalances). */
    bool enabled = true;
};

/** One planned migration. */
struct RebalancePlan
{
    ShardId from = 0;
    ShardId to = 0;
    /** Which trigger fired ("frag" or "imbalance"). */
    const char *reason = "";
};

/**
 * The region's placement brain. Pure decisions over ShardLoad
 * vectors; the caller owns sampling and execution.
 */
class PlacementRouter
{
  public:
    PlacementRouter(std::uint32_t shards, PlacementPolicy policy,
                    const RebalanceParams &rebalance);

    /**
     * Pick the shard for one arrival. BinPack prefers the
     * most-loaded shard whose free Slices still cover the entry
     * configuration; Spread the shard with the most free Slices.
     * Ties break toward the lowest shard id; when nothing fits,
     * the shard with the most free Slices takes the arrival (its
     * own admission queue/reject path then applies).
     */
    ShardId chooseShard(const VCoreConfig &entry,
                        const std::vector<ShardLoad> &loads) const;

    /**
     * Should `self` shed a tenant, and where to? Fires when its
     * fragmentation exceeds the threshold, or when the region's
     * free-Slice imbalance exceeds its threshold and `self` is the
     * crowded end; the target is emptiestOther(self). Honors
     * `self`'s cooldown. Only plans moves *out of* `self`, so
     * per-shard callers never plan conflicting moves.
     * Deterministic in (loads, prior calls).
     */
    std::optional<RebalancePlan>
    maybeRebalanceFrom(ShardId self,
                       const std::vector<ShardLoad> &loads);

    std::uint32_t shards() const { return shards_; }
    PlacementPolicy policy() const { return policy_; }
    const RebalanceParams &rebalance() const { return rebalance_; }

  private:
    bool cooldownOver(ShardId shard, std::uint64_t round) const;

    std::uint32_t shards_;
    PlacementPolicy policy_;
    RebalanceParams rebalance_;
    /** Round of each shard's last planned out-migration. */
    std::vector<std::uint64_t> lastMove_;
};

} // namespace cash::cloud

#endif // CASH_CLOUD_PLACEMENT_HH
