#include "cloud/placement.hh"

#include "cloud/provider.hh"
#include "common/log.hh"

namespace cash::cloud
{

ShardLoad
loadOf(const CloudProvider &provider)
{
    const FabricAllocator &al = provider.chip().allocator();
    const FabricGrid &g = al.grid();
    ShardLoad load;
    load.freeSlices = al.freeSlices();
    load.freeBanks = al.freeBanks();
    load.totalSlices = g.numSlices();
    load.totalBanks = g.numBanks();
    load.fragmentation = al.fragmentation();
    load.active =
        static_cast<std::uint32_t>(provider.activeTenants().size());
    load.queued =
        static_cast<std::uint32_t>(provider.queue().size());
    load.round = provider.round();
    return load;
}

ShardId
emptiestOther(ShardId self, const std::vector<ShardLoad> &loads)
{
    ShardId to = self == 0 ? 1 : 0;
    for (ShardId s = 0; s < loads.size(); ++s)
        if (s != self && loads[s].freeSlices > loads[to].freeSlices)
            to = s;
    return to;
}

const char *
placementPolicyName(PlacementPolicy p)
{
    switch (p) {
      case PlacementPolicy::BinPack: return "binpack";
      case PlacementPolicy::Spread: return "spread";
    }
    return "?";
}

std::optional<PlacementPolicy>
placementPolicyFromName(std::string_view name)
{
    if (name == "binpack")
        return PlacementPolicy::BinPack;
    if (name == "spread")
        return PlacementPolicy::Spread;
    return std::nullopt;
}

PlacementRouter::PlacementRouter(std::uint32_t shards,
                                 PlacementPolicy policy,
                                 const RebalanceParams &rebalance)
    : shards_(shards), policy_(policy), rebalance_(rebalance)
{
    if (shards_ == 0 || shards_ > kMaxShards)
        fatal("region must have 1..%u shards, got %u", kMaxShards,
              shards_);
    lastMove_.assign(shards_, 0);
}

ShardId
PlacementRouter::chooseShard(const VCoreConfig &entry,
                             const std::vector<ShardLoad> &loads) const
{
    if (loads.size() != shards_)
        panic("router given %zu loads for %u shards", loads.size(),
              shards_);
    ShardId best = 0;
    bool have_fit = false;
    for (ShardId s = 0; s < shards_; ++s) {
        const ShardLoad &l = loads[s];
        bool fits = l.freeSlices >= entry.slices
            && l.freeBanks >= entry.banks;
        if (!fits)
            continue;
        if (!have_fit) {
            have_fit = true;
            best = s;
            continue;
        }
        const ShardLoad &b = loads[best];
        // BinPack: fewest free Slices still fitting (most loaded).
        // Spread: most free Slices. Strict comparisons keep ties on
        // the lowest shard id.
        if (policy_ == PlacementPolicy::BinPack
                ? l.freeSlices < b.freeSlices
                : l.freeSlices > b.freeSlices)
            best = s;
    }
    if (!have_fit) {
        // Nothing fits: hand the arrival to the emptiest shard and
        // let its own admission layer queue or reject it.
        for (ShardId s = 1; s < shards_; ++s)
            if (loads[s].freeSlices > loads[best].freeSlices)
                best = s;
    }
    return best;
}

bool
PlacementRouter::cooldownOver(ShardId shard,
                              std::uint64_t round) const
{
    std::uint64_t last = lastMove_[shard];
    return last == 0 || round >= last + rebalance_.cooldownRounds;
}

std::optional<RebalancePlan>
PlacementRouter::maybeRebalanceFrom(
    ShardId self, const std::vector<ShardLoad> &loads)
{
    if (!rebalance_.enabled || shards_ < 2)
        return std::nullopt;
    if (self >= shards_ || loads.size() != shards_)
        panic("rebalance from shard %u of %zu loads (%u shards)",
              self, loads.size(), shards_);
    const ShardLoad &me = loads[self];
    if (me.active == 0 || !cooldownOver(self, me.round))
        return std::nullopt;

    ShardId to = emptiestOther(self, loads);
    const char *reason = nullptr;
    if (rebalance_.fragThreshold > 0.0
        && me.fragmentation > rebalance_.fragThreshold)
        reason = "frag";
    else if (rebalance_.imbalanceThreshold > 0.0
             && me.totalSlices > 0) {
        std::uint32_t min_free = me.freeSlices;
        std::uint32_t max_free = me.freeSlices;
        for (const ShardLoad &l : loads) {
            min_free = std::min(min_free, l.freeSlices);
            max_free = std::max(max_free, l.freeSlices);
        }
        double imbalance =
            static_cast<double>(max_free - min_free)
            / static_cast<double>(me.totalSlices);
        // Only the crowded end moves tenants out.
        if (imbalance > rebalance_.imbalanceThreshold
            && me.freeSlices == min_free
            && loads[to].freeSlices == max_free)
            reason = "imbalance";
    }
    if (!reason || loads[to].freeSlices == 0)
        return std::nullopt;

    lastMove_[self] = me.round ? me.round : 1;
    return RebalancePlan{self, to, reason};
}

} // namespace cash::cloud
