/**
 * @file
 * The region engine: a multi-chip region behind one protocol
 * endpoint.
 *
 * RegionEngine owns N CloudProviders ("shards"), one ServiceCore
 * each, and a PlacementRouter (cloud/placement.hh), and makes every
 * region decision in one place:
 *
 *  - route(): where a request goes — an error to answer now, one
 *    shard (a migrate's auto target resolved), or every shard;
 *  - merge(): how the per-shard parts of a fanned-out op become the
 *    region response;
 *  - ServiceCore::migrateOut / migrateIn: how a tenant crosses
 *    shards (a JSON hand-off, even in-process, so every migration
 *    also proves the wire serialization round-trips);
 *  - afterBatch(): when a shard sheds a tenant to rebalance.
 *
 * Two schedulers drive it. RegionCore (below) applies one request at
 * a time and treats each request as one batch; the fuzzer's region
 * family, the unit tests and the perfbench twin use it. ServiceServer
 * (service/server.hh) runs one sim thread per shard behind epoll IO
 * threads. Because both act on the same decisions, a single client
 * gets byte-identical responses from either.
 *
 * Determinism contract: region state is a pure function of the
 * applied request sequence. Shard s seeds its provider with
 * params.seed + s, so shard 0 of any region equals the single-chip
 * daemon fed the same requests.
 */

#ifndef CASH_SERVICE_REGION_HH
#define CASH_SERVICE_REGION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "cloud/placement.hh"
#include "cloud/provider.hh"
#include "service/core.hh"
#include "service/protocol.hh"

namespace cash::service
{

/** Region-level counters. */
struct RegionStats
{
    /** Completed cross-shard migrations (explicit + triggered). */
    std::uint64_t migrations = 0;
    /** Tenants the rebalance triggers shed. */
    std::uint64_t rebalances = 0;
};

/** Where one request goes (RegionEngine::route). */
struct Route
{
    enum class Kind : std::uint8_t
    {
        Answer, ///< answer now with `answer` (an error)
        Shard,  ///< apply `request` on `shard` alone
        All,    ///< apply `request` on every shard, then merge
    };
    Kind kind = Kind::All;
    cloud::ShardId shard = 0;
    /** The request to apply; a migrate's auto `to` is resolved. */
    Request request;
    JsonValue answer;
};

/** Samples the shards' loads; called only when a decision needs
 *  them. */
using LoadsFn = std::function<std::vector<cloud::ShardLoad>()>;

/**
 * The region decisions over N shards. Shard s's core and provider
 * belong to whoever schedules shard s; route, merge, afterBatch,
 * migrateIn and stats may be called from any thread (one mutex
 * guards the router and the counters), as long as afterBatch(s)
 * runs where shard s is scheduled and migrateIn(h) where h.to is.
 */
class RegionEngine
{
  public:
    /**
     * @param params per-shard provider parameters; shard s runs
     *        with seed params.seed + s
     * @param shards shard count, 1..cloud::kMaxShards
     * @param audit_each_quantum audit every shard after every
     *        applied request / stepped quantum
     * @param policy arrival placement policy
     * @param rebalance migration-trigger tunables
     */
    RegionEngine(const cloud::ProviderParams &params,
                 std::uint32_t shards, bool audit_each_quantum,
                 cloud::PlacementPolicy policy =
                     cloud::PlacementPolicy::BinPack,
                 const cloud::RebalanceParams &rebalance = {});

    /** Where `req` goes. Calls `loads` only for an arrival of a
     *  valid class and for an auto-target migrate. */
    Route route(const Request &req, const LoadsFn &loads);

    /** The region response to a fanned-out op, from its per-shard
     *  parts in shard order. */
    JsonValue merge(Op op, std::uint64_t id,
                    const std::vector<JsonValue> &parts);

    /** The after-batch hook of shard `self`: unless it is draining,
     *  plan a rebalance out of it, pick the migrant and migrate it
     *  out. Returns the hand-off to deliver, if any. */
    std::optional<Handoff> afterBatch(cloud::ShardId self,
                                      const LoadsFn &loads);

    /** Deliver a hand-off: migrate-in on shard h.to, counted. */
    JsonValue migrateIn(const Handoff &h);

    std::uint32_t shards() const
    {
        return static_cast<std::uint32_t>(cores_.size());
    }
    ServiceCore &core(std::uint32_t shard)
    {
        return *cores_[shard];
    }
    const cloud::CloudProvider &provider(std::uint32_t shard) const
    {
        return *providers_[shard];
    }
    RegionStats stats() const;

  private:
    cloud::PlacementRouter router_;
    RegionStats stats_;
    mutable std::mutex mutex_; ///< guards router_ and stats_
    std::vector<std::unique_ptr<cloud::CloudProvider>> providers_;
    std::vector<std::unique_ptr<ServiceCore>> cores_;
};

/**
 * The single-threaded scheduler: applies one request at a time, in
 * order, and runs the after-batch hook for every shard the request
 * touched (source before target for a migrate, shard order
 * otherwise).
 */
class RegionCore : public RegionEngine
{
  public:
    using RegionEngine::RegionEngine;

    /** Apply one request; always returns a response object. */
    JsonValue apply(const Request &req);

    /** Drain every shard and aggregate the final-bill report. */
    JsonValue drainReport();

    bool draining() const { return provider(0).draining(); }

  private:
    std::vector<cloud::ShardLoad> sampleLoads() const;
    void afterRequest(cloud::ShardId shard);
};

} // namespace cash::service

#endif // CASH_SERVICE_REGION_HH
