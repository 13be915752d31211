/**
 * @file
 * ServiceCore: the sockets-free heart of the daemon.
 *
 * Applies decoded protocol requests (service/protocol.hh) to one
 * CloudProvider, exactly one request at a time, and produces the
 * response object. The server's simulation thread drives it with
 * dequeued batches; the fuzzer's `--mode service` family and the
 * unit tests drive it directly — same code path, no network.
 *
 * Determinism contract: a ServiceCore's provider state is a pure
 * function of the *sequence* of applied requests (the provider's own
 * seeded arrival stream included). Two daemons fed the same request
 * order compute identical bills; what concurrency changes is only
 * which order concurrent clients' requests win.
 *
 * All provider mutation happens inside apply(), between quanta —
 * Step runs whole quanta and everything else runs at a quantum
 * boundary by construction. With `auditEachQuantum` set (the daemon
 * enables it in CASH_CHECK_INVARIANTS builds), auditProvider() runs
 * after every applied request and after every quantum inside a
 * Step, so a protocol-reachable conservation bug throws
 * InvariantError instead of corrupting bills silently.
 *
 * Reads never touch the provider. Every call that changes it (an
 * arrive, depart, step, drain, migrate-out or migrate-in) ends by
 * publishing an immutable ShardView: the round, the shard's load and
 * each tenant's query answer, its joules folded right there. ping and
 * query are answered from the current view — by read(), from any
 * thread — so a reader never waits for the shard's thread, and when
 * queries arrive does not change what the meters sum. The daemon's
 * IO thread answers reads this way unless the client still has a
 * request in flight; then the read queues behind it, applies here
 * through apply(), and so sees that request's effects. A read answered
 * by the IO thread never meets `queue_full`.
 * The two region reads, snapshot and shards, still apply on the
 * shard's thread: each shard builds one snapshot part, which the
 * region engine merges into region totals (snapshot) or lists per
 * shard (shards).
 */

#ifndef CASH_SERVICE_CORE_HH
#define CASH_SERVICE_CORE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

#include "cloud/placement.hh"
#include "cloud/provider.hh"
#include "service/protocol.hh"

namespace cash::service
{

/**
 * A tenant in flight between shards: what migrate-out on the source
 * hands to migrate-in on the target, by value (both ends run in one
 * process).
 */
struct Handoff
{
    std::uint64_t reqId = 0; ///< migrate request id; 0 = rebalance
    cloud::ShardId from = 0;
    cloud::ShardId to = 0;
    cloud::TenantSnapshot snapshot;
};

/**
 * What one shard answers reads from: its state as of the last call
 * that changed it. Immutable once published.
 */
struct ShardView
{
    /** The fields of one tenant's query answer. */
    struct Tenant
    {
        std::string app;
        cloud::TenantState state = cloud::TenantState::Queued;
        double bill = 0.0;
        double joules = 0.0;
        double energyBill = 0.0;
        std::uint64_t qosSamples = 0;
        std::uint64_t qosViolations = 0;
        std::uint64_t activeRounds = 0;

        /** Departed, rejected and migrated tenants never change
         *  again, so later views share their answer. */
        bool isFinal() const
        {
            return state != cloud::TenantState::Queued
                && state != cloud::TenantState::Active;
        }
    };

    std::uint64_t round = 0;
    /** The shard's occupancy, for the placement router. */
    cloud::ShardLoad load;
    /** Indexed by local tenant id. */
    std::vector<std::shared_ptr<const Tenant>> tenants;
};

class ServiceCore
{
  public:
    /**
     * @param provider the provider to serve (not owned)
     * @param audit_each_quantum run auditProvider() after every
     *        request and stepped quantum
     * @param shard_id this core's shard within its region; tenant
     *        ids on the wire carry it in their top byte (shard 0 —
     *        the single-chip default — leaves ids unchanged)
     */
    ServiceCore(cloud::CloudProvider &provider,
                bool audit_each_quantum,
                cloud::ShardId shard_id = 0);

    /** Apply one request; always returns a response object.
     *  Op::Migrate crosses shards, so it goes through
     *  migrateOut/migrateIn and answers bad_request here;
     *  the fan-out ops produce this shard's part, which the region
     *  engine merges (snapshot and shards share one part); ping and
     *  query are answered by read(). */
    JsonValue apply(const Request &req);

    /** Answer a ping or a query from the published view. Touches no
     *  provider state, so any thread may call it. */
    JsonValue read(const Request &req) const;

    /** The current view (any thread). */
    std::shared_ptr<const ShardView> view() const;

    /** Migrate-out of a routed migrate request (req.tenant lives on
     *  this shard, req.to is the target): the hand-off, or the error
     *  response when the tenant is not active here or is
     *  request-driven. Audits, like every mutation. */
    std::variant<Handoff, JsonValue> migrateOut(const Request &req);

    /** Migrate-in: replay a hand-off onto this shard and build the
     *  migrate response. Audits. */
    JsonValue migrateIn(const Handoff &h);

    /** Drain the provider (idempotent) and return the final-bill
     *  report the daemon emits on SIGTERM: {"bills":[...],
     *  "revenue":$,"departed":N}. Audits after draining. */
    JsonValue drainReport();

    /** True once a drain op (or drainReport) closed admissions. */
    bool draining() const { return provider_.draining(); }

    const cloud::CloudProvider &provider() const
    {
        return provider_;
    }

    /** This shard's occupancy as last published (any thread). */
    cloud::ShardLoad load() const { return view()->load; }

  private:
    JsonValue applyArrive(const Request &req);
    JsonValue applyDepart(const Request &req);
    JsonValue applyStep(const Request &req);
    /** This shard's part of a snapshot or shards answer: its
     *  counters, SLA tallies, placement state and joule ledgers. */
    JsonValue applySnapshot(const Request &req);

    /** Map a region tenant id onto this shard; sets *resp to an
     *  unknown_tenant error and returns false when it lives
     *  elsewhere. */
    bool localId(const Request &req, std::uint32_t &local,
                 JsonValue *resp) const;

    void maybeAudit();

    /** Publish the provider's current state as the new view. Only
     *  tenants that were live in the previous view, and new ones,
     *  are read again. */
    void publishView();

    cloud::CloudProvider &provider_;
    bool audit_;
    cloud::ShardId shardId_;

    mutable std::mutex viewMutex_; ///< guards the view_ pointer
    std::shared_ptr<const ShardView> view_;
};

} // namespace cash::service

#endif // CASH_SERVICE_CORE_HH
