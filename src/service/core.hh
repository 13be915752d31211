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
 */

#ifndef CASH_SERVICE_CORE_HH
#define CASH_SERVICE_CORE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "cloud/placement.hh"
#include "cloud/provider.hh"
#include "service/protocol.hh"

namespace cash::service
{

/** Serialize a migration snapshot. `src_seed` travels as a decimal
 *  string: JSON numbers are doubles and seeds use all 64 bits. */
JsonValue snapshotToJson(const cloud::TenantSnapshot &snap);

/** Parse a migration snapshot; nullopt when a field is missing or
 *  out of range. */
std::optional<cloud::TenantSnapshot>
snapshotFromJson(const JsonValue &v);

/**
 * A tenant in flight between shards: what migrate-out on the source
 * hands to migrate-in on the target. The snapshot travels as JSON
 * text even in-process, so every migration proves the wire format
 * round-trips.
 */
struct Handoff
{
    std::uint64_t reqId = 0; ///< migrate request id; 0 = rebalance
    cloud::ShardId from = 0;
    cloud::ShardId to = 0;
    std::uint64_t stallCycles = 0;
    std::string snapshotJson;
};

/** Counters of what the core has applied (single-threaded). */
struct CoreStats
{
    std::uint64_t applied = 0;
    std::uint64_t failed = 0; ///< responses with ok:false
    std::uint64_t quanta = 0; ///< provider rounds stepped
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
     *  engine merges. */
    JsonValue apply(const Request &req);

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

    const CoreStats &stats() const { return stats_; }
    const cloud::CloudProvider &provider() const
    {
        return provider_;
    }
    cloud::ShardId shardId() const { return shardId_; }

    /** This shard's occupancy, for the placement router. */
    cloud::ShardLoad load() const
    {
        return cloud::loadOf(provider_);
    }

  private:
    JsonValue applyArrive(const Request &req);
    JsonValue applyDepart(const Request &req);
    JsonValue applyQuery(const Request &req);
    JsonValue applyStep(const Request &req);
    JsonValue applySnapshot(const Request &req);
    JsonValue applyShardInfo(const Request &req);
    JsonValue applyEnergy(const Request &req);

    /** Map a region tenant id onto this shard; sets *resp to an
     *  unknown_tenant error and returns false when it lives
     *  elsewhere. */
    bool localId(const Request &req, std::uint32_t &local,
                 JsonValue *resp) const;

    void maybeAudit();

    cloud::CloudProvider &provider_;
    bool audit_;
    cloud::ShardId shardId_;
    CoreStats stats_;
};

} // namespace cash::service

#endif // CASH_SERVICE_CORE_HH
