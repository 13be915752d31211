/**
 * @file
 * ServiceServer: a multi-chip region behind an epoll network
 * front-end.
 *
 * Threading model (strict ownership, no shared mutable simulator
 * state):
 *
 *  - One IO thread owns the listeners and every connection. It
 *    runs a level-triggered epoll(7) loop and does all accepts,
 *    reads, frame decoding, parsing, routing, and writes; protocol
 *    errors and backpressure (`queue_full`) are answered in place,
 *    so a flooding client cannot wedge a simulator. Sim threads hand
 *    responses back through its mailbox (mutex + eventfd wake).
 *
 *  - `shards` simulation threads each own one shard of a
 *    RegionEngine (service/region.hh) behind a BoundedQueue. The IO
 *    thread asks the engine where each request goes: an answer it
 *    writes in place (an error, or a read), one shard's queue
 *    (arrivals placed on the shards' loads, tenant ops by the shard
 *    byte of the tenant id), or one part per shard, where the last
 *    shard to finish merges the parts and publishes the response. A
 *    fanned-out op is all or nothing: it is refused unless every
 *    queue has room, and then every part applies. Cross-shard
 *    migration is a sim-to-sim hand-off: the source's migrate-out
 *    pushes a capacity-exempt task to the target's queue, whose
 *    migrate-in responds. After every batch a sim thread runs the
 *    engine's rebalance hook, which sheds only *out of* that
 *    thread's own shard.
 *
 *  - Reads are answered by the IO thread from published views. Each
 *    shard's ServiceCore publishes an immutable view (round, load,
 *    every tenant's query answer) after every task that changes it,
 *    before anything answers that task, so `ping` and `query` never
 *    wait behind a step, and a client's next request is routed and
 *    read on current state. A connection with a request still in
 *    flight (Connection::inFlight > 0) sends its reads through the
 *    queue instead, so its requests apply in order and it reads its
 *    own writes. `queue_full` never applies to a read answered from
 *    a view. The two region reads, snapshot and shards, still fan
 *    out through the queues.
 *
 * Determinism: each shard's state is a pure function of its applied
 * request sequence. One shard and one client reproduce the PR-5
 * daemon bit-for-bit; more shards only partition the sequence.
 *
 * Shutdown (stop(), the SIGTERM path) is a fleet-wide audited
 * drain: stop accepting and reading, wait for the IO thread (the
 * only thread that enqueues requests) to quiesce, wait for in-flight
 * tasks — migration chains included — to drain, close the queues,
 * let every sim thread drain its provider (final bills +
 * conservation audit), aggregate the per-shard reports into one
 * region report, then flush every outbox and exit.
 */

#ifndef CASH_SERVICE_SERVER_HH
#define CASH_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cloud/placement.hh"
#include "service/protocol.hh"
#include "service/queue.hh"
#include "service/region.hh"

namespace cash::service
{

/** Server tunables. */
struct ServerConfig
{
    /** Unix-domain listener path ("" = no Unix listener). A stale
     *  socket file at the path is unlinked first. */
    std::string unixPath;
    /** Listen on TCP (loopback). Port 0 picks an ephemeral port
     *  (see ServiceServer::tcpPort()). */
    bool listenTcp = false;
    std::uint16_t tcpPort = 0;
    /** Per-shard request-queue bound: beyond this the front-end
     *  answers `queue_full`. A region op needs room on every shard
     *  and then enqueues on all of them at once; only the
     *  capacity-exempt migration hand-offs exceed the bound. */
    std::size_t queueCapacity = 256;
    /** Close connections silent for this long (0 = never). */
    int idleTimeoutMs = 0;
    /** auditProvider() after every request and stepped quantum. */
    bool audit = false;
    /** Region size: one provider + sim thread each, 1..256. */
    std::uint32_t shards = 1;
    /** Arrival placement policy across the shards. */
    cloud::PlacementPolicy placement =
        cloud::PlacementPolicy::BinPack;
    /** Migration-trigger tunables (ignored with one shard). */
    cloud::RebalanceParams rebalance;
};

class ServiceServer
{
  public:
    /** Builds the region: shard s runs a CloudProvider seeded with
     *  params.seed + s. The server owns its providers. */
    ServiceServer(const cloud::ProviderParams &params,
                  const ServerConfig &config);
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /** Bind listeners and start the IO and simulation threads.
     *  fatal() on bind/listen failure. */
    void start();

    /**
     * Fleet-wide graceful drain, callable once from any thread
     * (the daemon calls it after SIGTERM); see the file comment
     * for the full sequence.
     */
    void stop();

    /** The bound TCP port (after start(); 0 if TCP is off). */
    std::uint16_t tcpPort() const { return boundTcpPort_; }

    /** Cross-shard migrations and rebalances so far. */
    RegionStats regionStats() const { return region_.stats(); }

    /** The aggregated region drain report captured by stop()
     *  ({"bills":...,"revenue":...,"departed":...}); null object
     *  before stop() completes. */
    const JsonValue &finalReport() const { return finalReport_; }

    const ServerConfig &config() const { return config_; }

    std::uint32_t shardCount() const { return region_.shards(); }

    /** Shard s's provider (stable address; read-safe only when its
     *  sim thread is quiesced, e.g. after stop()). */
    const cloud::CloudProvider &provider(std::uint32_t shard) const
    {
        return region_.provider(shard);
    }

  private:
    using Clock = std::chrono::steady_clock;

    struct Connection
    {
        int fd = -1;
        std::uint64_t id = 0;
        FrameDecoder decoder; ///< kDefaultMaxFrame per payload
        std::string outbox;     ///< framed bytes awaiting write
        std::size_t outOff = 0; ///< written prefix of outbox
        Clock::time_point lastActivity;
        /** Requests enqueued to sim threads whose responses have
         *  not yet been collected into the outbox. A half-closed
         *  connection stays open until this reaches zero, so the
         *  "flush pending responses, then close" contract holds;
         *  while it is non-zero, reads queue behind those requests
         *  instead of being answered from a view. */
        std::uint64_t inFlight = 0;
        bool readClosed = false;
        bool closeAfterFlush = false;
        /** The stream is poisoned: input is read and dropped. Once
         *  the last response is flushed the write side is shut and
         *  the socket closes at the client's EOF or at lingerUntil,
         *  so no unread bytes turn the close into a reset. */
        bool poisoned = false;
        bool writeClosed = false;
        Clock::time_point lingerUntil;
        /** Interest mask currently registered with epoll. */
        std::uint32_t epollMask = 0;
        bool registered = false;
    };

    /** Shared state of one fanned-out region op. The last sim
     *  thread to decrement `remaining` merges and responds. */
    struct Fanout
    {
        std::uint64_t connId = 0;
        std::uint64_t reqId = 0;
        Op op = Op::Snapshot;
        std::atomic<std::uint32_t> remaining{0};
        /** One slot per shard; each sim thread writes only its
         *  own (publication order via `remaining`). */
        std::vector<JsonValue> parts;
    };

    struct SimTask
    {
        enum class Kind : std::uint8_t
        {
            Single,    ///< one-shard request, direct response
            FanPart,   ///< this shard's part of a region op
            MigrateIn, ///< replay a serialized tenant here
        };
        Kind kind = Kind::Single;
        std::uint64_t connId = 0; ///< 0 = internal (no response)
        Request request;
        std::shared_ptr<Fanout> fanout;
        Handoff handoff; ///< MigrateIn only
    };

    struct Outgoing
    {
        std::uint64_t connId = 0;
        std::string framed;
    };

    /** One simulation shard's scheduling state (its provider and
     *  core live in region_). */
    struct Shard
    {
        std::unique_ptr<BoundedQueue<SimTask>> queue;
        std::thread thread;
        /** This shard's drain report, written by its sim thread
         *  after the queue closes. */
        JsonValue drainPartial;
    };

    void ioLoop();
    void simLoop(std::uint32_t shard);

    void acceptPending(int listen_fd);
    bool serviceRead(Connection &conn);
    void handleFrame(Connection &conn, const std::string &payload);
    void routeRequest(Connection &conn, const Request &req);
    void enqueueSingle(Connection &conn, const Request &req,
                       std::uint32_t shard);
    void enqueueFanout(Connection &conn, const Request &req);
    void respondNow(Connection &conn, const JsonValue &resp);
    bool serviceWrite(Connection &conn);
    void closeConnection(std::uint64_t conn_id);
    void collectMailbox();
    void updateInterest(Connection &conn);

    /** Hand a framed response to the IO thread. */
    void publish(std::uint64_t conn_id, std::string framed);

    /** Sim-thread handlers. */
    void simHandleTask(std::uint32_t shard, SimTask &task);
    /** Queue a migrate-in on the hand-off's target shard. */
    void handOff(std::uint64_t conn_id, Handoff h);

    void wake();

    ServerConfig config_;
    RegionEngine region_;
    std::vector<Shard> shards_;

    std::vector<int> listenFds_;
    std::uint16_t boundTcpPort_ = 0;

    // The IO thread and its event loop.
    int epollFd_ = -1;
    int wakeFd_ = -1; ///< eventfd
    std::thread ioThread_;
    std::mutex mailboxMutex_;
    /** Responses published by sim threads. */
    std::vector<Outgoing> outgoing_;
    /** IO-thread-only state. */
    std::map<std::uint64_t, std::unique_ptr<Connection>> conns_;
    std::uint64_t nextConnId_ = 1;

    /** Tasks enqueued (external + internal) and not yet fully
     *  processed; stop() waits for 0 before closing the queues so
     *  migration chains complete. */
    std::atomic<std::int64_t> pendingTasks_{0};
    /** Set by the IO thread once it has stopped reading. */
    std::atomic<bool> ioQuiesced_{false};

    std::atomic<bool> started_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> simDone_{false};
    std::atomic<bool> stopped_{false};
    std::mutex stopMutex_; ///< serializes stop() callers

    JsonValue finalReport_;
};

} // namespace cash::service

#endif // CASH_SERVICE_SERVER_HH
