/**
 * @file
 * ServiceServer: a multi-chip region behind an epoll network
 * front-end.
 *
 * Threading model (strict ownership, no shared mutable simulator
 * state):
 *
 *  - N `ioThreads` own the sockets, partitioned by connection id
 *    (owner = id % N). Each runs a level-triggered epoll(7) loop:
 *    thread 0 additionally owns the listeners and hands accepted
 *    connections to their owners through per-thread mailboxes
 *    (mutex + eventfd wake). An IO thread does all reads, frame
 *    decoding, parsing, routing, and writes for its connections;
 *    protocol errors and backpressure (`queue_full`) are answered
 *    in place, so a flooding client cannot wedge a simulator.
 *
 *  - `shards` simulation threads each own one shard of a
 *    RegionEngine (service/region.hh) behind a BoundedQueue. The IO
 *    thread asks the engine where each request goes: an error it
 *    answers in place, one shard's queue (arrivals placed on the
 *    shared load board, tenant ops by the shard byte of the tenant
 *    id), or one part per shard, where the last shard to finish
 *    merges the parts and publishes the response. Each sim thread
 *    republishes its shard's load after every task, before anything
 *    answers that task, so a client's next request is routed on
 *    current load. Cross-shard migration is a sim-to-sim hand-off:
 *    the source's migrate-out pushes a capacity-exempt task to the
 *    target's queue, whose migrate-in responds. After every batch a
 *    sim thread runs the engine's rebalance hook, which sheds only
 *    *out of* that thread's own shard.
 *
 * Determinism: each shard's state is a pure function of its applied
 * request sequence. One shard and one client reproduce the PR-5
 * daemon bit-for-bit; more shards only partition the sequence.
 *
 * Shutdown (stop(), the SIGTERM path) is a fleet-wide audited
 * drain: stop accepting and reading everywhere, wait for the IO
 * threads to quiesce, half-close the queues (closeExternal), wait
 * for in-flight tasks — migration chains included — to drain,
 * close the queues, let every sim thread drain its provider (final
 * bills + conservation audit), aggregate the per-shard reports into
 * one region report, then flush every outbox and exit.
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
     *  answers `queue_full`. */
    std::size_t queueCapacity = 256;
    /** Simulation-thread batch bound per queue drain. */
    std::size_t maxBatch = 64;
    /** Per-frame payload cap, bytes. */
    std::size_t maxFrame = kDefaultMaxFrame;
    /** Close connections silent for this long (0 = never). */
    int idleTimeoutMs = 0;
    /** Requests older than this at apply time are answered
     *  `deadline_exceeded` instead of applied (0 = no deadline). */
    int requestDeadlineMs = 0;
    /** auditProvider() after every request and stepped quantum. */
    bool audit = false;
    /** Region size: one provider + sim thread each, 1..256. */
    std::uint32_t shards = 1;
    /** Socket-owning event-loop threads. */
    std::uint32_t ioThreads = 1;
    /** Arrival placement policy across the shards. */
    cloud::PlacementPolicy placement =
        cloud::PlacementPolicy::BinPack;
    /** Migration-trigger tunables (ignored with one shard). */
    cloud::RebalanceParams rebalance;
};

/** Front-end accounting (atomics: many writer threads). */
struct ServerStats
{
    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> idleClosed{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> queueFull{0};
    std::atomic<std::uint64_t> deadlineExceeded{0};
    std::atomic<std::uint64_t> protocolErrors{0};
    std::atomic<std::uint64_t> batches{0};
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

    /** Wake the event loops for shutdown from a signal handler
     *  (async-signal-safe; the actual stop() still must be called
     *  from a normal thread). */
    void wakeFromSignal();

    /** The bound TCP port (after start(); 0 if TCP is off). */
    std::uint16_t tcpPort() const { return boundTcpPort_; }

    const ServerStats &stats() const { return stats_; }
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
        FrameDecoder decoder;
        std::string outbox;     ///< framed bytes awaiting write
        std::size_t outOff = 0; ///< written prefix of outbox
        Clock::time_point lastActivity;
        /** Requests enqueued to sim threads whose responses have
         *  not yet been collected into the outbox. A half-closed
         *  connection stays open until this reaches zero, so the
         *  "flush pending responses, then close" contract holds. */
        std::uint64_t inFlight = 0;
        bool readClosed = false;
        bool closeAfterFlush = false;
        /** Interest mask currently registered with epoll. */
        std::uint32_t epollMask = 0;
        bool registered = false;

        explicit Connection(std::size_t max_frame)
            : decoder(max_frame)
        {}
    };

    /** Shared state of one fanned-out region op. The last sim
     *  thread to decrement `remaining` merges and responds. */
    struct Fanout
    {
        std::uint64_t connId = 0;
        std::uint64_t reqId = 0;
        Op op = Op::Snapshot;
        std::atomic<std::uint32_t> remaining{0};
        /** First failure (errors::* constant), if any. */
        std::atomic<const char *> failCode{nullptr};
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
        Clock::time_point enqueued;
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

    /** One socket-owning event-loop thread. */
    struct IoThread
    {
        int epollFd = -1;
        int wakeFd = -1; ///< eventfd
        std::thread thread;
        std::mutex mailboxMutex;
        /** Connections accepted by thread 0, awaiting adoption. */
        std::vector<std::unique_ptr<Connection>> pendingConns;
        /** Responses published by sim threads. */
        std::vector<Outgoing> outgoing;
        /** Owner-thread-only state. */
        std::map<std::uint64_t, std::unique_ptr<Connection>> conns;
    };

    void ioLoop(std::uint32_t ti);
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
    void closeConnection(IoThread &io, std::uint64_t conn_id);
    void collectMailbox(IoThread &io);
    void updateInterest(IoThread &io, Connection &conn);

    /** Merge (or fail) a completed fanout into its response. */
    JsonValue finalizeFanout(Fanout &fanout);

    /** Hand a framed response to the owner IO thread. */
    void publish(std::uint64_t conn_id, std::string framed);

    /** Sim-thread handlers. */
    void simHandleTask(std::uint32_t shard, SimTask &task,
                       Clock::time_point now);
    /** Queue a migrate-in on the hand-off's target shard. */
    void handOff(std::uint64_t conn_id, Handoff h);
    /** Put the shard's current load on the board. */
    void publishLoad(std::uint32_t shard);

    std::vector<cloud::ShardLoad> copyLoads();
    void wake(std::uint32_t ti);
    void wakeAll();

    ServerConfig config_;
    RegionEngine region_;
    std::vector<Shard> shards_;
    std::vector<std::unique_ptr<IoThread>> ioThreads_;

    /** Load board: shard s's occupancy as last published by its
     *  sim thread. */
    std::mutex loadMutex_;
    std::vector<cloud::ShardLoad> loadBoard_;

    std::vector<int> listenFds_;
    std::uint16_t boundTcpPort_ = 0;

    std::atomic<std::uint64_t> nextConnId_{1};
    /** Tasks enqueued (external + internal) and not yet fully
     *  processed; stop() waits for 0 before closing the queues so
     *  migration chains complete. */
    std::atomic<std::int64_t> pendingTasks_{0};
    std::atomic<std::uint32_t> ioQuiesced_{0};

    std::atomic<bool> started_{false};
    std::atomic<bool> stopRequested_{false};
    std::atomic<bool> simDone_{false};
    std::atomic<bool> stopped_{false};
    std::mutex stopMutex_; ///< serializes stop() callers

    ServerStats stats_;
    JsonValue finalReport_;
};

} // namespace cash::service

#endif // CASH_SERVICE_SERVER_HH
