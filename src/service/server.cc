#include "service/server.hh"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>

#include "common/log.hh"
#include "trace/metrics.hh"
#include "trace/trace.hh"

namespace cash::service
{

namespace
{

/** Milliseconds between two steady_clock points. */
int
msBetween(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(to
                                                              - from)
            .count());
}

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Host-clock microseconds on the installed session's epoch, or
 *  -1 when no session is recording (span emission is skipped). */
double
traceNowUs()
{
#if CASH_TRACE_ENABLED
    if (trace::TraceSession *s = trace::TraceSession::active())
        return s->hostNowUs();
#endif
    return -1.0;
}

void
traceServiceSpan(const char *name, double t0_us,
                 std::initializer_list<trace::Arg> args)
{
#if CASH_TRACE_ENABLED
    if (t0_us < 0.0)
        return;
    double t1 = traceNowUs();
    if (t1 < 0.0)
        return;
    trace::emitHostSpan(trace::Category::Service, name, t0_us,
                        t1 - t0_us, args);
#else
    (void)name;
    (void)t0_us;
    (void)args;
#endif
}

constexpr int kFlushGraceMs = 2000;

/** epoll tag layout: 0 = wake eventfd, 1..kConnTagBase-1 =
 *  listener index + 1, >= kConnTagBase = connection id +
 *  kConnTagBase. */
constexpr std::uint64_t kConnTagBase = 8;

} // namespace

ServiceServer::ServiceServer(const cloud::ProviderParams &params,
                             const ServerConfig &config)
    : config_(config),
      region_(params, config.shards, config.audit, config.placement,
              config.rebalance),
      shards_(region_.shards())
{
    if (config_.ioThreads == 0)
        config_.ioThreads = 1;
    for (std::uint32_t s = 0; s < shardCount(); ++s) {
        shards_[s].queue = std::make_unique<BoundedQueue<SimTask>>(
            config_.queueCapacity);
        loadBoard_.push_back(region_.core(s).load());
    }
}

ServiceServer::~ServiceServer()
{
    if (started_.load() && !stopped_.load())
        stop();
    for (int fd : listenFds_)
        if (fd >= 0)
            ::close(fd);
    for (auto &io : ioThreads_) {
        if (io->wakeFd >= 0)
            ::close(io->wakeFd);
        if (io->epollFd >= 0)
            ::close(io->epollFd);
    }
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());
}

void
ServiceServer::start()
{
    if (started_.exchange(true))
        panic("ServiceServer::start() called twice");

    if (config_.unixPath.empty() && !config_.listenTcp)
        fatal("service: no listener configured (need a Unix path "
              "and/or TCP)");

    if (!config_.unixPath.empty()) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (config_.unixPath.size() >= sizeof(addr.sun_path))
            fatal("unix socket path too long: %s",
                  config_.unixPath.c_str());
        std::strncpy(addr.sun_path, config_.unixPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("socket(AF_UNIX): %s", std::strerror(errno));
        ::unlink(config_.unixPath.c_str()); // stale socket file
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr))
                != 0
            || ::listen(fd, 64) != 0)
            fatal("cannot listen on unix:%s: %s",
                  config_.unixPath.c_str(), std::strerror(errno));
        setNonBlocking(fd);
        listenFds_.push_back(fd);
    }

    if (config_.listenTcp) {
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            fatal("socket(AF_INET): %s", std::strerror(errno));
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(config_.tcpPort);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr))
                != 0
            || ::listen(fd, 64) != 0)
            fatal("cannot listen on tcp:%u: %s", config_.tcpPort,
                  std::strerror(errno));
        socklen_t len = sizeof(addr);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len);
        boundTcpPort_ = ntohs(addr.sin_port);
        setNonBlocking(fd);
        listenFds_.push_back(fd);
    }

    for (std::uint32_t ti = 0; ti < config_.ioThreads; ++ti) {
        auto io = std::make_unique<IoThread>();
        io->epollFd = ::epoll_create1(0);
        if (io->epollFd < 0)
            fatal("epoll_create1: %s", std::strerror(errno));
        io->wakeFd = ::eventfd(0, EFD_NONBLOCK);
        if (io->wakeFd < 0)
            fatal("eventfd: %s", std::strerror(errno));
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = 0;
        if (::epoll_ctl(io->epollFd, EPOLL_CTL_ADD, io->wakeFd,
                        &ev)
            != 0)
            fatal("epoll_ctl(wake): %s", std::strerror(errno));
        ioThreads_.push_back(std::move(io));
    }
    // Thread 0 owns the listeners.
    for (std::size_t i = 0; i < listenFds_.size(); ++i) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = 1 + i;
        if (::epoll_ctl(ioThreads_[0]->epollFd, EPOLL_CTL_ADD,
                        listenFds_[i], &ev)
            != 0)
            fatal("epoll_ctl(listener): %s", std::strerror(errno));
    }

    for (std::uint32_t s = 0; s < shardCount(); ++s)
        shards_[s].thread =
            std::thread([this, s] { simLoop(s); });
    for (std::uint32_t ti = 0; ti < config_.ioThreads; ++ti)
        ioThreads_[ti]->thread =
            std::thread([this, ti] { ioLoop(ti); });
}

void
ServiceServer::wake(std::uint32_t ti)
{
    std::uint64_t one = 1;
    // Best-effort: a saturated counter already guarantees a
    // pending wakeup.
    [[maybe_unused]] ssize_t n =
        ::write(ioThreads_[ti]->wakeFd, &one, sizeof(one));
}

void
ServiceServer::wakeAll()
{
    for (std::uint32_t ti = 0; ti < ioThreads_.size(); ++ti)
        wake(ti);
}

void
ServiceServer::wakeFromSignal()
{
    if (!started_.load(std::memory_order_relaxed))
        return;
    wakeAll(); // write(2)s only: async-signal-safe
}

void
ServiceServer::stop()
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    if (!started_.load() || stopped_.load())
        return;

    // Phase 1: stop admissions. IO threads close the listeners,
    // stop reading, and signal quiescence; after that no external
    // task can enter a queue.
    stopRequested_.store(true);
    wakeAll();
    while (ioQuiesced_.load(std::memory_order_acquire)
           < ioThreads_.size())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (Shard &sh : shards_)
        sh.queue->closeExternal();

    // Phase 2: let in-flight work — migration chains included —
    // drain to zero, then close the queues for real.
    while (pendingTasks_.load(std::memory_order_acquire) > 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    for (Shard &sh : shards_)
        sh.queue->close();

    // Phase 3: every sim thread drains its provider (final bills,
    // conservation audit) and exits; aggregate the shard reports
    // into the region report.
    for (Shard &sh : shards_)
        sh.thread.join();
    std::vector<JsonValue> parts;
    parts.reserve(shards_.size());
    for (Shard &sh : shards_)
        parts.push_back(sh.drainPartial);
    finalReport_ = region_.merge(Op::Drain, 0, parts);

    // Phase 4: IO threads flush the outboxes and exit.
    simDone_.store(true, std::memory_order_release);
    wakeAll();
    for (auto &io : ioThreads_)
        io->thread.join();
    stopped_.store(true);
}

// ---------------------------------------------------------------
// IO threads.
// ---------------------------------------------------------------

void
ServiceServer::updateInterest(IoThread &io, Connection &conn)
{
    std::uint32_t mask = 0;
    if (!conn.readClosed)
        mask |= EPOLLIN;
    if (conn.outOff < conn.outbox.size())
        mask |= EPOLLOUT;
    if (mask == conn.epollMask && conn.registered == (mask != 0))
        return;
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = kConnTagBase + conn.id;
    if (mask == 0) {
        // A fully quiet connection (half-closed, outbox empty,
        // responses still owed) comes off the interest set: with
        // level-triggered epoll its EPOLLHUP would otherwise spin
        // the loop. The mailbox wake fires when a response lands.
        if (conn.registered)
            ::epoll_ctl(io.epollFd, EPOLL_CTL_DEL, conn.fd,
                        nullptr);
        conn.registered = false;
    } else if (!conn.registered) {
        ::epoll_ctl(io.epollFd, EPOLL_CTL_ADD, conn.fd, &ev);
        conn.registered = true;
    } else if (mask != conn.epollMask) {
        ::epoll_ctl(io.epollFd, EPOLL_CTL_MOD, conn.fd, &ev);
    }
    conn.epollMask = mask;
}

void
ServiceServer::acceptPending(int listen_fd)
{
    while (true) {
        int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            if (errno == EINTR)
                continue;
            warn("service: accept failed: %s",
                 std::strerror(errno));
            return;
        }
        setNonBlocking(fd);
        int one = 1;
        // Request/response framing: latency beats Nagle batching.
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        auto conn = std::make_unique<Connection>(config_.maxFrame);
        conn->fd = fd;
        conn->id = nextConnId_.fetch_add(1);
        conn->lastActivity = Clock::now();
        stats_.accepted.fetch_add(1, std::memory_order_relaxed);
        CASH_METRIC_INC("service.accepted");
        CASH_TRACE_HOST_SPAN(trace::Category::Service, "accept",
                             traceNowUs(), 0.0,
                             {{"conn", conn->id}});
        std::uint32_t owner =
            static_cast<std::uint32_t>(conn->id % ioThreads_.size());
        if (owner == 0) {
            Connection &c = *conn;
            ioThreads_[0]->conns.emplace(c.id, std::move(conn));
            updateInterest(*ioThreads_[0], c);
        } else {
            IoThread &target = *ioThreads_[owner];
            {
                std::lock_guard<std::mutex> lock(
                    target.mailboxMutex);
                target.pendingConns.push_back(std::move(conn));
            }
            wake(owner);
        }
    }
}

void
ServiceServer::respondNow(Connection &conn, const JsonValue &resp)
{
    conn.outbox += encodeFrame(resp.dump());
    stats_.responses.fetch_add(1, std::memory_order_relaxed);
}

std::vector<cloud::ShardLoad>
ServiceServer::copyLoads()
{
    std::lock_guard<std::mutex> lock(loadMutex_);
    return loadBoard_;
}

void
ServiceServer::enqueueSingle(Connection &conn, const Request &req,
                             std::uint32_t shard)
{
    double t0 = traceNowUs();
    SimTask task;
    task.kind = SimTask::Kind::Single;
    task.connId = conn.id;
    task.request = req;
    task.enqueued = Clock::now();
    pendingTasks_.fetch_add(1, std::memory_order_acq_rel);
    if (!shards_[shard].queue->tryPush(std::move(task))) {
        pendingTasks_.fetch_sub(1, std::memory_order_acq_rel);
        stats_.queueFull.fetch_add(1, std::memory_order_relaxed);
        CASH_METRIC_INC("service.queue_full");
        respondNow(conn,
                   errorResponse(req.id, errors::QueueFull,
                                 "request queue is full; retry"));
        return;
    }
    ++conn.inFlight;
    traceServiceSpan("enqueue", t0,
                     {{"conn", conn.id},
                      {"req", req.id},
                      {"shard", shard}});
}

void
ServiceServer::enqueueFanout(Connection &conn, const Request &req)
{
    double t0 = traceNowUs();
    std::uint32_t n = shardCount();
    auto fan = std::make_shared<Fanout>();
    fan->connId = conn.id;
    fan->reqId = req.id;
    fan->op = req.op;
    fan->remaining.store(n, std::memory_order_relaxed);
    fan->parts.resize(n);

    ++conn.inFlight;
    bool finalize_here = false;
    Clock::time_point now = Clock::now();
    for (std::uint32_t s = 0; s < n; ++s) {
        SimTask task;
        task.kind = SimTask::Kind::FanPart;
        task.connId = conn.id;
        task.request = req;
        task.enqueued = now;
        task.fanout = fan;
        pendingTasks_.fetch_add(1, std::memory_order_acq_rel);
        if (shards_[s].queue->tryPush(std::move(task)))
            continue;
        pendingTasks_.fetch_sub(1, std::memory_order_acq_rel);
        fan->failCode.store(errors::QueueFull,
                            std::memory_order_relaxed);
        if (fan->remaining.fetch_sub(1, std::memory_order_acq_rel)
            == 1)
            finalize_here = true;
    }
    if (finalize_here) {
        // Every shard refused the part (or the last refusal raced
        // the other shards' completions): respond in place.
        --conn.inFlight;
        respondNow(conn, finalizeFanout(*fan));
    }
    traceServiceSpan("fanout", t0,
                     {{"conn", conn.id},
                      {"req", req.id},
                      {"shards", n}});
}

void
ServiceServer::routeRequest(Connection &conn, const Request &req)
{
    Route r = region_.route(req, [this] { return copyLoads(); });
    switch (r.kind) {
      case Route::Kind::Answer:
        respondNow(conn, r.answer);
        return;
      case Route::Kind::Shard:
        enqueueSingle(conn, r.request, r.shard);
        return;
      case Route::Kind::All:
        enqueueFanout(conn, r.request);
        return;
    }
}

void
ServiceServer::handleFrame(Connection &conn,
                           const std::string &payload)
{
    std::string parse_err;
    std::optional<JsonValue> doc = parseJson(payload, &parse_err);
    if (!doc) {
        // Undecodable JSON inside an intact frame: the stream
        // framing is still sound, but the client is broken enough
        // that continuing only produces more garbage.
        stats_.protocolErrors.fetch_add(1,
                                        std::memory_order_relaxed);
        CASH_METRIC_INC("service.protocol_errors");
        respondNow(conn,
                   errorResponse(0, errors::Malformed, parse_err));
        conn.readClosed = true;
        conn.closeAfterFlush = true;
        return;
    }
    std::string code, detail;
    std::uint64_t id = 0;
    std::optional<Request> req =
        parseRequest(*doc, &code, &detail, &id);
    if (!req) {
        // A well-formed frame with a bad request keeps the
        // connection: the client can correct itself.
        stats_.protocolErrors.fetch_add(1,
                                        std::memory_order_relaxed);
        CASH_METRIC_INC("service.protocol_errors");
        respondNow(conn, errorResponse(id, code.c_str(), detail));
        return;
    }
    stats_.requests.fetch_add(1, std::memory_order_relaxed);
    CASH_METRIC_INC("service.requests");
    if (stopRequested_.load(std::memory_order_relaxed)) {
        respondNow(conn,
                   errorResponse(req->id, errors::Draining,
                                 "server is shutting down"));
        return;
    }
    routeRequest(conn, *req);
}

bool
ServiceServer::serviceRead(Connection &conn)
{
    char buf[4096];
    while (true) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n > 0) {
            conn.lastActivity = Clock::now();
            conn.decoder.feed(buf, static_cast<std::size_t>(n));
            while (auto payload = conn.decoder.next())
                handleFrame(conn, *payload);
            if (const char *err = conn.decoder.error()) {
                stats_.protocolErrors.fetch_add(
                    1, std::memory_order_relaxed);
                CASH_METRIC_INC("service.protocol_errors");
                respondNow(conn,
                           errorResponse(0, err,
                                         "frame stream poisoned; "
                                         "closing"));
                conn.readClosed = true;
                conn.closeAfterFlush = true;
            }
            if (conn.readClosed)
                return true;
            if (static_cast<std::size_t>(n) < sizeof(buf))
                return true;
            continue;
        }
        if (n == 0) {
            // Orderly half-close: the client sent everything and
            // now reads; flush pending responses, then close.
            conn.readClosed = true;
            conn.closeAfterFlush = true;
            return true;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return true;
        if (errno == EINTR)
            continue;
        return false; // reset/broken: drop the connection
    }
}

bool
ServiceServer::serviceWrite(Connection &conn)
{
    while (conn.outOff < conn.outbox.size()) {
        ssize_t n = ::send(conn.fd, conn.outbox.data() + conn.outOff,
                           conn.outbox.size() - conn.outOff,
                           MSG_NOSIGNAL);
        if (n > 0) {
            conn.outOff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            return true;
        if (n < 0 && errno == EINTR)
            continue;
        return false;
    }
    if (conn.outOff == conn.outbox.size()) {
        conn.outbox.clear();
        conn.outOff = 0;
    }
    return true;
}

void
ServiceServer::closeConnection(IoThread &io, std::uint64_t conn_id)
{
    auto it = io.conns.find(conn_id);
    if (it == io.conns.end())
        return;
    ::close(it->second->fd); // closing deregisters from epoll
    io.conns.erase(it);
    stats_.closed.fetch_add(1, std::memory_order_relaxed);
}

void
ServiceServer::collectMailbox(IoThread &io)
{
    std::vector<std::unique_ptr<Connection>> fresh;
    std::vector<Outgoing> outs;
    {
        std::lock_guard<std::mutex> lock(io.mailboxMutex);
        fresh.swap(io.pendingConns);
        outs.swap(io.outgoing);
    }
    for (auto &conn : fresh) {
        if (stopRequested_.load(std::memory_order_relaxed))
            conn->readClosed = true;
        Connection &c = *conn;
        io.conns.emplace(c.id, std::move(conn));
        updateInterest(io, c);
    }
    for (Outgoing &out : outs) {
        auto it = io.conns.find(out.connId);
        if (it == io.conns.end())
            continue; // client left before its answer was ready
        it->second->outbox += out.framed;
        if (it->second->inFlight > 0)
            --it->second->inFlight;
        stats_.responses.fetch_add(1, std::memory_order_relaxed);
    }
}

void
ServiceServer::ioLoop(std::uint32_t ti)
{
    IoThread &io = *ioThreads_[ti];
    bool stop_begun = false;
    bool flushing = false;
    Clock::time_point flush_deadline{};
    std::vector<epoll_event> events(128);

    while (true) {
        if (stopRequested_.load(std::memory_order_relaxed)
            && !stop_begun) {
            stop_begun = true;
            if (ti == 0) {
                for (int fd : listenFds_)
                    if (fd >= 0)
                        ::close(fd);
                listenFds_.clear();
            }
            // No more reads: everything already decoded has been
            // routed; quiescence tells stop() the queues can be
            // half-closed.
            for (auto &kv : io.conns)
                kv.second->readClosed = true;
            ioQuiesced_.fetch_add(1, std::memory_order_release);
        }

        collectMailbox(io);

        if (simDone_.load(std::memory_order_acquire)
            && !flushing) {
            flushing = true;
            flush_deadline = Clock::now()
                + std::chrono::milliseconds(kFlushGraceMs);
        }

        if (flushing) {
            bool all_flushed = true;
            std::vector<std::uint64_t> dead;
            for (auto &kv : io.conns) {
                Connection &conn = *kv.second;
                if (!serviceWrite(conn)) {
                    dead.push_back(conn.id);
                    continue;
                }
                if (conn.outOff < conn.outbox.size())
                    all_flushed = false;
            }
            for (std::uint64_t id : dead)
                closeConnection(io, id);
            if (all_flushed || Clock::now() >= flush_deadline) {
                std::vector<std::uint64_t> ids;
                for (auto &kv : io.conns)
                    ids.push_back(kv.first);
                for (std::uint64_t id : ids)
                    closeConnection(io, id);
                return;
            }
        }

        // --- Maintenance: retire finished connections, refresh
        // epoll interest for the rest.
        {
            std::vector<std::uint64_t> done;
            for (auto &kv : io.conns) {
                Connection &conn = *kv.second;
                if (conn.closeAfterFlush && conn.inFlight == 0
                    && conn.outOff >= conn.outbox.size()) {
                    done.push_back(conn.id);
                    continue;
                }
                updateInterest(io, conn);
            }
            for (std::uint64_t id : done)
                closeConnection(io, id);
        }

        int timeout = -1;
        if (flushing || stop_begun) {
            timeout = 50;
        } else if (config_.idleTimeoutMs > 0) {
            Clock::time_point now = Clock::now();
            timeout = config_.idleTimeoutMs;
            for (auto &kv : io.conns) {
                int left = config_.idleTimeoutMs
                    - msBetween(kv.second->lastActivity, now);
                timeout = std::max(0, std::min(timeout, left));
            }
        }

        int rc = ::epoll_wait(io.epollFd, events.data(),
                              static_cast<int>(events.size()),
                              timeout);
        if (rc < 0 && errno != EINTR) {
            warn("service: epoll_wait failed: %s",
                 std::strerror(errno));
            return;
        }

        std::vector<std::uint64_t> dead;
        for (int i = 0; i < rc; ++i) {
            std::uint64_t tag = events[i].data.u64;
            std::uint32_t ev = events[i].events;
            if (tag == 0) {
                std::uint64_t drained = 0;
                while (::read(io.wakeFd, &drained,
                              sizeof(drained))
                       > 0) {
                }
                continue;
            }
            if (tag < kConnTagBase) {
                std::size_t li = static_cast<std::size_t>(tag - 1);
                if (!stop_begun && li < listenFds_.size())
                    acceptPending(listenFds_[li]);
                continue;
            }
            std::uint64_t id = tag - kConnTagBase;
            auto it = io.conns.find(id);
            if (it == io.conns.end())
                continue;
            Connection &conn = *it->second;
            if (ev & EPOLLERR) {
                dead.push_back(id);
                continue;
            }
            if ((ev & EPOLLIN) && !conn.readClosed) {
                if (!serviceRead(conn)) {
                    dead.push_back(id);
                    continue;
                }
            }
            if ((ev & EPOLLHUP) && conn.readClosed
                && conn.outOff >= conn.outbox.size()) {
                dead.push_back(id);
                continue;
            }
            if (conn.outOff < conn.outbox.size()) {
                if (!serviceWrite(conn)) {
                    dead.push_back(id);
                    continue;
                }
            }
        }
        for (std::uint64_t id : dead)
            closeConnection(io, id);

        // --- Idle reaping.
        if (config_.idleTimeoutMs > 0 && !stop_begun) {
            Clock::time_point now = Clock::now();
            std::vector<std::uint64_t> idle;
            for (auto &kv : io.conns)
                if (msBetween(kv.second->lastActivity, now)
                    >= config_.idleTimeoutMs)
                    idle.push_back(kv.first);
            for (std::uint64_t id : idle) {
                stats_.idleClosed.fetch_add(
                    1, std::memory_order_relaxed);
                CASH_METRIC_INC("service.idle_closed");
                closeConnection(io, id);
            }
        }
    }
}

// ---------------------------------------------------------------
// Simulation threads.
// ---------------------------------------------------------------

void
ServiceServer::publish(std::uint64_t conn_id, std::string framed)
{
    std::uint32_t owner =
        static_cast<std::uint32_t>(conn_id % ioThreads_.size());
    IoThread &io = *ioThreads_[owner];
    {
        std::lock_guard<std::mutex> lock(io.mailboxMutex);
        io.outgoing.push_back({conn_id, std::move(framed)});
    }
    wake(owner);
}

JsonValue
ServiceServer::finalizeFanout(Fanout &fanout)
{
    if (const char *code =
            fanout.failCode.load(std::memory_order_relaxed)) {
        if (code == errors::QueueFull) {
            stats_.queueFull.fetch_add(1,
                                       std::memory_order_relaxed);
            CASH_METRIC_INC("service.queue_full");
            return errorResponse(fanout.reqId, code,
                                 "request queue is full; retry");
        }
        stats_.deadlineExceeded.fetch_add(
            1, std::memory_order_relaxed);
        CASH_METRIC_INC("service.deadline_exceeded");
        return errorResponse(fanout.reqId, code,
                             "queued past the request deadline");
    }
    return region_.merge(fanout.op, fanout.reqId, fanout.parts);
}

void
ServiceServer::publishLoad(std::uint32_t shard)
{
    cloud::ShardLoad load = region_.core(shard).load();
    std::lock_guard<std::mutex> lock(loadMutex_);
    loadBoard_[shard] = load;
}

void
ServiceServer::handOff(std::uint64_t conn_id, Handoff h)
{
    SimTask mt;
    mt.kind = SimTask::Kind::MigrateIn;
    mt.connId = conn_id;
    std::uint32_t to = h.to;
    mt.handoff = std::move(h);
    pendingTasks_.fetch_add(1, std::memory_order_acq_rel);
    shards_[to].queue->pushInternal(std::move(mt));
}

void
ServiceServer::simHandleTask(std::uint32_t shard, SimTask &task,
                             Clock::time_point now)
{
    ServiceCore &core = region_.core(shard);
    bool late = config_.requestDeadlineMs > 0
        && task.kind != SimTask::Kind::MigrateIn
        && msBetween(task.enqueued, now) > config_.requestDeadlineMs;
    auto traced_apply = [&] {
        double t0 = traceNowUs();
        JsonValue resp = core.apply(task.request);
        traceServiceSpan(opName(task.request.op), t0,
                         {{"conn", task.connId},
                          {"req", task.request.id},
                          {"shard", shard}});
        return resp;
    };

    JsonValue resp;
    std::optional<Handoff> handoff;
    switch (task.kind) {
      case SimTask::Kind::Single:
        if (late) {
            stats_.deadlineExceeded.fetch_add(
                1, std::memory_order_relaxed);
            CASH_METRIC_INC("service.deadline_exceeded");
            resp = errorResponse(task.request.id,
                                 errors::DeadlineExceeded,
                                 "queued past the request "
                                 "deadline");
        } else if (task.request.op == Op::Migrate) {
            std::variant<Handoff, JsonValue> out =
                core.migrateOut(task.request);
            if (Handoff *h = std::get_if<Handoff>(&out))
                handoff = std::move(*h); // the target answers
            else
                resp = std::move(std::get<JsonValue>(out));
        } else {
            resp = traced_apply();
        }
        break;
      case SimTask::Kind::FanPart:
        if (late)
            task.fanout->failCode.store(errors::DeadlineExceeded,
                                        std::memory_order_relaxed);
        else
            task.fanout->parts[shard] = traced_apply();
        break;
      case SimTask::Kind::MigrateIn:
        resp = region_.migrateIn(task.handoff);
        break;
    }

    // The load goes on the board before anything answers this task,
    // so the client's next request is routed on it.
    publishLoad(shard);
    if (handoff) {
        handOff(task.connId, std::move(*handoff));
    } else if (task.kind == SimTask::Kind::FanPart) {
        Fanout &fan = *task.fanout;
        if (fan.remaining.fetch_sub(1, std::memory_order_acq_rel)
            == 1)
            publish(fan.connId,
                    encodeFrame(finalizeFanout(fan).dump()));
    } else if (task.connId != 0) { // 0: a rebalance, nobody to answer
        publish(task.connId, encodeFrame(resp.dump()));
    }
}

void
ServiceServer::simLoop(std::uint32_t shard)
{
    Shard &sh = shards_[shard];
    std::vector<SimTask> batch;
    while (sh.queue->popBatch(batch, config_.maxBatch)) {
        stats_.batches.fetch_add(1, std::memory_order_relaxed);
        CASH_METRIC_SAMPLE("service.batch_size",
                           static_cast<double>(batch.size()));
        double batch_t0 = traceNowUs();
        Clock::time_point now = Clock::now();
        for (SimTask &task : batch)
            simHandleTask(shard, task, now);
        traceServiceSpan("batch", batch_t0,
                         {{"shard", shard},
                          {"requests", batch.size()}});
        // The rebalance hook; shards stop shedding once the fleet
        // drains.
        if (!stopRequested_.load(std::memory_order_relaxed))
            if (auto h = region_.afterBatch(
                    shard, [this] { return copyLoads(); })) {
                CASH_TRACE_HOST_SPAN(trace::Category::Service,
                                     "rebalance", traceNowUs(), 0.0,
                                     {{"from", shard}, {"to", h->to}});
                handOff(0, std::move(*h));
            }
        // Only now is the batch done: stop() cannot see zero pending
        // tasks while the hook may still hand a tenant off.
        pendingTasks_.fetch_sub(static_cast<std::int64_t>(batch.size()),
                                std::memory_order_acq_rel);
    }

    // Queue closed and drained: the fleet-drain path. Finish with
    // this shard's provider drain — final bills, conservation
    // audit — and leave the partial for stop() to aggregate.
    sh.drainPartial = region_.core(shard).drainReport();
}

} // namespace cash::service
