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
    if (trace::TraceSession *s = trace::TraceSession::active())
        return s->hostNowUs();
    return -1.0;
}

void
traceServiceSpan(const char *name, double t0_us,
                 std::initializer_list<trace::Arg> args)
{
    if (t0_us < 0.0)
        return;
    double t1 = traceNowUs();
    if (t1 < 0.0)
        return;
    trace::emitHostSpan(trace::Category::Service, name, t0_us,
                        t1 - t0_us, args);
}

/** The backpressure answer, counted. */
JsonValue
queueFull(std::uint64_t id)
{
    CASH_METRIC_INC("service.queue_full");
    return errorResponse(id, errors::QueueFull,
                         "request queue is full; retry");
}

/** Simulation-thread batch bound per queue drain. */
constexpr std::size_t kMaxBatch = 64;

/** How long a peer gets to take its last bytes: the final flush at
 *  stop, and a poisoned connection's lingering close. */
constexpr int kGraceMs = 2000;

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
    for (std::uint32_t s = 0; s < shardCount(); ++s)
        shards_[s].queue = std::make_unique<BoundedQueue<SimTask>>(
            config_.queueCapacity);
}

ServiceServer::~ServiceServer()
{
    // A start() that failed before its threads ran has nothing to
    // drain.
    if (ioThread_.joinable() && !stopped_.load())
        stop();
    for (int fd : listenFds_)
        if (fd >= 0)
            ::close(fd);
    if (wakeFd_ >= 0)
        ::close(wakeFd_);
    if (epollFd_ >= 0)
        ::close(epollFd_);
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

    epollFd_ = ::epoll_create1(0);
    if (epollFd_ < 0)
        fatal("epoll_create1: %s", std::strerror(errno));
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (wakeFd_ < 0)
        fatal("eventfd: %s", std::strerror(errno));
    epoll_event wake_ev{};
    wake_ev.events = EPOLLIN;
    wake_ev.data.u64 = 0;
    if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, wakeFd_, &wake_ev) != 0)
        fatal("epoll_ctl(wake): %s", std::strerror(errno));
    for (std::size_t i = 0; i < listenFds_.size(); ++i) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = 1 + i;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFds_[i], &ev)
            != 0)
            fatal("epoll_ctl(listener): %s", std::strerror(errno));
    }

    for (std::uint32_t s = 0; s < shardCount(); ++s)
        shards_[s].thread =
            std::thread([this, s] { simLoop(s); });
    ioThread_ = std::thread([this] { ioLoop(); });
}

void
ServiceServer::wake()
{
    std::uint64_t one = 1;
    // Best-effort: a saturated counter already guarantees a
    // pending wakeup.
    [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void
ServiceServer::stop()
{
    std::lock_guard<std::mutex> lock(stopMutex_);
    if (!started_.load() || stopped_.load())
        return;

    // Phase 1: stop admissions. The IO thread closes the listeners,
    // stops reading, and signals quiescence. It is the only thread
    // that enqueues requests, so from here on only the sim threads'
    // migration hand-offs can enter a queue.
    stopRequested_.store(true);
    wake();
    while (!ioQuiesced_.load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

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

    // Phase 4: the IO thread flushes the outboxes and exits.
    simDone_.store(true, std::memory_order_release);
    wake();
    ioThread_.join();
    stopped_.store(true);
}

// ---------------------------------------------------------------
// The IO thread.
// ---------------------------------------------------------------

void
ServiceServer::updateInterest(Connection &conn)
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
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, conn.fd, nullptr);
        conn.registered = false;
    } else if (!conn.registered) {
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, conn.fd, &ev);
        conn.registered = true;
    } else if (mask != conn.epollMask) {
        ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
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
        auto conn = std::make_unique<Connection>();
        conn->fd = fd;
        conn->id = nextConnId_++;
        conn->lastActivity = Clock::now();
        CASH_METRIC_INC("service.accepted");
        CASH_TRACE_HOST_SPAN(trace::Category::Service, "accept",
                             traceNowUs(), 0.0,
                             {{"conn", conn->id}});
        Connection &c = *conn;
        conns_.emplace(c.id, std::move(conn));
        updateInterest(c);
    }
}

void
ServiceServer::respondNow(Connection &conn, const JsonValue &resp)
{
    conn.outbox += encodeFrame(resp.dump());
    CASH_METRIC_INC("service.responses");
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
    pendingTasks_.fetch_add(1, std::memory_order_acq_rel);
    if (!shards_[shard].queue->tryPush(std::move(task))) {
        pendingTasks_.fetch_sub(1, std::memory_order_acq_rel);
        respondNow(conn, queueFull(req.id));
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
    // All or nothing: refuse the op here unless every shard has
    // room, then push every part past the cap, so no shard applies
    // a part another shard refused.
    for (std::uint32_t s = 0; s < n; ++s) {
        const BoundedQueue<SimTask> &q = *shards_[s].queue;
        if (q.size() >= q.capacity()) {
            respondNow(conn, queueFull(req.id));
            return;
        }
    }
    auto fan = std::make_shared<Fanout>();
    fan->connId = conn.id;
    fan->reqId = req.id;
    fan->op = req.op;
    fan->remaining.store(n, std::memory_order_relaxed);
    fan->parts.resize(n);

    ++conn.inFlight;
    pendingTasks_.fetch_add(n, std::memory_order_acq_rel);
    for (std::uint32_t s = 0; s < n; ++s) {
        SimTask task;
        task.kind = SimTask::Kind::FanPart;
        task.connId = conn.id;
        task.request = req;
        task.fanout = fan;
        shards_[s].queue->pushInternal(std::move(task));
    }
    traceServiceSpan("fanout", t0,
                     {{"conn", conn.id},
                      {"req", req.id},
                      {"shards", n}});
}

void
ServiceServer::routeRequest(Connection &conn, const Request &req)
{
    // A read waits in a queue only behind its own connection's
    // earlier requests, so it sees their effects.
    Route r = region_.route(req, conn.inFlight > 0);
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
    if (conn.poisoned)
        return; // frames behind a malformed one are dropped
    std::string parse_err;
    std::optional<JsonValue> doc = parseJson(payload, &parse_err);
    if (!doc) {
        // Undecodable JSON inside an intact frame: the stream
        // framing is still sound, but the client is broken enough
        // that continuing only produces more garbage.
        CASH_METRIC_INC("service.protocol_errors");
        respondNow(conn,
                   errorResponse(0, errors::Malformed, parse_err));
        conn.poisoned = true;
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
        CASH_METRIC_INC("service.protocol_errors");
        respondNow(conn, errorResponse(id, code.c_str(), detail));
        return;
    }
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
            // Dropped input is read one buffer per wakeup, so a
            // client that keeps sending cannot hold the IO thread.
            if (conn.poisoned)
                return true;
            conn.decoder.feed(buf, static_cast<std::size_t>(n));
            while (auto payload = conn.decoder.next())
                handleFrame(conn, *payload);
            if (const char *err = conn.decoder.error();
                err && !conn.poisoned) {
                CASH_METRIC_INC("service.protocol_errors");
                respondNow(conn,
                           errorResponse(0, err,
                                         "frame stream poisoned; "
                                         "closing"));
                conn.poisoned = true;
                conn.closeAfterFlush = true;
            }
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
ServiceServer::closeConnection(std::uint64_t conn_id)
{
    auto it = conns_.find(conn_id);
    if (it == conns_.end())
        return;
    ::close(it->second->fd); // closing deregisters from epoll
    conns_.erase(it);
}

void
ServiceServer::collectMailbox()
{
    std::vector<Outgoing> outs;
    {
        std::lock_guard<std::mutex> lock(mailboxMutex_);
        outs.swap(outgoing_);
    }
    for (Outgoing &out : outs) {
        auto it = conns_.find(out.connId);
        if (it == conns_.end())
            continue; // client left before its answer was ready
        it->second->outbox += out.framed;
        if (it->second->inFlight > 0)
            --it->second->inFlight;
        CASH_METRIC_INC("service.responses");
    }
}

void
ServiceServer::ioLoop()
{
    bool stop_begun = false;
    bool flushing = false;
    Clock::time_point flush_deadline{};
    std::vector<epoll_event> events(128);

    while (true) {
        if (stopRequested_.load(std::memory_order_relaxed)
            && !stop_begun) {
            stop_begun = true;
            for (int fd : listenFds_)
                if (fd >= 0)
                    ::close(fd);
            listenFds_.clear();
            // No more reads: everything already decoded has been
            // routed; quiescence tells stop() the queues can be
            // half-closed.
            for (auto &kv : conns_)
                kv.second->readClosed = true;
            ioQuiesced_.store(true, std::memory_order_release);
        }

        collectMailbox();

        if (simDone_.load(std::memory_order_acquire)
            && !flushing) {
            flushing = true;
            flush_deadline = Clock::now()
                + std::chrono::milliseconds(kGraceMs);
        }

        if (flushing) {
            bool all_flushed = true;
            std::vector<std::uint64_t> dead;
            for (auto &kv : conns_) {
                Connection &conn = *kv.second;
                if (!serviceWrite(conn)) {
                    dead.push_back(conn.id);
                    continue;
                }
                if (conn.outOff < conn.outbox.size())
                    all_flushed = false;
            }
            for (std::uint64_t id : dead)
                closeConnection(id);
            if (all_flushed || Clock::now() >= flush_deadline) {
                std::vector<std::uint64_t> ids;
                for (auto &kv : conns_)
                    ids.push_back(kv.first);
                for (std::uint64_t id : ids)
                    closeConnection(id);
                return;
            }
        }

        // --- Maintenance: retire finished connections, refresh
        // epoll interest for the rest.
        bool lingering = false;
        {
            std::vector<std::uint64_t> done;
            for (auto &kv : conns_) {
                Connection &conn = *kv.second;
                if (conn.closeAfterFlush && conn.inFlight == 0
                    && conn.outOff >= conn.outbox.size()) {
                    // A poisoned stream's client may still be
                    // sending; closing over its unread bytes would
                    // reset the socket, so it sees EOF instead and
                    // its input is drained until it closes.
                    if (conn.poisoned && !conn.readClosed) {
                        Clock::time_point now = Clock::now();
                        if (!conn.writeClosed) {
                            ::shutdown(conn.fd, SHUT_WR);
                            conn.writeClosed = true;
                            conn.lingerUntil = now
                                + std::chrono::milliseconds(kGraceMs);
                        }
                        if (now < conn.lingerUntil) {
                            lingering = true;
                            updateInterest(conn);
                            continue;
                        }
                    }
                    done.push_back(conn.id);
                    continue;
                }
                updateInterest(conn);
            }
            for (std::uint64_t id : done)
                closeConnection(id);
        }

        int timeout = -1;
        if (flushing || stop_begun || lingering) {
            timeout = 50;
        } else if (config_.idleTimeoutMs > 0) {
            Clock::time_point now = Clock::now();
            timeout = config_.idleTimeoutMs;
            for (auto &kv : conns_) {
                int left = config_.idleTimeoutMs
                    - msBetween(kv.second->lastActivity, now);
                timeout = std::max(0, std::min(timeout, left));
            }
        }

        int rc = ::epoll_wait(epollFd_, events.data(),
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
                while (::read(wakeFd_, &drained, sizeof(drained)) > 0) {
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
            auto it = conns_.find(id);
            if (it == conns_.end())
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
            closeConnection(id);

        // --- Idle reaping.
        if (config_.idleTimeoutMs > 0 && !stop_begun) {
            Clock::time_point now = Clock::now();
            std::vector<std::uint64_t> idle;
            for (auto &kv : conns_)
                if (msBetween(kv.second->lastActivity, now)
                    >= config_.idleTimeoutMs)
                    idle.push_back(kv.first);
            for (std::uint64_t id : idle) {
                CASH_METRIC_INC("service.idle_closed");
                closeConnection(id);
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
    {
        std::lock_guard<std::mutex> lock(mailboxMutex_);
        outgoing_.push_back({conn_id, std::move(framed)});
    }
    wake();
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
ServiceServer::simHandleTask(std::uint32_t shard, SimTask &task)
{
    ServiceCore &core = region_.core(shard);
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
        if (task.request.op == Op::Migrate) {
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
        task.fanout->parts[shard] = traced_apply();
        break;
      case SimTask::Kind::MigrateIn:
        resp = region_.migrateIn(task.handoff);
        break;
    }

    // The shard's view (its load and its read answers) was published
    // inside the apply, so the client's next request is routed and
    // read on it.
    if (handoff) {
        handOff(task.connId, std::move(*handoff));
    } else if (task.kind == SimTask::Kind::FanPart) {
        Fanout &fan = *task.fanout;
        if (fan.remaining.fetch_sub(1, std::memory_order_acq_rel)
            == 1) {
            resp = region_.merge(fan.op, fan.reqId, fan.parts);
            publish(fan.connId, encodeFrame(resp.dump()));
        }
    } else if (task.connId != 0) { // 0: a rebalance, nobody to answer
        publish(task.connId, encodeFrame(resp.dump()));
    }
}

void
ServiceServer::simLoop(std::uint32_t shard)
{
    Shard &sh = shards_[shard];
    std::vector<SimTask> batch;
    while (sh.queue->popBatch(batch, kMaxBatch)) {
        CASH_METRIC_SAMPLE("service.batch_size",
                           static_cast<double>(batch.size()));
        double batch_t0 = traceNowUs();
        for (SimTask &task : batch)
            simHandleTask(shard, task);
        traceServiceSpan("batch", batch_t0,
                         {{"shard", shard},
                          {"requests", batch.size()}});
        // The rebalance hook; shards stop shedding once the fleet
        // drains.
        if (!stopRequested_.load(std::memory_order_relaxed))
            if (auto h = region_.afterBatch(shard)) {
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
