#include "driver.hh"

#include <cerrno>
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "spans.hh"
#include "util.hh"

namespace pb
{

using cash::service::JsonValue;
using cash::service::Op;

Op
drawOp(cash::Rng &rng, const Mix &mix, bool owns)
{
    const std::pair<Op, double> weights[] = {
        {Op::Ping, mix.ping},     {Op::Query, mix.query},
        {Op::Arrive, mix.arrive}, {Op::Depart, mix.depart},
        {Op::Step, mix.step},
    };
    double total = 0.0;
    for (const auto &w : weights)
        total += w.second;
    double r = rng.nextDouble() * total;
    Op op = Op::Ping;
    for (const auto &w : weights) {
        if (w.second <= 0.0)
            continue;
        op = w.first; // rounding past the end keeps the last real op
        if (r < w.second)
            break;
        r -= w.second;
    }
    if (!owns && (op == Op::Query || op == Op::Depart))
        op = Op::Arrive;
    return op;
}

OpenLoopDriver::OpenLoopDriver(std::vector<int> fds, bool record_bytes)
    : record_(record_bytes)
{
    // Sub-millisecond schedules need the kernel to wake the poll on
    // time, not up to the default 50 µs timer slack late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    conns_.resize(fds.size());
    for (std::size_t i = 0; i < fds.size(); ++i) {
        conns_[i].fd = fds[i];
        ::fcntl(fds[i], F_SETFL, ::fcntl(fds[i], F_GETFL) | O_NONBLOCK);
    }
}

OpenLoopDriver::~OpenLoopDriver()
{
    closeSessions();
}

void
OpenLoopDriver::closeSessions()
{
    for (Conn &c : conns_) {
        if (c.fd >= 0)
            ::close(c.fd);
        c.fd = -1;
    }
}

void
OpenLoopDriver::flush(Conn &c)
{
    while (c.outOff < c.out.size()) {
        ssize_t n = ::write(c.fd, c.out.data() + c.outOff,
                            c.out.size() - c.outOff);
        if (n > 0) {
            c.outOff += static_cast<std::size_t>(n);
        } else if (n < 0 && errno == EINTR) {
            continue;
        } else {
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)
                broken_ = true;
            break;
        }
    }
    if (c.outOff == c.out.size()) {
        c.out.clear();
        c.outOff = 0;
    }
}

void
OpenLoopDriver::send(const Planned &p)
{
    Scope span("driver.send");
    Record r;
    r.id = records_.size() + 1;
    r.op = p.req.op;
    r.session = p.session;
    r.phase = phase_;
    r.due = p.due;
    cash::service::Request req = p.req;
    req.id = r.id;
    std::string payload = req.toJson().dump();
    r.sent = nowUs();
    // Written by the caller's flush, once for every request due now.
    conns_[p.session].out += cash::service::encodeFrame(payload);
    if (record_)
        r.reqPayload = std::move(payload);
    records_.push_back(std::move(r));
    ++outstanding_;
}

void
OpenLoopDriver::drainReadable(Conn &c, const ResponseFn &on_response)
{
    char buf[65536];
    for (;;) {
        ssize_t n = ::read(c.fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        if (n <= 0) {
            broken_ = true;
            break;
        }
        double now = nowUs();
        Scope span("driver.recv");
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        while (std::optional<std::string> payload = c.decoder.next()) {
            std::optional<JsonValue> doc =
                cash::service::parseJson(*payload);
            std::optional<std::uint64_t> id =
                doc ? doc->getUint("id") : std::nullopt;
            if (!id || *id == 0 || *id > records_.size()) {
                ++strays_;
                continue;
            }
            Record &r = records_[*id - 1];
            if (r.answers++ > 0) {
                ++duplicates_;
                continue;
            }
            --outstanding_;
            r.recv = now;
            r.ok = doc->getBool("ok").value_or(false);
            r.error = doc->getString("error").value_or("");
            if (record_)
                r.respPayload = *payload;
            if (Tracer::get().on())
                Tracer::get().addAsync(cash::service::opName(r.op),
                                       r.due, r.recv, r.id);
            on_response(r, *doc);
        }
        if (c.decoder.error()) {
            broken_ = true;
            break;
        }
    }
}

bool
OpenLoopDriver::run(const PlanFn &plan, const ResponseFn &on_response,
                    double drain_timeout_us, int phase)
{
    phase_ = phase;
    double wall0 = nowUs();
    std::optional<Planned> next = plan(wall0);
    double drain_start = -1.0;
    std::vector<pollfd> pfds(conns_.size());
    while (!broken_) {
        double now = nowUs();
        while (next && next->due <= now) {
            send(*next);
            next = plan(now);
            now = nowUs();
        }
        for (Conn &c : conns_)
            if (!c.out.empty())
                flush(c);
        if (!next) {
            if (outstanding_ == 0)
                break;
            if (drain_start < 0.0)
                drain_start = now;
            if (now - drain_start >= drain_timeout_us)
                break;
        }
        double wake = next ? next->due : drain_start + drain_timeout_us;
        double timeout_us = std::max(0.0, wake - now);

        for (std::size_t i = 0; i < conns_.size(); ++i) {
            pfds[i].fd = conns_[i].fd;
            pfds[i].events = POLLIN;
            if (!conns_[i].out.empty())
                pfds[i].events |= POLLOUT;
            pfds[i].revents = 0;
        }
        timespec ts;
        ts.tv_sec = static_cast<time_t>(timeout_us / 1e6);
        ts.tv_nsec = static_cast<long>(
            std::fmod(timeout_us, 1e6) * 1000.0);
        int ready;
        {
            Scope span("driver.wait");
            double b0 = nowUs();
            ready = ::ppoll(pfds.data(), pfds.size(), &ts, nullptr);
            blockedUs_ += nowUs() - b0;
        }
        if (ready <= 0)
            continue;
        for (std::size_t i = 0; i < conns_.size(); ++i) {
            if (pfds[i].revents & POLLOUT)
                flush(conns_[i]);
            if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR))
                drainReadable(conns_[i], on_response);
        }
    }
    wallUs_ += nowUs() - wall0;
    return outstanding_ == 0;
}

} // namespace pb
